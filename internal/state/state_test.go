package state

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mssp/internal/isa"
)

func TestStateRegZero(t *testing.T) {
	s := New()
	s.WriteReg(isa.RegZero, 99)
	if s.ReadReg(isa.RegZero) != 0 {
		t.Error("r0 must read as zero")
	}
	s.WriteReg(5, 7)
	if s.ReadReg(5) != 7 {
		t.Error("register write broken")
	}
}

func TestNewFromProgram(t *testing.T) {
	p := &isa.Program{
		Entry: 10,
		Code: isa.Segment{Base: 10, Words: []uint64{
			isa.Encode(isa.Inst{Op: isa.OpHalt}),
		}},
		Data: []isa.Segment{{Base: 100, Words: []uint64{42, 43}}},
	}
	s := NewFromProgram(p, 9999)
	if s.PC != 10 {
		t.Error("PC not at entry")
	}
	if s.Regs[isa.RegSP] != 9999 {
		t.Error("SP not initialized")
	}
	if s.Mem.Read(100) != 42 || s.Mem.Read(101) != 43 {
		t.Error("data not loaded")
	}
	if isa.Decode(s.Mem.Read(10)).Op != isa.OpHalt {
		t.Error("code not loaded")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := New()
	s.WriteReg(1, 1)
	s.Mem.Write(5, 5)
	c := s.Clone()
	c.WriteReg(1, 2)
	c.Mem.Write(5, 6)
	c.PC = 77
	if s.ReadReg(1) != 1 || s.Mem.Read(5) != 5 || s.PC != 0 {
		t.Error("Clone aliases original")
	}
	if !s.Equal(s.Clone()) {
		t.Error("clone should equal original")
	}
	if s.Equal(c) {
		t.Error("diverged clone should not equal original")
	}
}

func TestApplyAndConsistent(t *testing.T) {
	s := New()
	s.WriteReg(1, 10)
	s.Mem.Write(100, 50)
	s.PC = 5

	d := NewDelta()
	d.SetReg(1, 11)
	d.SetReg(2, 22)
	d.SetMem(100, 51)
	d.SetMem(200, 2)
	d.SetPC(6)

	if s.Consistent(d) {
		t.Error("unapplied delta should be inconsistent")
	}
	s.Apply(d)
	if s.ReadReg(1) != 11 || s.ReadReg(2) != 22 || s.Mem.Read(100) != 51 || s.Mem.Read(200) != 2 || s.PC != 6 {
		t.Error("Apply incomplete")
	}
	if !s.Consistent(d) {
		t.Error("applied delta must be consistent (idempotency precondition)")
	}

	// Idempotency: S ← D with D ⊑ S leaves S unchanged.
	before := s.Clone()
	s.Apply(d)
	if !s.Equal(before) {
		t.Error("idempotency violated: applying a consistent delta changed state")
	}
}

func TestFirstInconsistencyDeterministic(t *testing.T) {
	s := New()
	d := NewDelta()
	d.SetReg(3, 1)
	d.SetReg(7, 1)
	d.SetMem(10, 1)
	d.SetPC(9)
	inc := s.FirstInconsistency(d)
	if inc == nil || inc.Cell != "r3" {
		t.Fatalf("FirstInconsistency = %v, want r3 first", inc)
	}
	s.WriteReg(3, 1)
	s.WriteReg(7, 1)
	if inc := s.FirstInconsistency(d); inc == nil || inc.Cell != "pc" {
		t.Fatalf("FirstInconsistency = %v, want pc next", inc)
	}
	s.PC = 9
	if inc := s.FirstInconsistency(d); inc == nil || inc.Cell != "m10" {
		t.Fatalf("FirstInconsistency = %v, want m10 next", inc)
	}
	s.Mem.Write(10, 1)
	if inc := s.FirstInconsistency(d); inc != nil {
		t.Fatalf("FirstInconsistency = %v, want nil", inc)
	}
	// Error text exists.
	d2 := NewDelta()
	d2.SetReg(1, 5)
	if err := s.FirstInconsistency(d2); err == nil || err.Error() == "" {
		t.Error("Inconsistency should implement error with text")
	}
}

func TestDeltaAccessors(t *testing.T) {
	d := NewDelta()
	if !d.Empty() || d.Len() != 0 {
		t.Error("fresh delta not empty")
	}
	d.SetReg(4, 44)
	d.SetMem(9, 99)
	d.SetPC(1)
	if d.Empty() || d.Len() != 3 {
		t.Errorf("Len = %d, want 3", d.Len())
	}
	if v, ok := d.Reg(4); !ok || v != 44 {
		t.Error("Reg accessor broken")
	}
	if _, ok := d.Reg(5); ok {
		t.Error("Reg invents bindings")
	}
	if v, ok := d.MemVal(9); !ok || v != 99 {
		t.Error("MemVal broken")
	}
	if d.String() != "{r4=44 pc=1 m9=99}" {
		t.Errorf("String = %q", d.String())
	}
	c := d.Clone()
	c.SetReg(4, 1)
	c.SetMem(9, 1)
	if v, _ := d.Reg(4); v != 44 {
		t.Error("Clone aliases registers")
	}
	if v, _ := d.MemVal(9); v != 99 {
		t.Error("Clone aliases memory")
	}
}

// randDelta builds a delta with a few random bindings drawn from small
// domains so overlaps between deltas are common.
func randDelta(rng *rand.Rand) *Delta {
	d := NewDelta()
	for i, n := 0, rng.Intn(6); i < n; i++ {
		d.SetReg(1+rng.Intn(8), rng.Uint64()%16)
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		d.SetMem(uint64(rng.Intn(8)), rng.Uint64()%16)
	}
	if rng.Intn(2) == 0 {
		d.SetPC(rng.Uint64() % 16)
	}
	return d
}

func randState(rng *rand.Rand) *State {
	s := New()
	for r := 1; r < 10; r++ {
		s.Regs[r] = rng.Uint64() % 16
	}
	for a := uint64(0); a < 8; a++ {
		s.Mem.Write(a, rng.Uint64()%16)
	}
	s.PC = rng.Uint64() % 16
	return s
}

// Property (Definition 8.1): superimposition is associative,
// (S ← D1) ← D2 = S ← (D1 ← D2).
func TestSuperimposeAssociative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := randState(rng)
		s2 := s1.Clone()
		d1, d2 := randDelta(rng), randDelta(rng)

		s1.Apply(d1)
		s1.Apply(d2)

		merged := d1.Clone().Superimpose(d2)
		s2.Apply(merged)
		return s1.Equal(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Definition 8.3): idempotency — D ⊑ S implies S ← D = S.
func TestSuperimposeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randState(rng)
		// Build a delta from cells of s, so it is consistent by construction.
		d := NewDelta()
		for i := 0; i < 5; i++ {
			r := 1 + rng.Intn(8)
			d.SetReg(r, s.ReadReg(r))
			a := uint64(rng.Intn(8))
			d.SetMem(a, s.Mem.Read(a))
		}
		if !s.Consistent(d) {
			return false
		}
		before := s.Clone()
		s.Apply(d)
		return s.Equal(before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Definition 8.2): containment — D1 ⊑ D2 implies
// (D1 ← D3) ⊑ (D2 ← D3).
func TestSuperimposeContainment(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d2 := randDelta(rng)
		// d1: a sub-delta of d2.
		d1 := NewDelta()
		for r := 0; r < isa.NumRegs; r++ {
			if v, ok := d2.Reg(r); ok && rng.Intn(2) == 0 {
				d1.SetReg(r, v)
			}
		}
		d2.RangeMem(func(a, v uint64) bool {
			if rng.Intn(2) == 0 {
				d1.SetMem(a, v)
			}
			return true
		})
		if !d1.ConsistentWith(d2) {
			return false
		}
		d3 := randDelta(rng)
		a := d1.Clone().Superimpose(d3)
		b := d2.Clone().Superimpose(d3)
		return a.ConsistentWith(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeltaEqual(t *testing.T) {
	a, b := NewDelta(), NewDelta()
	if !a.Equal(b) {
		t.Error("empty deltas unequal")
	}
	a.SetReg(1, 1)
	if a.Equal(b) || b.Equal(a) {
		t.Error("unequal deltas compared equal")
	}
	b.SetReg(1, 1)
	a.SetMem(5, 5)
	b.SetMem(5, 5)
	if !a.Equal(b) {
		t.Error("equal deltas compared unequal")
	}
	b.SetPC(3)
	if a.Equal(b) {
		t.Error("PC binding ignored by Equal")
	}
}

func TestDigestDistinguishesStates(t *testing.T) {
	s := New()
	d1 := s.Digest()
	s.WriteReg(1, 1)
	d2 := s.Digest()
	s.Mem.Write(12345, 9)
	d3 := s.Digest()
	s.PC = 1
	d4 := s.Digest()
	if d1 == d2 || d2 == d3 || d3 == d4 {
		t.Error("digest failed to distinguish simple state changes")
	}
	// Digest must be a pure function of contents.
	c := s.Clone()
	if c.Digest() != s.Digest() {
		t.Error("digest differs across clones")
	}
}

func TestDump(t *testing.T) {
	s := New()
	s.WriteReg(2, 5)
	s.PC = 3
	out := s.Dump()
	if out == "" {
		t.Error("Dump empty")
	}
}
