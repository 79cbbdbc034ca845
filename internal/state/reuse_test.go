package state

import (
	"testing"
)

func TestDeltaReset(t *testing.T) {
	d := NewDelta()
	d.SetReg(3, 30)
	d.SetPC(100)
	d.SetMem(7, 70)
	c := d.Clone()

	d.Reset()
	if !d.Empty() || d.Len() != 0 {
		t.Errorf("Reset left delta non-empty: %s", d)
	}
	if _, ok := d.Reg(3); ok {
		t.Error("Reset left register binding")
	}
	if d.HasPC {
		t.Error("Reset left PC binding")
	}
	if _, ok := d.MemVal(7); ok {
		t.Error("Reset left memory binding")
	}
	// The clone taken before Reset is unaffected.
	if v, ok := c.Reg(3); !ok || v != 30 {
		t.Error("Reset damaged prior clone's register")
	}
	if v, ok := c.MemVal(7); !ok || v != 70 {
		t.Error("Reset damaged prior clone's memory")
	}
	// Reuse after Reset behaves like a fresh delta.
	d.SetMem(7, 71)
	if v, _ := d.MemVal(7); v != 71 {
		t.Error("delta unusable after Reset")
	}
	if v, _ := c.MemVal(7); v != 70 {
		t.Error("post-Reset write leaked into prior clone")
	}
}

func TestDeltaResetSteadyStateAllocs(t *testing.T) {
	d := NewDelta()
	allocs := testing.AllocsPerRun(100, func() {
		d.SetReg(1, 1)
		d.SetPC(5)
		for a := uint64(0); a < 32; a++ {
			d.SetMem(a, a)
		}
		d.Reset()
	})
	if allocs != 0 {
		t.Errorf("Set/Reset cycle allocates %v per run, want 0", allocs)
	}
}

func TestStateCloneInto(t *testing.T) {
	s := New()
	s.WriteReg(4, 44)
	s.PC = 12
	s.Mem.Write(100, 1)

	if c := s.CloneInto(nil); !c.Equal(s) {
		t.Error("CloneInto(nil) not equal to source")
	}

	dst := New()
	dst.WriteReg(9, 99)
	dst.Mem.Write(555, 5)
	c := s.CloneInto(dst)
	if c != dst {
		t.Error("CloneInto did not return dst")
	}
	if !c.Equal(s) {
		t.Error("CloneInto copy not equal to source")
	}
	if c.ReadReg(9) != 0 || c.Mem.Read(555) != 0 {
		t.Error("CloneInto kept stale dst content")
	}
	// Isolation both ways.
	s.Mem.Write(100, 2)
	if c.Mem.Read(100) != 1 {
		t.Error("copy sees later source writes")
	}
	c.Mem.Write(200, 7)
	if s.Mem.Read(200) != 0 {
		t.Error("source sees copy writes")
	}
}

func TestStateCloneIntoSteadyStateAllocs(t *testing.T) {
	s := New()
	for a := uint64(0); a < 3000; a += 11 {
		s.Mem.Write(a, a)
	}
	dst := New()
	allocs := testing.AllocsPerRun(100, func() {
		dst = s.CloneInto(dst)
	})
	if allocs != 0 {
		t.Errorf("steady-state CloneInto allocates %v per run, want 0", allocs)
	}
}
