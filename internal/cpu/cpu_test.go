package cpu

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
)

// u converts a signed value to its uint64 bit pattern at run time (the
// conversion is rejected for negative constants at compile time).
func u(x int64) uint64 { return uint64(x) }

// run assembles a code sequence at address 0, seeds registers, executes up
// to max steps and returns the final state.
func run(t *testing.T, code []isa.Inst, regs map[int]uint64, max uint64) *state.State {
	t.Helper()
	s := state.New()
	for i, in := range code {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("bad test instruction %v: %v", in, err)
		}
		s.Mem.Write(uint64(i), w)
	}
	for r, v := range regs {
		s.WriteReg(r, v)
	}
	if _, err := Seq(s, max); err != nil {
		t.Fatalf("Seq: %v", err)
	}
	return s
}

func TestALUOps(t *testing.T) {
	cases := []struct {
		name string
		op   isa.Op
		a, b uint64
		want uint64
	}{
		{"add", isa.OpAdd, 3, 4, 7},
		{"add-wrap", isa.OpAdd, ^uint64(0), 1, 0},
		{"sub", isa.OpSub, 3, 4, ^uint64(0)},
		{"mul", isa.OpMul, 7, 6, 42},
		{"div", isa.OpDiv, 42, 7, 6},
		{"div-neg", isa.OpDiv, u(int64(-42)), 7, u(int64(-6))},
		{"div-zero", isa.OpDiv, 5, 0, ^uint64(0)},
		{"div-overflow", isa.OpDiv, 1 << 63, ^uint64(0), 1 << 63},
		{"rem", isa.OpRem, 43, 7, 1},
		{"rem-neg", isa.OpRem, u(int64(-43)), 7, u(int64(-1))},
		{"rem-zero", isa.OpRem, 5, 0, 5},
		{"rem-overflow", isa.OpRem, 1 << 63, ^uint64(0), 0},
		{"and", isa.OpAnd, 0b1100, 0b1010, 0b1000},
		{"or", isa.OpOr, 0b1100, 0b1010, 0b1110},
		{"xor", isa.OpXor, 0b1100, 0b1010, 0b0110},
		{"sll", isa.OpSll, 1, 4, 16},
		{"sll-mod", isa.OpSll, 1, 65, 2},
		{"srl", isa.OpSrl, 1 << 63, 63, 1},
		{"sra", isa.OpSra, 1 << 63, 63, ^uint64(0)},
		{"slt-true", isa.OpSlt, u(int64(-1)), 0, 1},
		{"slt-false", isa.OpSlt, 1, 0, 0},
		{"sltu-true", isa.OpSltu, 0, ^uint64(0), 1},
		{"sltu-false", isa.OpSltu, ^uint64(0), 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := run(t, []isa.Inst{
				{Op: tc.op, Rd: 3, Rs1: 1, Rs2: 2},
				{Op: isa.OpHalt},
			}, map[int]uint64{1: tc.a, 2: tc.b}, 10)
			if got := s.ReadReg(3); got != tc.want {
				t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestImmediateOps(t *testing.T) {
	cases := []struct {
		name string
		op   isa.Op
		a    uint64
		imm  int64
		want uint64
	}{
		{"addi", isa.OpAddi, 10, -3, 7},
		{"andi", isa.OpAndi, 0b1111, 0b0110, 0b0110},
		{"ori", isa.OpOri, 0b1000, 0b0001, 0b1001},
		{"xori", isa.OpXori, 0b1010, -1, ^uint64(0b1010)},
		{"slli", isa.OpSlli, 3, 2, 12},
		{"srli", isa.OpSrli, 12, 2, 3},
		{"srai", isa.OpSrai, u(int64(-8)), 1, u(int64(-4))},
		{"slti-true", isa.OpSlti, u(int64(-5)), -4, 1},
		{"slti-false", isa.OpSlti, 5, 5, 0},
		{"sltui-true", isa.OpSltui, 3, 5, 1},
		{"sltui-false", isa.OpSltui, ^uint64(0), 5, 0},
		{"muli", isa.OpMuli, 6, 7, 42},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := run(t, []isa.Inst{
				{Op: tc.op, Rd: 3, Rs1: 1, Imm: tc.imm},
				{Op: isa.OpHalt},
			}, map[int]uint64{1: tc.a}, 10)
			if got := s.ReadReg(3); got != tc.want {
				t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.imm, got, tc.want)
			}
		})
	}
}

func TestLdiLdih(t *testing.T) {
	s := run(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 1, Imm: -2},
		{Op: isa.OpLdi, Rd: 2, Imm: 0x12345678},
		{Op: isa.OpLdih, Rd: 2, Rs1: 2, Imm: 0x7fffffff},
		{Op: isa.OpHalt},
	}, nil, 10)
	if s.ReadReg(1) != ^uint64(1) {
		t.Errorf("ldi sign extension broken: %x", s.ReadReg(1))
	}
	if s.ReadReg(2) != 0x7fffffff12345678 {
		t.Errorf("ldih = %x", s.ReadReg(2))
	}
}

func TestLoadStore(t *testing.T) {
	s := run(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 1, Imm: 100}, // base
		{Op: isa.OpLdi, Rd: 2, Imm: 55},  // value
		{Op: isa.OpSt, Rs1: 1, Rs2: 2, Imm: 8},
		{Op: isa.OpLd, Rd: 3, Rs1: 1, Imm: 8},
		{Op: isa.OpHalt},
	}, nil, 10)
	if s.Mem.Read(108) != 55 {
		t.Error("store broken")
	}
	if s.ReadReg(3) != 55 {
		t.Error("load broken")
	}
}

func TestBranches(t *testing.T) {
	cases := []struct {
		op    isa.Op
		a, b  uint64
		taken bool
	}{
		{isa.OpBeq, 1, 1, true},
		{isa.OpBeq, 1, 2, false},
		{isa.OpBne, 1, 2, true},
		{isa.OpBne, 1, 1, false},
		{isa.OpBlt, u(int64(-1)), 0, true},
		{isa.OpBlt, 0, u(int64(-1)), false},
		{isa.OpBge, 0, 0, true},
		{isa.OpBge, u(int64(-1)), 0, false},
		{isa.OpBltu, 0, ^uint64(0), true},
		{isa.OpBltu, ^uint64(0), 0, false},
		{isa.OpBgeu, ^uint64(0), 0, true},
		{isa.OpBgeu, 0, 1, false},
	}
	for _, tc := range cases {
		// Taken path writes r3=1, fall-through writes r3=2.
		s := run(t, []isa.Inst{
			{Op: tc.op, Rs1: 1, Rs2: 2, Imm: 3}, // 0: branch to 3
			{Op: isa.OpLdi, Rd: 3, Imm: 2},      // 1: fallthrough
			{Op: isa.OpHalt},                    // 2
			{Op: isa.OpLdi, Rd: 3, Imm: 1},      // 3: taken
			{Op: isa.OpHalt},                    // 4
		}, map[int]uint64{1: tc.a, 2: tc.b}, 10)
		want := uint64(2)
		if tc.taken {
			want = 1
		}
		if got := s.ReadReg(3); got != want {
			t.Errorf("%v(%d,%d): r3 = %d, want %d", tc.op, tc.a, tc.b, got, want)
		}
	}
}

func TestJalJalr(t *testing.T) {
	s := run(t, []isa.Inst{
		{Op: isa.OpJal, Rd: 31, Imm: 3},          // 0: call 3, ra=1
		{Op: isa.OpLdi, Rd: 4, Imm: 9},           // 1: after return
		{Op: isa.OpHalt},                         // 2
		{Op: isa.OpLdi, Rd: 5, Imm: 7},           // 3: callee
		{Op: isa.OpJalr, Rd: 0, Rs1: 31, Imm: 0}, // 4: return
	}, nil, 20)
	if s.ReadReg(31) != 1 {
		t.Errorf("link register = %d, want 1", s.ReadReg(31))
	}
	if s.ReadReg(5) != 7 || s.ReadReg(4) != 9 {
		t.Error("call/return flow broken")
	}
	if s.PC != 2 {
		t.Errorf("final PC = %d, want 2 (halt fixpoint)", s.PC)
	}
}

func TestHaltFixpoint(t *testing.T) {
	s := state.New()
	s.Mem.Write(0, isa.Encode(isa.Inst{Op: isa.OpHalt}))
	env := StateEnv{S: s}
	for i := 0; i < 3; i++ {
		in, err := Step(env)
		if err != nil || in.Op != isa.OpHalt {
			t.Fatalf("step %d: %v %v", i, in, err)
		}
		if s.PC != 0 {
			t.Fatalf("halt moved PC to %d", s.PC)
		}
	}
}

func TestForkIsArchitecturalNop(t *testing.T) {
	s := run(t, []isa.Inst{
		{Op: isa.OpFork, Imm: 12345},
		{Op: isa.OpLdi, Rd: 1, Imm: 1},
		{Op: isa.OpHalt},
	}, nil, 10)
	if s.ReadReg(1) != 1 {
		t.Error("fork blocked fallthrough execution")
	}
}

func TestFault(t *testing.T) {
	s := state.New()
	s.Mem.Write(0, ^uint64(0)) // undecodable
	_, err := Seq(s, 10)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("want Fault, got %v", err)
	}
	if f.PC != 0 || f.Error() == "" {
		t.Errorf("fault fields wrong: %+v", f)
	}
}

func TestRunCountsAndStops(t *testing.T) {
	// Infinite loop: run must stop at max.
	s := state.New()
	s.Mem.Write(0, isa.Encode(isa.Inst{Op: isa.OpJal, Rd: 0, Imm: 0}))
	res, err := Run(StateEnv{S: s}, 100)
	if err != nil || res.Halted || res.Steps != 100 {
		t.Errorf("infinite loop run = %+v, %v", res, err)
	}

	// Halt counts as an executed step.
	s2 := state.New()
	s2.Mem.Write(0, isa.Encode(isa.Inst{Op: isa.OpNop}))
	s2.Mem.Write(1, isa.Encode(isa.Inst{Op: isa.OpHalt}))
	res2, err := Run(StateEnv{S: s2}, 100)
	if err != nil || !res2.Halted || res2.Steps != 2 {
		t.Errorf("halt run = %+v, %v", res2, err)
	}
}

func TestWritesToR0Discarded(t *testing.T) {
	s := run(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 0, Imm: 42},
		{Op: isa.OpAddi, Rd: 1, Rs1: 0, Imm: 5},
		{Op: isa.OpJal, Rd: 0, Imm: 3}, // link discarded too
		{Op: isa.OpHalt},
		{Op: isa.OpHalt},
	}, nil, 10)
	if s.ReadReg(0) != 0 {
		t.Error("r0 written")
	}
	if s.ReadReg(1) != 5 {
		t.Error("r0 should read as zero in addi")
	}
}

// Determinism property (formal model §6.2): stepping two equal states yields
// equal states, for random programs.
func TestDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s1 := state.New()
		for i := uint64(0); i < 64; i++ {
			in := isa.Inst{
				Op:  isa.Op(rng.Intn(int(isa.OpHalt))), // exclude halt/fork for density
				Rd:  uint8(rng.Intn(isa.NumRegs)),
				Rs1: uint8(rng.Intn(isa.NumRegs)),
				Rs2: uint8(rng.Intn(isa.NumRegs)),
				Imm: int64(rng.Intn(64)), // branch targets stay in code
			}
			s1.Mem.Write(i, isa.Encode(in))
		}
		for r := 1; r < isa.NumRegs; r++ {
			s1.Regs[r] = rng.Uint64() % 64
		}
		s2 := s1.Clone()
		n1, err1 := Seq(s1, 200)
		n2, err2 := Seq(s2, 200)
		if n1 != n2 || (err1 == nil) != (err2 == nil) {
			return false
		}
		return s1.Equal(s2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// seq(S, a+b) == seq(seq(S, a), b) when no early stop occurs.
func TestSeqComposition(t *testing.T) {
	mk := func() *state.State {
		s := state.New()
		// Loop: r1 starts at 50, decrements to 0, then halts.
		code := []isa.Inst{
			{Op: isa.OpLdi, Rd: 1, Imm: 50},
			{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
			{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 1},
			{Op: isa.OpHalt},
		}
		for i, in := range code {
			s.Mem.Write(uint64(i), isa.Encode(in))
		}
		return s
	}
	whole := mk()
	if _, err := Seq(whole, 60); err != nil {
		t.Fatal(err)
	}
	split := mk()
	if _, err := Seq(split, 25); err != nil {
		t.Fatal(err)
	}
	if _, err := Seq(split, 35); err != nil {
		t.Fatal(err)
	}
	if !whole.Equal(split) {
		t.Error("seq composition broken")
	}
}

func BenchmarkInterpreterLoop(b *testing.B) {
	s := state.New()
	code := []isa.Inst{
		{Op: isa.OpLdi, Rd: 1, Imm: 1 << 30},
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: -1},
		{Op: isa.OpBne, Rs1: 1, Rs2: 0, Imm: 1},
		{Op: isa.OpHalt},
	}
	for i, in := range code {
		s.Mem.Write(uint64(i), isa.Encode(in))
	}
	env := StateEnv{S: s}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Step(env); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunLoopMatchesISA holds the run loop's inlined switch, the second
// definition of the instruction semantics, to the reference, isa.ALU and
// isa.Taken, which stepExec evaluates: every ALU and branch op, over
// operands that include division by zero and the INT64_MIN / -1 overflow,
// dispatched singly from a plain predecoded table and as the last
// component of a fused pair.
func TestRunLoopMatchesISA(t *testing.T) {
	const minInt = uint64(1) << 63
	vals := []uint64{0, 1, 2, 7, 63, 64, 65, minInt, minInt - 1, ^uint64(0), u(-2), u(-7), 0xdeadbeefcafe}
	imms := []int64{0, 1, -1, 7, -7, 63, 64, 1<<31 - 1, -1 << 31}
	forms := [2]string{"single", "fused"}
	// run executes in with r1 = a and r2 = b, once on its own and once
	// behind an ldi that fuses with it, returning the final states in
	// forms order.
	run := func(in isa.Inst, a, b uint64) (out [2]*state.State) {
		t.Helper()
		for i, form := range forms {
			code := []isa.Inst{in, {Op: isa.OpHalt}}
			if form == "fused" {
				code = append([]isa.Inst{{Op: isa.OpLdi, Rd: 4, Imm: 1}}, code...)
			}
			p := progFromInsts(t, code, nil, nil)
			tab := isa.Predecode(p)
			if form == "fused" {
				tab = fuse.Predecode(p, fuse.Options{})
			}
			s := state.New()
			s.Regs[1], s.Regs[2] = a, b
			n := uint64(len(code) - 1)
			st, err := NewCode(tab).RunToStop(s, n)
			if err != nil || st.Steps != n || (st.Fused == n) != (form == "fused") {
				t.Fatalf("%v %s: %+v, %v", in, form, st, err)
			}
			out[i] = s
		}
		return out
	}
	for op := isa.OpAdd; op <= isa.OpLdih; op++ {
		for _, a := range vals {
			if op <= isa.OpSltu {
				for _, b := range vals {
					want := isa.ALU(op, a, b)
					for i, s := range run(isa.Inst{Op: op, Rd: 3, Rs1: 1, Rs2: 2}, a, b) {
						if s.Regs[3] != want {
							t.Errorf("%s %v(%#x, %#x) = %#x, isa.ALU gives %#x", forms[i], op, a, b, s.Regs[3], want)
						}
					}
				}
				continue
			}
			for _, imm := range imms {
				want := isa.ALU(op, a, uint64(imm))
				for i, s := range run(isa.Inst{Op: op, Rd: 3, Rs1: 1, Imm: imm}, a, 0) {
					if s.Regs[3] != want {
						t.Errorf("%s %v(%#x, %d) = %#x, isa.ALU gives %#x", forms[i], op, a, imm, s.Regs[3], want)
					}
				}
			}
		}
	}
	for op := isa.OpBeq; op <= isa.OpBgeu; op++ {
		for _, a := range vals {
			for _, b := range vals {
				want := isa.Taken(op, a, b)
				for i, s := range run(isa.Inst{Op: op, Rs1: 1, Rs2: 2, Imm: 100}, a, b) {
					if got := s.PC == 100; got != want {
						t.Errorf("%s %v(%#x, %#x) taken = %v, isa.Taken gives %v", forms[i], op, a, b, got, want)
					}
				}
			}
		}
	}
}

// regLog is a StateEnv that records the registers an instruction reads and
// writes, as Inst.Regs bitmasks.
type regLog struct {
	StateEnv
	reads, writes uint32
}

func (e *regLog) ReadReg(r int) uint64 {
	e.reads |= 1 << r
	return e.StateEnv.ReadReg(r)
}

func (e *regLog) WriteReg(r int, v uint64) {
	e.writes |= 1 << r
	e.StateEnv.WriteReg(r, v)
}

// TestStepReadsExactlyRegs pins the footprint contract per opcode: Step
// reads exactly the registers Inst.Regs reports as read and writes exactly
// those it reports as written (r0 aside), which is what the run loop logs
// as a slave's live-ins. An Env that records reads, like the slow slave
// path or the taint replay, must see the same footprint.
func TestStepReadsExactlyRegs(t *testing.T) {
	for op := isa.Op(0); op.Valid(); op++ {
		in := isa.Inst{Op: op, Rd: 3, Rs1: 1, Rs2: 2, Imm: 5}
		s := state.New()
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("encode %v: %v", in, err)
		}
		s.Mem.Write(0, w)
		env := &regLog{StateEnv: StateEnv{S: s}}
		if _, err := Step(env); err != nil {
			t.Fatalf("%v: %v", in, err)
		}
		reads, writes := in.Regs()
		if got := env.reads &^ 1; got != reads {
			t.Errorf("%v reads %032b, Inst.Regs says %032b", in, got, reads)
		}
		if got := env.writes &^ 1; got != writes {
			t.Errorf("%v writes %032b, Inst.Regs says %032b", in, got, writes)
		}
	}
}
