package dataflow

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/cfg"
	"mssp/internal/isa"
)

func mustGraph(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	g, err := cfg.Build(asm.MustAssemble(src))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pcOf returns the address of the nth instruction (0-based) of the code
// segment, which in these tests starts at 0.
func pcOf(n int) uint64 { return uint64(n) }

func TestRegSetBasics(t *testing.T) {
	var s RegSet
	s = s.Add(3).Add(31).Add(0) // r0 must be ignored
	if !s.Has(3) || !s.Has(31) || s.Has(0) || s.Count() != 2 {
		t.Fatalf("set ops wrong: %v count=%d", s, s.Count())
	}
	if AllRegs.Has(0) || AllRegs.Count() != isa.NumRegs-1 {
		t.Fatalf("AllRegs must hold r1..r31: count=%d", AllRegs.Count())
	}
	if s.Remove(3).Has(3) {
		t.Fatal("Remove failed")
	}
}

func TestLivenessStraightLine(t *testing.T) {
	g := mustGraph(t, `
		ldi r1, 5
		add r2, r1, r1    # dead: overwritten before any read
		ldi r2, 7
		ldi r3, 100
		st  r2, 0(r3)
		halt
	`)
	lf := Live(g, LivenessOptions{})
	if !lf.DeadDef(pcOf(1)) {
		t.Error("add r2 should be a dead def")
	}
	if lf.DeadDef(pcOf(2)) {
		t.Error("ldi r2, 7 is read by the store; not dead")
	}
	if !lf.Before(pcOf(4)).Has(2) || !lf.Before(pcOf(4)).Has(3) {
		t.Errorf("store operands must be live before it: %v", lf.Before(pcOf(4)))
	}
	if lf.Before(pcOf(0)).Has(1) {
		t.Error("r1 must not be live before its own first def")
	}
}

func TestLivenessAtPCInjection(t *testing.T) {
	src := `
		ldi r1, 5
		add r2, r1, r1
		ldi r2, 7
		halt
	`
	g := mustGraph(t, src)
	plain := Live(g, LivenessOptions{})
	if !plain.DeadDef(pcOf(1)) {
		t.Fatal("without injection add r2 is dead")
	}
	// A checkpoint immediately before the overwriting ldi observes r2.
	inj := Live(g, LivenessOptions{AtPC: func(pc uint64) RegSet {
		if pc == pcOf(2) {
			return RegSet(0).Add(2)
		}
		return 0
	}})
	if inj.DeadDef(pcOf(1)) {
		t.Error("checkpoint use at pc 2 must keep add r2 alive")
	}
	if !inj.Before(pcOf(2)).Has(2) {
		t.Error("injected use must appear in the Before fact at its pc")
	}
}

func TestLivenessBranchAndExit(t *testing.T) {
	g := mustGraph(t, `
		        ldi  r1, 1
		        ldi  r2, 2
		        beqz r3, skip
		        add  r4, r1, r1   # r1 read only on this arm
		skip:   add  r5, r2, r2
		        halt
	`)
	lf := Live(g, LivenessOptions{})
	if !lf.Before(pcOf(2)).Has(1) || !lf.Before(pcOf(2)).Has(2) || !lf.Before(pcOf(2)).Has(3) {
		t.Errorf("branch point must see r1, r2, r3 live: %v", lf.Before(pcOf(2)))
	}
	// r4 and r5 are never read and ExitLive is empty.
	if !lf.DeadDef(pcOf(3)) || !lf.DeadDef(pcOf(4)) {
		t.Error("results never read before an empty exit must be dead")
	}
	exit := Live(g, LivenessOptions{ExitLive: RegSet(0).Add(5)})
	if exit.DeadDef(pcOf(4)) {
		t.Error("ExitLive must keep the r5 def alive")
	}
	if !exit.DeadDef(pcOf(3)) {
		t.Error("ExitLive for r5 must not resurrect r4")
	}
}

func TestLivenessReturnBoundary(t *testing.T) {
	g := mustGraph(t, `
		.entry main
		f:      ldi r5, 9
		        ret
		main:   call f
		        halt
	`)
	lf := Live(g, LivenessOptions{})
	if lf.DeadDef(pcOf(0)) {
		t.Error("defs before a return must be live: the caller may read them")
	}
	// Before a call everything is live (callee summary reads everything).
	if got := lf.Before(pcOf(2)); got != AllRegs {
		t.Errorf("live before call = %v, want AllRegs", got)
	}
}

func TestMayInit(t *testing.T) {
	g := mustGraph(t, `
		        beqz r4, skip
		        ldi  r2, 5
		skip:   add  r3, r2, r0
		        halt
	`)
	f := MayInit(g, RegSet(0).Add(uint8(isa.RegSP)))
	join := pcOf(2)
	if !f.Before(join).Has(2) {
		t.Error("r2 is written on one arm: may-initialized at the join")
	}
	if f.Before(join).Has(5) {
		t.Error("r5 is never written anywhere")
	}
	if !f.Before(join).Has(uint8(isa.RegSP)) {
		t.Error("the runtime-seeded stack pointer counts as initialized")
	}
	if f.Before(pcOf(0)) != RegSet(0).Add(uint8(isa.RegSP)) {
		t.Errorf("entry fact must be exactly the seed set, got %v", f.Before(pcOf(0)))
	}
}

func TestForwardAnalysesDegradeOnIndirect(t *testing.T) {
	g := mustGraph(t, `
		main:   la   r1, target
		        jr   r1
		        ldi  r2, 1
		target: ldi  r3, 5
		        addi r4, r3, 1
		        halt
	`)
	if !g.HasIndirect {
		t.Fatal("test program must contain an indirect jump")
	}
	mi := MayInit(g, 0)
	for pc := uint64(0); pc < uint64(6); pc++ {
		if mi.Before(pc) != AllRegs {
			t.Fatalf("MayInit must be AllRegs everywhere, pc %d: %v", pc, mi.Before(pc))
		}
	}
}

func TestUsesAndDef(t *testing.T) {
	cases := []struct {
		in   isa.Inst
		uses RegSet
		def  uint8
		hasD bool
	}{
		{isa.Inst{Op: isa.OpAdd, Rd: 3, Rs1: 1, Rs2: 2}, RegSet(0).Add(1).Add(2), 3, true},
		{isa.Inst{Op: isa.OpAddi, Rd: 3, Rs1: 1, Imm: 4}, RegSet(0).Add(1), 3, true},
		{isa.Inst{Op: isa.OpSt, Rs1: 1, Rs2: 2}, RegSet(0).Add(1).Add(2), 0, false},
		{isa.Inst{Op: isa.OpLdi, Rd: 5, Imm: 9}, 0, 5, true},
		{isa.Inst{Op: isa.OpAdd, Rd: 0, Rs1: 1, Rs2: 2}, RegSet(0).Add(1).Add(2), 0, false},
		// A call reads and writes everything (callee summary), but its def
		// is just the link register.
		{isa.Inst{Op: isa.OpJal, Rd: uint8(isa.RegRA), Imm: 0}, AllRegs, uint8(isa.RegRA), true},
		{isa.Inst{Op: isa.OpJal, Rd: 0, Imm: 0}, 0, 0, false},
		// A return reads only ra.
		{isa.Inst{Op: isa.OpJalr, Rd: 0, Rs1: uint8(isa.RegRA)}, RegSet(0).Add(uint8(isa.RegRA)), 0, false},
	}
	for _, c := range cases {
		if got := Uses(c.in); got != c.uses {
			t.Errorf("Uses(%v) = %v, want %v", c.in, got, c.uses)
		}
		d, ok := Def(c.in)
		if ok != c.hasD || (ok && d != c.def) {
			t.Errorf("Def(%v) = (%d,%v), want (%d,%v)", c.in, d, ok, c.def, c.hasD)
		}
	}
}
