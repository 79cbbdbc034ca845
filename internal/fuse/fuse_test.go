package fuse

import (
	"testing"

	"mssp/internal/isa"
	"mssp/internal/workloads"
)

func prog(t *testing.T, insts []isa.Inst) *isa.Program {
	t.Helper()
	words := make([]uint64, len(insts))
	for i, in := range insts {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("bad instruction %v: %v", in, err)
		}
		words[i] = w
	}
	return &isa.Program{Code: isa.Segment{Base: 0, Words: words}}
}

func kinds(d *isa.DecodedProgram) map[int]isa.FuseKind {
	got := map[int]isa.FuseKind{}
	for i, f := range d.FusedTable() {
		if f.Kind != isa.FuseNone {
			got[i] = f.Kind
		}
	}
	return got
}

// TestMicroTightKinds pins the groups the matcher finds on the tight
// counted loop: the loop body is one alu+alu+br group per iteration.
func TestMicroTightKinds(t *testing.T) {
	d := Predecode(workloads.MicroTight(10), Options{})
	want := map[int]isa.FuseKind{
		0: isa.FuseAluAlu,   // ldi + first body addi
		1: isa.FuseAluAluBr, // addi, addi, bne back to 1
		2: isa.FuseAluBr,    // addi + bne (overlapping entry for interior entry-points)
	}
	if got := kinds(d); len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	} else {
		for i, k := range want {
			if got[i] != k {
				t.Fatalf("slot %d fused as %v, want %v (all: %v)", i, got[i], k, got)
			}
		}
	}
}

// TestMicroMemKinds pins the groups on the read-modify-write loop: ld+op+st
// at the head, alu+alu+br at the back-edge.
func TestMicroMemKinds(t *testing.T) {
	d := Predecode(workloads.MicroMem(10), Options{})
	got := kinds(d)
	if got[2] != isa.FuseLdAluSt {
		t.Fatalf("slot 2 fused as %v, want %v (all: %v)", got[2], isa.FuseLdAluSt, got)
	}
	if got[5] != isa.FuseAluAluBr {
		t.Fatalf("slot 5 fused as %v, want %v (all: %v)", got[5], isa.FuseAluAluBr, got)
	}
}

// TestForkNeverFuses pins that FORK is never a fused component: an idiom
// window spanning a FORK must not produce a group, because a RunToStop stop
// event may never occur mid-group.
func TestForkNeverFuses(t *testing.T) {
	d := Predecode(prog(t, []isa.Inst{
		{Op: isa.OpAddi, Rd: 1, Rs1: 1, Imm: 1}, // 0
		{Op: isa.OpFork, Imm: 3},                // 1: would complete alu+alu windows
		{Op: isa.OpAddi, Rd: 2, Rs1: 2, Imm: 1}, // 2
		{Op: isa.OpHalt},                        // 3
	}), Options{})
	for i, f := range d.FusedTable() {
		if f.Kind != isa.FuseNone {
			t.Fatalf("slot %d fused as %v; no group may form across a FORK", i, f.Kind)
		}
	}
}

// TestAnchorsExcludeInteriors pins the anchor rule: an anchor pc kills every
// group that would hold it in its interior, but a group may still start at
// an anchor.
func TestAnchorsExcludeInteriors(t *testing.T) {
	p := workloads.MicroTight(10)
	d := Predecode(p, Options{Anchors: map[uint64]bool{2: true}})
	got := kinds(d)
	// The loop entry at 1 (interior pcs 2, 3) must be gone; the pair at 0
	// (interior 1) survives, and a fresh group may start at the anchor pc 2.
	if got[1] != isa.FuseNone {
		t.Fatalf("slot 1 fused as %v despite anchor at its interior pc 2", got[1])
	}
	if got[0] != isa.FuseAluAlu {
		t.Fatalf("slot 0 fused as %v, want %v (anchor must not kill groups ending before it)", got[0], isa.FuseAluAlu)
	}
	if got[2] != isa.FuseAluBr {
		t.Fatalf("slot 2 fused as %v, want %v (a group may head at an anchor)", got[2], isa.FuseAluBr)
	}
}

// TestNonCanonicalNeverFuses pins the MV008 precondition: a word that does
// not re-encode from its decoding is never a fused component.
func TestNonCanonicalNeverFuses(t *testing.T) {
	p := workloads.MicroTight(10)
	w := p.Code.Words[1] | 1<<63 // still decodes, no longer canonical
	if !isa.Decode(w).Op.Valid() || isa.Encode(isa.Decode(w)) == w {
		t.Skip("word layout leaves no non-canonical bits")
	}
	p.Code.Words[1] = w
	d := Predecode(p, Options{})
	for i, f := range d.FusedTable() {
		if f.Kind == isa.FuseNone {
			continue
		}
		for k := 0; k < int(f.N); k++ {
			if i+k == 1 {
				t.Fatalf("slot %d (%v) fuses the non-canonical word at 1", i, f.Kind)
			}
		}
	}
}

// TestElideRedirectsDeadWrite pins elision: with Elide on, a non-final
// component whose destination is overwritten inside the group gets its
// write redirected to r0; without Elide the architectural rd stays.
func TestElideRedirectsDeadWrite(t *testing.T) {
	p := prog(t, []isa.Inst{
		{Op: isa.OpLdi, Rd: 1, Imm: 7}, // 0: r1 dead: overwritten at 1
		{Op: isa.OpLdi, Rd: 1, Imm: 9}, // 1
		{Op: isa.OpHalt},               // 2
	})
	plain := Predecode(p, Options{})
	if f := plain.FusedTable()[0]; f.Kind != isa.FuseAluAlu || f.RdA != 1 {
		t.Fatalf("plain: slot 0 = %+v, want alu+alu with RdA=1", f)
	}
	elided := Predecode(p, Options{Elide: true})
	f := elided.FusedTable()[0]
	if f.Kind != isa.FuseAluAlu || f.RdA != 0 {
		t.Fatalf("elided: slot 0 = %+v, want alu+alu with RdA=0 (dead write elided)", f)
	}
	if f.A.Rd != 1 {
		t.Fatalf("elided: component copy mutated (A.Rd=%d); elision must only redirect RdA", f.A.Rd)
	}
	st := Stats(elided)
	if st.Elided != 1 {
		t.Fatalf("Stats.Elided = %d, want 1", st.Elided)
	}
}

// TestStats sanity-checks the static summary on the micro loops.
func TestStats(t *testing.T) {
	st := Stats(Predecode(workloads.MicroTight(10), Options{}))
	if st.Groups != 3 || st.ByKind[isa.FuseAluAluBr] != 1 {
		t.Fatalf("MicroTight stats = %+v", st)
	}
	if st.Elided != 0 {
		t.Fatalf("elision ran without Elide: %+v", st)
	}
}

// TestEveryKindHasTraffic keeps the idiom catalog honest: every fuse kind
// must head at least one group in some Train workload's table. A kind that
// no workload's code contains is dispatcher complexity no workload pays for.
// The walk stops at the first kind String does not name, so a new kind is
// covered as soon as it is added.
func TestEveryKindHasTraffic(t *testing.T) {
	groups := map[isa.FuseKind]int{}
	for _, w := range workloads.All() {
		for k, n := range Stats(Predecode(w.Build(workloads.Train), Options{})).ByKind {
			groups[k] += n
		}
	}
	for k := isa.FuseAluAlu; k.String() != "fuse(?)"; k++ {
		if groups[k] == 0 {
			t.Errorf("no Train workload has a %v group", k)
		}
	}
}
