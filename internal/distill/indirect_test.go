package distill_test

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/profile"
	"mssp/internal/refine"
	"mssp/internal/workloads"
)

// indirectSrc dispatches through a jump table, the pattern that makes every
// static register fact unusable.
const indirectSrc = `
	main:   ldi  r1, 64
	        la   r3, table
	loop:   andi r2, r1, 1
	        add  r2, r2, r3
	        ld   r12, 0(r2)
	        jr   r12             ; indirect dispatch
	case0:  mul  r9, r1, r1      ; dead on paper, but unprovably so
	        j    next
	case1:  addi r4, r4, 1
	next:   addi r1, r1, -1
	        bnez r1, loop
	        halt
	.data
	.org 4000
	table:  .word case0, case1
`

// TestDeadCodeElimUnderIndirectJumps runs the pass on programs with
// indirect jumps, the jump-table program above and interp's jalr dispatch,
// and requires each MSSP run to pass the refinement audit. Liveness makes
// every register live where an indirect jump or return leaves a block, so
// the pass needs no gate there; on interp it must still remove something.
func TestDeadCodeElimUnderIndirectJumps(t *testing.T) {
	interp, err := workloads.ByName("interp")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		prog   *isa.Program
		stride uint64
	}{
		{"jump-table", asm.MustAssemble(indirectSrc), 30},
		{"interp", interp.Build(workloads.Train), 50},
	} {
		prof, err := profile.Collect(tc.prog, profile.Options{Stride: tc.stride})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d, err := distill.Distill(tc.prog, prof,
			distill.Options{BiasThreshold: 0.95, MinBranchCount: 4, DeadCodeElim: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.name == "interp" && d.Stats.DCEInsts == 0 {
			t.Errorf("interp: the pass removed nothing: %+v", d.Stats)
		}
		rep, err := refine.Check(tc.prog, d, core.DefaultConfig(), refine.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !rep.OK || rep.Commits == 0 {
			t.Errorf("%s: audit failed after the pass (%d commits): %v", tc.name, rep.Commits, rep.FirstViolation())
		}
	}
}

// TestStrandedLoopExitRestored pins the loop-exit safeguard's
// post-condition: every block the distilled program can reach can still
// reach a halt. The jump-table program's loop is entered only through its
// indirect jump, so NaturalLoops does not see it, and at threshold 0.95
// pass 1 prunes the loop's exit, bnez r1, loop, into a jump. The distilled
// program then cannot halt, and its master runs on past the original's
// end. The post-condition restores the branch, so the master halts.
func TestStrandedLoopExitRestored(t *testing.T) {
	p := asm.MustAssemble(indirectSrc)
	prof, err := profile.Collect(p, profile.Options{Stride: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, dce := range []bool{false, true} {
		d, err := distill.Distill(p, prof, distill.Options{BiasThreshold: 0.95, MinBranchCount: 4, DeadCodeElim: dce})
		if err != nil {
			t.Fatal(err)
		}
		if d.Stats.PreservedExits == 0 {
			t.Errorf("dce %v: no exit preserved: %+v", dce, d.Stats)
		}
		branches := 0
		for _, w := range d.Prog.Code.Words {
			if isa.Decode(w).Op.IsBranch() {
				branches++
			}
		}
		if branches == 0 {
			t.Errorf("dce %v: the distilled loop has no conditional exit", dce)
		}
		m, err := core.New(p, d, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.MasterHalts == 0 {
			t.Errorf("dce %v: the master never halted: %+v", dce, res.Metrics)
		}
	}
}
