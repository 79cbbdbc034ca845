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
