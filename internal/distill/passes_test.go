package distill

import (
	"strings"
	"testing"

	"mssp/internal/cpu"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// deadCodeSrc carries two kinds of removable work in its hot loop: mul r9 is
// overwritten before anything can observe it, and ldi r9 lives into
// checkpoints but is never read by the original program.
const deadCodeSrc = `
	        ldi  r1, 1024
	        ldi  r4, 0
	loop:   andi r2, r1, 63
	        bnez r2, common       ; biased: taken 1008/1024 times
	rare:   addi r4, r4, 100
	common: mul  r9, r1, r1       ; dead: overwritten before any use
	        ldi  r9, 0            ; dead at every anchor: r9 never read anywhere
	        addi r4, r4, 1
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
`

func TestDeadCodeElimUsesOriginalLiveness(t *testing.T) {
	opts := Options{BiasThreshold: 0.95, MinBranchCount: 16, DeadCodeElim: true}
	_, _, res := distillSrc(t, deadCodeSrc, opts, 50)
	// The mul is overwritten before any read. r9 is never live in the
	// original program, so no slave can read it from any checkpoint: the
	// ldi goes too. So does the andi — its only consumer was the branch
	// pass 1 pruned, and r2 is not live into the original program at any
	// anchor either.
	if res.Stats.DCEInsts != 3 || res.Stats.DCEDynSaved == 0 {
		t.Errorf("DCEInsts = %d, DCEDynSaved = %d; want 3 (mul, ldi r9, andi) and > 0",
			res.Stats.DCEInsts, res.Stats.DCEDynSaved)
	}
	dis := res.Prog.Disassemble()
	if strings.Contains(dis, "mul") || strings.Contains(dis, "ldi r9, 0") || strings.Contains(dis, "andi") {
		t.Errorf("dead work survived elimination:\n%s", dis)
	}
	// The distilled program must still run and halt.
	s := state.NewFromProgram(res.Prog, 1<<19)
	if r, err := cpu.Run(cpu.StateEnv{S: s}, 1_000_000); err != nil || !r.Halted {
		t.Fatalf("distilled run: %+v %v", r, err)
	}
}

// TestDeadCodeElimHasTraffic keeps the pass honest on real code: over the
// Train workloads at the default settings it must never grow a distilled
// program and must shrink at least one with profiled dynamic work saved,
// interp, whose jalr dispatch makes every register live at its indirect
// jumps, among them. A pass that removes nothing on any workload is
// distiller code no run pays off.
func TestDeadCodeElimHasTraffic(t *testing.T) {
	shrunk := 0
	for _, w := range workloads.All() {
		p := w.Build(workloads.Train)
		prof, err := profile.Collect(p, profile.Options{Stride: 100})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		on := DefaultOptions()
		on.DeadCodeElim = true
		resOn, err := Distill(p, prof, on)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		resOff, err := Distill(p, prof, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		nOn, nOff := len(resOn.Prog.Code.Words), len(resOff.Prog.Code.Words)
		if nOn > nOff {
			t.Errorf("%s: the pass grew the distilled program %d -> %d", w.Name, nOff, nOn)
		}
		if nOn < nOff && resOn.Stats.DCEDynSaved > 0 {
			shrunk++
		} else if w.Name == "interp" {
			t.Errorf("interp: the pass did not shrink it (%d -> %d, %d dynamic saved)",
				nOff, nOn, resOn.Stats.DCEDynSaved)
		}
	}
	if shrunk == 0 {
		t.Error("the pass shrank no Train workload's distilled program")
	}
}

func TestAnalysisPassesDefaultOff(t *testing.T) {
	_, _, off := distillSrc(t, deadCodeSrc, DefaultOptions(), 50)
	s := off.Stats
	if s.DCEInsts != 0 {
		t.Fatalf("analysis side effects with default options: %+v", s)
	}
	if DefaultOptions().DeadCodeElim {
		t.Fatal("the analysis pass must be opt-in")
	}
}
