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
// program, must shrink at least one with profiled dynamic work saved, and
// must skip interp, whose jalr dispatch makes liveness vacuous. A pass that
// removes nothing on any workload is distiller code no run pays off.
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
		}
		if skipped := resOn.Stats.AnalysisSkipped; skipped != (w.Name == "interp") {
			t.Errorf("%s: AnalysisSkipped = %v", w.Name, skipped)
		}
	}
	if shrunk == 0 {
		t.Error("the pass shrank no Train workload's distilled program")
	}
}

func TestAnalysisPassesDefaultOff(t *testing.T) {
	_, _, off := distillSrc(t, deadCodeSrc, DefaultOptions(), 50)
	s := off.Stats
	if s.DCEInsts != 0 || s.AnalysisSkipped {
		t.Fatalf("analysis side effects with default options: %+v", s)
	}
	if DefaultOptions().DeadCodeElim {
		t.Fatal("the analysis pass must be opt-in")
	}
}

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

// TestIndirectJumpsDisableAnalysisPasses is the regression test for the
// pass-gating contract: any indirect jump makes the analysis vacuous, so the
// pass must do nothing and say so, and real indirect workloads (the
// interpreter's jalr dispatch) must behave identically with the knob on and
// off.
func TestIndirectJumpsDisableAnalysisPasses(t *testing.T) {
	on := Options{BiasThreshold: 0.95, MinBranchCount: 4, DeadCodeElim: true}
	off := Options{BiasThreshold: 0.95, MinBranchCount: 4}

	_, _, resOn := distillSrc(t, indirectSrc, on, 30)
	_, _, resOff := distillSrc(t, indirectSrc, off, 30)
	if !resOn.Stats.AnalysisSkipped {
		t.Fatal("AnalysisSkipped not set for a jump-table program")
	}
	if resOn.Stats.DCEInsts != 0 {
		t.Fatalf("the pass ran under indirection: %+v", resOn.Stats)
	}
	if len(resOn.Prog.Code.Words) != len(resOff.Prog.Code.Words) {
		t.Fatal("the pass knob changed output length under indirection")
	}
	for i := range resOn.Prog.Code.Words {
		if resOn.Prog.Code.Words[i] != resOff.Prog.Code.Words[i] {
			t.Fatalf("the pass knob changed distilled word %d under indirection", i)
		}
	}

	// interp is the registered workload whose jalr jump-table dispatch hits
	// this gate in practice.
	for _, name := range []string{"interp"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(workloads.Train)
		prof, err := profile.Collect(p, profile.Options{Stride: 50})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resOn, err := Distill(p, prof, on)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resOff, err := Distill(p, prof, off)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !resOn.Stats.AnalysisSkipped {
			t.Errorf("%s: jalr-dispatch workload did not skip analysis", name)
		}
		if len(resOn.Prog.Code.Words) != len(resOff.Prog.Code.Words) {
			t.Fatalf("%s: pass knobs changed output", name)
		}
		for i := range resOn.Prog.Code.Words {
			if resOn.Prog.Code.Words[i] != resOff.Prog.Code.Words[i] {
				t.Fatalf("%s: pass knobs changed distilled word %d", name, i)
			}
		}
	}
}
