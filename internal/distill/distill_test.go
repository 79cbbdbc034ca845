package distill

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/cpu"
	"mssp/internal/isa"
	"mssp/internal/profile"
	"mssp/internal/state"
)

// biasedSrc executes a loop with a strongly biased branch: the "rare" arm
// runs once every 64 iterations.
const biasedSrc = `
	        ldi  r1, 1024         ; counter
	        ldi  r4, 0            ; accumulator
	loop:   andi r2, r1, 63
	        bnez r2, common       ; biased: taken 1008/1024 times
	rare:   addi r4, r4, 100
	common: addi r4, r4, 1
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
`

func distillSrc(t *testing.T, src string, opts Options, stride uint64) (*isa.Program, *profile.Profile, *Result) {
	t.Helper()
	p := asm.MustAssemble(src)
	prof, err := profile.Collect(p, profile.Options{Stride: stride})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	res, err := Distill(p, prof, opts)
	if err != nil {
		t.Fatalf("distill: %v", err)
	}
	return p, prof, res
}

func TestPrunesBiasedBranch(t *testing.T) {
	_, _, res := distillSrc(t, biasedSrc, Options{BiasThreshold: 0.95, MinBranchCount: 16}, 50)
	if res.Stats.PrunedToJump != 1 {
		t.Errorf("PrunedToJump = %d, want 1 (the 98%%-taken branch)", res.Stats.PrunedToJump)
	}
	// The back-edge branch is 1023/1024 taken, above 0.95 too, but pruning
	// it would discard the loop's only exit, so it must be preserved.
	if res.Stats.PreservedExits != 1 {
		t.Errorf("PreservedExits = %d, want 1 (the loop back edge)", res.Stats.PreservedExits)
	}
	// The rare arm (addi r4, r4, 100) must be dropped as cold code.
	if res.Stats.DroppedInsts == 0 {
		t.Error("cold code not eliminated")
	}
}

func TestThresholdOneDisablesPruning(t *testing.T) {
	_, _, res := distillSrc(t, biasedSrc, Options{BiasThreshold: 1.0, MinBranchCount: 16}, 50)
	// 98% and 99.9% biased branches survive at threshold 1.0.
	if res.Stats.PrunedToJump != 0 || res.Stats.PrunedToNop != 0 {
		t.Errorf("pruning happened at threshold 1.0: %+v", res.Stats)
	}
	if res.Stats.DroppedInsts != 0 {
		t.Errorf("cold code dropped without pruning: %+v", res.Stats)
	}
}

// costlyRareSrc has a rare path that is expensive (a 40-iteration inner
// loop), the situation where distillation pays: dropping it makes the
// distilled program dynamically shorter even after FORK insertion.
const costlyRareSrc = `
	        ldi  r1, 1024         ; counter
	        ldi  r4, 0            ; accumulator
	loop:   andi r2, r1, 63
	        bnez r2, common       ; biased: taken 1008/1024 times
	rare:   ldi  r7, 40
	spin:   addi r4, r4, 1
	        addi r7, r7, -1
	        bnez r7, spin
	common: addi r4, r4, 1
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
`

func TestDistilledProgramRunsAndApproximates(t *testing.T) {
	orig, _, res := distillSrc(t, costlyRareSrc, Options{BiasThreshold: 0.95, MinBranchCount: 16}, 50)

	// Run the original.
	so := state.NewFromProgram(orig, 1<<19)
	ro, err := cpu.Run(cpu.StateEnv{S: so}, 1_000_000)
	if err != nil || !ro.Halted {
		t.Fatalf("original run: %+v %v", ro, err)
	}
	// Run the distilled program.
	sd := state.NewFromProgram(res.Prog, 1<<19)
	rd, err := cpu.Run(cpu.StateEnv{S: sd}, 1_000_000)
	if err != nil || !rd.Halted {
		t.Fatalf("distilled run: %+v %v", rd, err)
	}
	// It must be shorter dynamically...
	if rd.Steps >= ro.Steps {
		t.Errorf("distilled dynamic length %d >= original %d", rd.Steps, ro.Steps)
	}
	// ...and approximately right: the common arm contributes 1024 to r4;
	// the dropped rare path contributed 16*40 = 640 more in the original.
	if so.ReadReg(4) != 1024+640 {
		t.Fatalf("original r4 = %d, want 1664", so.ReadReg(4))
	}
	if sd.ReadReg(4) != 1024 {
		t.Errorf("distilled r4 = %d, want 1024 (rare arm removed)", sd.ReadReg(4))
	}
}

func TestForkMarkersAndMap(t *testing.T) {
	orig, _, res := distillSrc(t, biasedSrc, DefaultOptions(), 50)

	// Entry is always an anchor and maps to a FORK.
	if len(res.Anchors) == 0 || res.Anchors[0] != orig.Entry {
		t.Fatalf("anchors = %v, want entry %d first", res.Anchors, orig.Entry)
	}
	for _, a := range res.Anchors {
		dpc, ok := res.OrigToDist[a]
		if !ok {
			t.Fatalf("anchor %d not in OrigToDist", a)
		}
		in := res.Prog.InstAt(dpc)
		if in.Op != isa.OpFork {
			t.Errorf("anchor %d maps to %v, want fork", a, in)
		}
		if uint64(in.Imm) != a {
			t.Errorf("fork at %d carries %d, want %d", dpc, in.Imm, a)
		}
	}
	if res.Stats.Forks != len(res.Anchors) {
		t.Errorf("Forks = %d, anchors = %d", res.Stats.Forks, len(res.Anchors))
	}
	set := res.AnchorSet()
	if len(set) != len(res.Anchors) {
		t.Error("AnchorSet size mismatch")
	}
}

func TestNonAnchorMapTargetsSameInstruction(t *testing.T) {
	orig, _, res := distillSrc(t, biasedSrc, Options{BiasThreshold: 1.0, MinBranchCount: 16}, 50)
	anchors := res.AnchorSet()
	for opc, dpc := range res.OrigToDist {
		if anchors[opc] {
			continue
		}
		oin := orig.InstAt(opc)
		din := res.Prog.InstAt(dpc)
		if oin.Op != din.Op {
			t.Errorf("pc %d: op %v became %v", opc, oin.Op, din.Op)
		}
	}
}

const callSrc = `
	.entry main
	double: add  r1, r2, r2
	        ret
	main:   ldi  r2, 21
	        call double
	        mov  r5, r1
	        ldi  r2, 4
	        call double
	        add  r5, r5, r1
	        halt
`

func TestCallExpansionPreservesOriginalLinkValues(t *testing.T) {
	orig, _, res := distillSrc(t, callSrc, DefaultOptions(), 3)
	if res.Stats.CallExpansions != 2 {
		t.Fatalf("CallExpansions = %d, want 2", res.Stats.CallExpansions)
	}
	// Find the expansion of the first call: ldi ra, <orig return pc>.
	callPC := orig.MustSymbol("main") + 1
	dpc := res.OrigToDist[callPC]
	// An anchor fork may precede it.
	in := res.Prog.InstAt(dpc)
	if in.Op == isa.OpFork {
		dpc++
		in = res.Prog.InstAt(dpc)
	}
	if in.Op != isa.OpLdi || in.Rd != isa.RegRA || uint64(in.Imm) != callPC+1 {
		t.Errorf("call expansion head = %v, want ldi ra, %d", in, callPC+1)
	}
	if j := res.Prog.InstAt(dpc + 1); j.Op != isa.OpJal || j.Rd != isa.RegZero {
		t.Errorf("call expansion tail = %v, want j", j)
	}
}

func TestJalrLinkBaseAliasKeptRaw(t *testing.T) {
	src := `
		main:  la   r1, f
		       jalr r1, r1, 0   ; link register aliases jump base
		       halt
		f:     halt
	`
	_, _, res := distillSrc(t, src, DefaultOptions(), 3)
	if res.Stats.CallExpansions != 0 {
		t.Errorf("aliased jalr should not expand: %+v", res.Stats)
	}
}

func TestMinBranchCountGuardsRarelyExecuted(t *testing.T) {
	_, _, res := distillSrc(t, biasedSrc, Options{BiasThreshold: 0.95, MinBranchCount: 1 << 20}, 50)
	if res.Stats.PrunedToJump != 0 || res.Stats.PrunedToNop != 0 {
		t.Errorf("branches below MinBranchCount pruned: %+v", res.Stats)
	}
}

func TestBadThresholdRejected(t *testing.T) {
	p := asm.MustAssemble("halt")
	prof, err := profile.Collect(p, profile.Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []float64{0, 0.5, 1.01, -1} {
		if _, err := Distill(p, prof, Options{BiasThreshold: th}); err == nil {
			t.Errorf("threshold %v accepted", th)
		}
	}
}

func TestDistilledEntryIsFork(t *testing.T) {
	_, _, res := distillSrc(t, biasedSrc, DefaultOptions(), 50)
	in := res.Prog.InstAt(res.Prog.Entry)
	if in.Op != isa.OpFork {
		t.Errorf("distilled entry = %v, want fork", in)
	}
}

func TestDistillRejectsCodeDataOverlap(t *testing.T) {
	// Data placed immediately after code: call expansion grows the code
	// segment into it.
	src := `
		main: call f
		      call f
		      call f
		      halt
		f:    ret
		.data
		.org 9
		x:    .word 1
	`
	p := asm.MustAssemble(src)
	prof, err := profile.Collect(p, profile.Options{Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Distill(p, prof, DefaultOptions()); err == nil {
		t.Error("overlap between grown code and data accepted")
	}
}

func TestNopElision(t *testing.T) {
	// The source nop and the branch pruned to fall-through must both
	// vanish from the distilled code; targets that pointed at the nop
	// land on the following instruction.
	src := `
	        ldi  r1, 1024
	loop:   nop
	        andi r2, r1, 255
	        beqz r2, rare         ; ~never taken -> pruned to (elided) nop
	back:   addi r1, r1, -1
	        bnez r1, loop
	        halt
	rare:   addi r4, r4, 1
	        j    back
	`
	_, _, res := distillSrc(t, src, Options{BiasThreshold: 0.99, MinBranchCount: 16}, 50)
	if res.Stats.ElidedNops < 2 {
		t.Fatalf("ElidedNops = %d, want >= 2 (source nop + pruned branch)", res.Stats.ElidedNops)
	}
	for _, w := range res.Prog.Code.Words {
		if isa.Decode(w).Op == isa.OpNop {
			t.Fatal("distilled code still contains a nop")
		}
	}
	// The distilled program still runs to completion.
	sd := state.NewFromProgram(res.Prog, 1<<19)
	rd, err := cpu.Run(cpu.StateEnv{S: sd}, 100_000)
	if err != nil || !rd.Halted {
		t.Fatalf("distilled run: %+v %v", rd, err)
	}
	if sd.ReadReg(1) != 0 {
		t.Errorf("distilled loop result wrong: r1=%d", sd.ReadReg(1))
	}
}
