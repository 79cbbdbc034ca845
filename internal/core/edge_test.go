package core

import (
	"testing"

	"mssp/internal/asm"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/profile"
)

// TestMasterLostOnIndirectGarbage: an indirect jump through a data value
// that is not a code address kills the master; the machine must finish the
// program through drain/fallback and still be exact.
func TestMasterLostOnIndirectGarbage(t *testing.T) {
	src := `
	.entry main
	main:   ldi  r1, 3000
	        ldi  r4, 0
	loop:   addi r4, r4, 3
	        andi r4, r4, 0xffff
	        addi r1, r1, -1
	        bnez r1, loop
	        la   r2, fptr
	        ld   r3, 0(r2)
	        jalr ra, r3, 0        ; target comes from data
	        halt
	fin:    addi r4, r4, 7
	        ret
	.data
	.org 50000
	fptr:   .space 1
	`
	// Point the function pointer at fin — a legitimate original-code
	// address — before profiling, so the training run terminates. The
	// master translates the target; with a corrupted map it gets lost
	// instead. Exercise both.
	prog := asm.MustAssemble(src)
	fin := prog.MustSymbol("fin")
	for si := range prog.Data {
		seg := &prog.Data[si]
		if a := prog.MustSymbol("fptr"); a >= seg.Base && a < seg.End() {
			seg.Words[a-seg.Base] = fin
		}
	}
	prof, err := profile.Collect(prog, profile.Options{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	d, err := distill.Distill(prog, prof, distill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{orig: prog, prof: prof, dist: d}
	b := runBaseline(t, h)
	res := runMSSP(t, h, DefaultConfig())
	assertEquivalent(t, b, res)

	// Now corrupt the translation map so the master cannot resolve the
	// target and goes lost; the machine must still finish correctly.
	delete(h.dist.OrigToDist, fin)
	// Lost-master handling must also survive the target not being
	// distilled code at all.
	res2 := runMSSP(t, h, DefaultConfig())
	assertEquivalent(t, b, res2)
}

// TestMasterHaltsEarly: a distilled program whose tail was over-pruned
// halts the master while the real program still has work; the drain path
// must finish it.
func TestMasterHaltsEarly(t *testing.T) {
	h := prep(t, fsrc(1024), 100, distill.DefaultOptions())
	// Truncate the distilled program: replace its second fork onward with
	// a halt, so the master gives up almost immediately.
	words := h.dist.Prog.Code.Words
	forks := 0
	for i, w := range words {
		if isa.Decode(w).Op == isa.OpFork {
			forks++
			if forks == 2 {
				words[i] = isa.Encode(isa.Inst{Op: isa.OpHalt})
				break
			}
		}
	}
	b := runBaseline(t, h)
	res := runMSSP(t, h, DefaultConfig())
	assertEquivalent(t, b, res)
	if res.Metrics.MasterHalts == 0 {
		t.Error("master never halted despite the truncated distilled program")
	}
}

// TestTaskBufferBounds: TaskBuffer below Slaves is clamped; a buffer of
// exactly Slaves still completes correctly.
func TestTaskBufferBounds(t *testing.T) {
	h := prep(t, fsrc(1024), 100, distill.DefaultOptions())
	b := runBaseline(t, h)
	for _, buf := range []int{1, 7, 14, 56} {
		cfg := DefaultConfig()
		cfg.TaskBuffer = buf
		res := runMSSP(t, h, cfg)
		assertEquivalent(t, b, res)
	}
}

// TestBufferDepthHelpsLongTasks: buffering beyond the slave count should
// never hurt, and on workloads with occasional long tasks it should help.
func TestBufferDepthHelpsLongTasks(t *testing.T) {
	h := prep(t, fsrc(4096), 100, distill.DefaultOptions())
	tight := DefaultConfig()
	tight.TaskBuffer = tight.Slaves
	deep := DefaultConfig()
	deep.TaskBuffer = 4 * deep.Slaves
	rTight := runMSSP(t, h, tight)
	rDeep := runMSSP(t, h, deep)
	if rDeep.Cycles > rTight.Cycles*1.01 {
		t.Errorf("deep buffering slower: %.0f vs %.0f", rDeep.Cycles, rTight.Cycles)
	}
}

// TestZeroSpacingTakesEveryFork: MinTaskSpacing 0 must take every fork and
// still be exact (tiny tasks, heavy commit traffic).
func TestZeroSpacingTakesEveryFork(t *testing.T) {
	h := prep(t, fsrc(1024), 100, distill.DefaultOptions())
	cfg := DefaultConfig()
	cfg.MinTaskSpacing = 0
	res := runMSSP(t, h, cfg)
	assertEquivalent(t, runBaseline(t, h), res)
	if res.Metrics.ForksSkipped != 0 {
		t.Errorf("forks skipped with zero spacing: %d", res.Metrics.ForksSkipped)
	}
}
