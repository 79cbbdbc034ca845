package profile

import (
	"testing"

	"mssp/internal/asm"
)

const loopSrc = `
	        ldi  r1, 100       ; 0
	loop:   addi r2, r2, 1     ; 1
	        addi r1, r1, -1    ; 2
	        bnez r1, loop      ; 3
	        halt               ; 4
`

func TestCollectCounts(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	prof, err := Collect(p, Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !prof.Halted {
		t.Fatal("run did not halt")
	}
	// 1 + 3*100 + 1 = 302 instructions.
	if prof.Total != 302 {
		t.Errorf("Total = %d, want 302", prof.Total)
	}
	if prof.Exec[1] != 100 || prof.Exec[3] != 100 || prof.Exec[0] != 1 || prof.Exec[4] != 1 {
		t.Errorf("Exec counts wrong: %v", prof.Exec)
	}
	if prof.Taken[3] != 99 || prof.NotTaken[3] != 1 {
		t.Errorf("branch outcome counts: taken=%d nottaken=%d", prof.Taken[3], prof.NotTaken[3])
	}
	frac, total := prof.Bias(3)
	if total != 100 || frac != 0.99 {
		t.Errorf("Bias = %v,%v", frac, total)
	}
}

func TestAnchorsAreBlockLeadersAndSpaced(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	prof, err := Collect(p, Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The only recurring block boundary is the loop header at 1; with
	// stride 10 over a 3-instruction body the anchor lands there.
	if len(prof.Anchors) != 1 || prof.Anchors[0] != 1 {
		t.Errorf("Anchors = %v, want [1]", prof.Anchors)
	}
}

func TestAnchorStrideScales(t *testing.T) {
	p := asm.MustAssemble(loopSrc)
	small, err := Collect(p, Options{Stride: 3})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Collect(p, Options{Stride: 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Anchors) > len(small.Anchors) {
		t.Errorf("larger stride should not produce more anchors: %v vs %v", big.Anchors, small.Anchors)
	}
	if big.Stride != 250 || small.Stride != 3 {
		t.Error("Stride not recorded")
	}
}

func TestMaxStepsBoundsRun(t *testing.T) {
	p := asm.MustAssemble("spin: j spin\nhalt")
	prof, err := Collect(p, Options{Stride: 10, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	if prof.Halted || prof.Total != 500 {
		t.Errorf("bounded run: halted=%v total=%d", prof.Halted, prof.Total)
	}
}

func TestCollectRejectsZeroStride(t *testing.T) {
	p := asm.MustAssemble("halt")
	if _, err := Collect(p, Options{}); err == nil {
		t.Error("zero stride accepted")
	}
}

func TestBiasUnknownBranch(t *testing.T) {
	p := asm.MustAssemble("halt")
	prof, err := Collect(p, Options{Stride: 10})
	if err != nil {
		t.Fatal(err)
	}
	if f, n := prof.Bias(12345); f != 0 || n != 0 {
		t.Error("Bias of never-executed branch should be 0,0")
	}
}
