package mssp

import (
	"strings"
	"testing"
)

const facadeSrc = `
	.entry main
	main:   ldi  r1, 2048
	        ldi  r4, 0
	loop:   andi r2, r1, 255
	        bnez r2, common
	rare:   ldi  r7, 100
	spin:   addi r4, r4, 3
	        addi r7, r7, -1
	        bnez r7, spin
	common: addi r4, r4, 1
	        andi r4, r4, 0xffff
	        addi r1, r1, -1
	        bnez r1, loop
	        la   r3, out
	        st   r4, 0(r3)
	        halt
	.data
	.org 100000
	out:    .space 1
`

func TestFacadePipeline(t *testing.T) {
	prog, err := Assemble(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := Prepare(prog, DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	if pl.Profile == nil || pl.Distilled == nil {
		t.Fatal("pipeline incomplete")
	}
	res, err := pl.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup() <= 0 {
		t.Errorf("speedup = %v", res.Speedup())
	}
	if res.MSSP.Metrics.TasksCommitted == 0 {
		t.Error("no tasks committed")
	}
	out := prog.MustSymbol("out")
	if res.MSSP.Final.Mem.Read(out) != res.Baseline.Final.Mem.Read(out) {
		t.Error("result mismatch")
	}
}

func TestFacadeAudit(t *testing.T) {
	pl, err := Prepare(MustAssemble(facadeSrc), DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := pl.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK {
		t.Fatalf("refinement violated: %v", rep.FirstViolation())
	}
}

func TestFacadeDefaults(t *testing.T) {
	cfg := DefaultMachineConfig()
	if cfg.Slaves != 7 {
		t.Error("default machine should be 8 CPUs")
	}
	d := DefaultDistillOptions()
	if d.BiasThreshold != 0.99 {
		t.Error("default threshold wrong")
	}
	opts := DefaultPipelineOptions()
	if opts.Stride != 100 {
		t.Error("default stride wrong")
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Assemble("bogus"); err == nil {
		t.Error("bad assembly accepted")
	}
	prog := MustAssemble("halt")
	bad := DefaultPipelineOptions()
	bad.Distill.BiasThreshold = 0.2
	if _, err := Prepare(prog, bad); err == nil || !strings.Contains(err.Error(), "mssp:") {
		t.Errorf("bad distill options: %v", err)
	}
	pl, err := Prepare(prog, DefaultPipelineOptions())
	if err != nil {
		t.Fatal(err)
	}
	pl.Opts.Machine.Slaves = 0
	if _, err := pl.Run(); err == nil {
		t.Error("bad machine config accepted")
	}
}
