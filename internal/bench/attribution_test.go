package bench

import (
	"math"
	"strings"
	"testing"

	"mssp/internal/core"
	"mssp/internal/workloads"
)

func TestAttributionFractions(t *testing.T) {
	a := Attribution{Master: 10, Slave: 30, Commit: 40, Recovery: 20}
	if a.Total() != 100 {
		t.Fatalf("Total = %v, want 100", a.Total())
	}
	fm, fs, fc, fr := a.Fractions()
	if fm != 0.1 || fs != 0.3 || fc != 0.4 || fr != 0.2 {
		t.Errorf("fractions = %v %v %v %v", fm, fs, fc, fr)
	}
	if sum := fm + fs + fc + fr; math.Abs(sum-1) > 1e-12 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
	s := a.String()
	for _, want := range []string{"master-bound 10.0%", "slave-bound 30.0%", "commit-bound 40.0%", "recovery 20.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestAttributionZeroTotal(t *testing.T) {
	var a Attribution
	fm, fs, fc, fr := a.Fractions()
	if fm != 0 || fs != 0 || fc != 0 || fr != 0 {
		t.Errorf("zero attribution fractions = %v %v %v %v, want zeros", fm, fs, fc, fr)
	}
	if !strings.Contains(a.String(), "master-bound 0.0%") {
		t.Errorf("String() = %q", a.String())
	}
}

// TestAttributeFromRun: a real run's attribution comes straight from the
// metrics' *BoundCycles counters, and the Instrument hook fires for it.
func TestAttributeFromRun(t *testing.T) {
	ctx := NewContext(workloads.Train)
	instrumented := 0
	ctx.Instrument = func(label string, cfg *core.Config) {
		if label == "" {
			t.Error("Instrument called with empty label")
		}
		if cfg == nil {
			t.Fatal("Instrument called with nil config")
		}
		instrumented++
	}
	w := ctx.Workloads()[0]
	res, _, err := ctx.RunDefault(w)
	if err != nil {
		t.Fatal(err)
	}
	if instrumented == 0 {
		t.Error("Instrument hook never fired")
	}
	m := res.Metrics
	a := Attribute(m)
	if a.Master != m.MasterBoundCycles || a.Slave != m.SlaveBoundCycles ||
		a.Commit != m.CommitBoundCycles || a.Recovery != m.RecoveryCycles {
		t.Errorf("Attribute(%+v) = %+v", m, a)
	}
	if a.Total() <= 0 {
		t.Error("run attributed no cycles")
	}
	fm, fs, fc, fr := a.Fractions()
	if sum := fm + fs + fc + fr; math.Abs(sum-1) > 1e-9 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}
