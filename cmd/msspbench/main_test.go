package main

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestRunRequiresLabel pins that msspbench refuses to run without -label,
// before it measures or writes anything: with a default label, a run meant
// as a smoke test replaced the tracked baseline's points under that label.
func TestRunRequiresLabel(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run(true, "BENCH_core.json", out, ""); !errors.Is(err, errNoLabel) {
		t.Fatalf("run without a label = %v, want errNoLabel", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("run without a label wrote %s (stat: %v)", out, err)
	}
}
