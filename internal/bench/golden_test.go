package bench

import (
	"os"
	"runtime"
	"strings"
	"testing"

	"mssp/internal/workloads"
)

// TestExperimentsGolden re-renders every experiment at Ref scale and asserts
// the output is byte-identical to the checked-in experiments_output.txt.
// Determinism is the contract the fast-path execution core must keep: a
// drifted cycle count means the predecoded/devirtualized interpreter changed
// semantics, not just speed.
//
// The full Ref-scale suite takes minutes, so the test is opt-in via
// MSSP_GOLDEN=1; CI's bench-smoke job runs it without the race detector.
func TestExperimentsGolden(t *testing.T) {
	if os.Getenv("MSSP_GOLDEN") == "" {
		t.Skip("set MSSP_GOLDEN=1 to run the full Ref-scale golden comparison (takes minutes)")
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	ctx := NewContext(workloads.Ref)
	ctx.Workers = runtime.GOMAXPROCS(0)
	got, err := RunAll(ctx)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("experiments output diverges from experiments_output.txt at line %d:\n got: %q\nwant: %q",
				i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("experiments output length differs: got %d lines, want %d", len(gl), len(wl))
}
