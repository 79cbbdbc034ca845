package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mssp/internal/workloads"
)

// TestParallelMatchesSerial is the equivalence guarantee of the concurrent
// harness: for the experiments the acceptance criteria name (E3 table, E4
// processor-count sweep, E5 task-size sweep), a 4-worker run must render
// byte-identical output to a 1-worker run, because fanOut merges results
// in index order regardless of completion order.
func TestParallelMatchesSerial(t *testing.T) {
	serial := quickCtx()
	serial.Workers = 1
	parallel := quickCtx()
	parallel.Workers = 4

	for _, id := range []string{"E3", "E4", "E5"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(id, func(t *testing.T) {
			want, err := e.Run(serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			got, err := e.Run(parallel)
			if err != nil {
				t.Fatalf("parallel: %v", err)
			}
			if got != want {
				t.Errorf("parallel output differs from serial.\nserial:\n%s\nparallel:\n%s", want, got)
			}
		})
	}
}

// TestParallelSingleFlight checks that a parallel sweep computes each
// shared artifact once: after E4 (whose 8 grid cells over 2 workloads all
// need the same 2 distillations), the distillation cache must show misses
// equal to distinct artifacts, with everything else hits or single-flight
// waits.
func TestParallelSingleFlight(t *testing.T) {
	c := quickCtx()
	c.Workers = 8

	e, err := ByID("E4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(c); err != nil {
		t.Fatal(err)
	}
	m := c.CacheMetrics()
	if got := m["distillations"].Misses; got != 2 {
		t.Errorf("distillation computes = %d, want 2 (one per workload)", got)
	}
	if got := m["baselines"].Misses; got != 2 {
		t.Errorf("baseline computes = %d, want 2", got)
	}
	if reused := m["distillations"].Hits + m["distillations"].Shared; reused != 6 {
		t.Errorf("distillation reuse (hits+shared) = %d, want 6 of 8 grid points", reused)
	}
}

// TestFanOutOrderedAssembly: results land in index order even when
// completion order is roughly reversed.
func TestFanOutOrderedAssembly(t *testing.T) {
	c := &Context{Workers: 4}
	const n = 32
	out, err := fanOut(c, n, func(i int) (string, error) {
		// Earlier indices sleep longer, so completion order is roughly
		// reversed from index order.
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return fmt.Sprintf("point-%02d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if want := fmt.Sprintf("point-%02d", i); v != want {
			t.Fatalf("out[%d] = %q, want %q", i, v, want)
		}
	}
}

// TestFanOutFirstErrorWins: the lowest-index real failure is reported,
// even when a higher index fails first, and never the cancellation that
// the failure ripples into the points not yet started, which never run.
func TestFanOutFirstErrorWins(t *testing.T) {
	c := &Context{Workers: 4}
	errLow := errors.New("failure at index 2")
	errHigh := errors.New("failure at index 3")
	started, failing := make(chan struct{}), make(chan struct{})
	_, err := fanOut(c, 12, func(i int) (int, error) {
		switch i {
		case 2:
			close(started)
			<-failing // index 3 fails first
			return 0, errLow
		case 3:
			<-started // index 2 is running, so no cancellation can skip it
			close(failing)
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-index failure %v", err, errLow)
	}

	// One worker: the failure stops every point after it.
	var ran atomic.Int64
	_, err = fanOut(&Context{Workers: 1}, 8, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errLow
		}
		return i, nil
	})
	if !errors.Is(err, errLow) || ran.Load() != 3 {
		t.Fatalf("err = %v after %d points, want %v after 3", err, ran.Load(), errLow)
	}

	// A lower index that reports the cancellation rippling from a later
	// failure does not hide that failure.
	started, failing = make(chan struct{}), make(chan struct{})
	_, err = fanOut(c, 4, func(i int) (int, error) {
		switch i {
		case 1:
			close(started)
			<-failing
			return 0, fmt.Errorf("point 1: %w", context.Canceled)
		case 3:
			<-started
			close(failing)
			return 0, errHigh
		}
		return i, nil
	})
	if !errors.Is(err, errHigh) {
		t.Fatalf("err = %v, want the cause %v, not the cancellation", err, errHigh)
	}
}

// TestFanOutCancellationMidSweep: ending Context.Ctx while a point runs
// stops every point not yet started and reports the cancellation.
func TestFanOutCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Context{Workers: 1, Ctx: ctx}
	var ran atomic.Int64
	done := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		_, err := fanOut(c, 16, func(i int) (int, error) {
			ran.Add(1)
			if i == 0 {
				close(started)
				<-ctx.Done() // a cooperative point observes cancellation
				return 0, ctx.Err()
			}
			return i, nil
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 1 {
		t.Errorf("%d points ran, want 1 (the rest must not start after cancellation)", got)
	}

	// A context that has already ended starts nothing.
	ran.Store(0)
	if _, err := fanOut(c, 4, func(i int) (int, error) { ran.Add(1); return i, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled before start: err = %v", err)
	}
	if got := ran.Load(); got != 0 {
		t.Errorf("%d points ran on an ended context, want 0", got)
	}
}

// TestFanOutPanicBecomesError: a panicking point fails the sweep with an
// error naming the panic instead of crashing the process.
func TestFanOutPanicBecomesError(t *testing.T) {
	_, err := fanOut(&Context{Workers: 2}, 8, func(i int) (int, error) {
		if i == 3 {
			panic("boom")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "sweep point 3 panicked: boom") {
		t.Fatalf("err = %v, want the panic of point 3 as an error", err)
	}
}

// TestFanOutPanicKeepsOrderedAssembly: the points before a panicking one
// keep their own slots, and no later result lands in the wrong slot.
func TestFanOutPanicKeepsOrderedAssembly(t *testing.T) {
	c := &Context{Workers: 4}
	const n, panicIdx = 24, 7
	var before sync.WaitGroup
	before.Add(panicIdx)
	out, err := fanOut(c, n, func(i int) (string, error) {
		switch {
		case i < panicIdx:
			defer before.Done()
		case i == panicIdx:
			before.Wait() // let 0..panicIdx-1 finish first
			panic("poisoned point")
		}
		return fmt.Sprintf("point-%02d", i), nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked: poisoned point") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	for i := 0; i < panicIdx; i++ {
		if want := fmt.Sprintf("point-%02d", i); out[i] != want {
			t.Fatalf("out[%d] = %q, want %q — panic poisoned in-order assembly", i, out[i], want)
		}
	}
	// Later indices either completed (kept their own slot) or were stopped
	// by the failure (zero value); a value in the wrong slot is the bug.
	for i := panicIdx; i < n; i++ {
		if want := fmt.Sprintf("point-%02d", i); out[i] != "" && out[i] != want {
			t.Fatalf("out[%d] = %q, want %q or empty", i, out[i], want)
		}
	}
}

// TestFanOutPanicIsolation: the panic error carries the panic value and
// its stack, and the same context runs the next sweep normally.
func TestFanOutPanicIsolation(t *testing.T) {
	c := &Context{Workers: 2}
	_, err := fanOut(c, 1, func(int) (string, error) { panic("simulated machine exploded") })
	if err == nil || !strings.Contains(err.Error(), "panicked: simulated machine exploded") {
		t.Fatalf("err = %v, want the panic as an error", err)
	}
	if !strings.Contains(err.Error(), "goroutine ") {
		t.Errorf("panic error lacks the stack: %v", err)
	}
	out, err := fanOut(c, 4, func(i int) (string, error) { return "ok", nil })
	if err != nil {
		t.Fatalf("sweep after a panic: %v", err)
	}
	for i, v := range out {
		if v != "ok" {
			t.Fatalf("out[%d] = %q after a panic, want ok", i, v)
		}
	}
}

// TestFanOutWorkerCounts: negative, zero and one worker run the points
// one at a time, and no count runs more points at once than it names or
// than there are points.
func TestFanOutWorkerCounts(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name    string
		workers int
		limit   int
	}{
		{"negative", -3, 1},
		{"zero", 0, 1},
		{"one", 1, 1},
		{"three", 3, 3},
		{"more-than-n", 64, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			running, peak := 0, 0
			out, err := fanOut(&Context{Workers: tc.workers}, n, func(i int) (int, error) {
				mu.Lock()
				running++
				peak = max(peak, running)
				mu.Unlock()
				time.Sleep(2 * time.Millisecond)
				mu.Lock()
				running--
				mu.Unlock()
				return i * i, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
				}
			}
			if peak > tc.limit {
				t.Errorf("%d points ran at once, want at most %d", peak, tc.limit)
			}
		})
	}
}

// benchHarness runs the E3+E4+E5 slice of the harness from a cold context,
// which is the wall-clock shape cmd/experiments has: many independent
// (workload × config) simulation jobs with heavy shared-artifact reuse.
func benchHarness(b *testing.B, workers int) {
	names := []string{"bitops", "compress", "graphwalk", "mtf"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(workloads.Train)
		c.Names = names
		c.Workers = workers
		for _, id := range []string{"E3", "E4", "E5"} {
			e, err := ByID(id)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.Run(c); err != nil {
				b.Fatal(err)
			}
		}
		if i == b.N-1 {
			var agg, total uint64
			for _, m := range c.CacheMetrics() {
				agg += m.Hits
				total += m.Hits + m.Misses
			}
			if total > 0 {
				b.ReportMetric(float64(agg)/float64(total), "cache-hit-rate")
			}
		}
	}
}

func BenchmarkHarnessSerial(b *testing.B)   { benchHarness(b, 1) }
func BenchmarkHarnessParallel(b *testing.B) { benchHarness(b, runtime.GOMAXPROCS(0)) }
