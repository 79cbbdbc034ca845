package cpu

import (
	"testing"

	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// Benchmarks for the execution core. The slow/fast sub-benchmark pairs keep
// the interface-dispatch cost visible next to the devirtualized loops;
// cmd/msspbench runs these same loops to produce BENCH_core.json.

// BenchmarkStep measures one dynamic instruction through each single-step
// entry point: the slow Env path (fetch+decode per step) and a predecoded
// Code runner over the same Env.
func BenchmarkStep(b *testing.B) {
	p := tightLoopProgram(b, 1)
	b.Run("slow", func(b *testing.B) {
		s := state.NewFromProgram(p, 1<<28)
		env := StateEnv{S: s}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.PC = 1 // stay on the addi
			if _, err := Step(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("predecoded", func(b *testing.B) {
		s := state.NewFromProgram(p, 1<<28)
		env := StateEnv{S: s}
		c := NewCode(isa.Predecode(p))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.PC = 1
			if _, err := c.Step(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// runBench times a full bounded run of prog per iteration and reports ns per
// dynamic instruction. The state is built once and re-entered at prog.Entry
// each iteration (after one untimed warm run to fault in pages), so the
// metric is the steady-state cost of the run loop itself — state
// construction used to be timed too, and its page allocations plus the GC
// pressure they create both inflated the number (~0.8 ns/inst at this loop
// length) and made it noisy (see docs/PERFORMANCE.md). Re-entry is only
// sound for programs whose dynamic behavior does not depend on the data a
// previous run mutated; timeRuns enforces that the step count is
// reproducible, which every micro loop here satisfies. Programs that are
// not rerun-safe use runFromInitial.
func runBench(b *testing.B, prog *isa.Program, run func(s *state.State) (RunResult, error)) {
	b.Helper()
	s := state.NewFromProgram(prog, 1<<28)
	timeRuns(b, s, run, func() { s.PC = prog.Entry })
}

// runFromInitial is runBench for programs whose behavior depends on the
// memory and registers a previous run left (every experiment workload):
// before each iteration, with the timer stopped, it restores the registers,
// the PC and every memory word that differs from the program's initial
// image. The restore writes only pages the warm run already owns, so the
// timed region still allocates nothing.
func runFromInitial(b *testing.B, prog *isa.Program, run func(s *state.State) (RunResult, error)) {
	b.Helper()
	pristine := state.NewFromProgram(prog, 1<<28)
	s := &state.State{Regs: pristine.Regs, PC: pristine.PC, Mem: pristine.Mem.Snapshot()}
	var addrs, vals []uint64
	timeRuns(b, s, run, func() {
		b.StopTimer()
		addrs, vals = addrs[:0], vals[:0]
		s.Mem.Diff(pristine.Mem, func(a, _, v uint64) {
			addrs = append(addrs, a)
			vals = append(vals, v)
		})
		for i, a := range addrs {
			s.Mem.Write(a, vals[i])
		}
		s.Regs, s.PC = pristine.Regs, pristine.PC
		b.StartTimer()
	})
}

// timeRuns runs s once untimed, then b.N timed times with rerun preparing s
// before each, and fails if a timed run's step count differs from the
// first's.
func timeRuns(b *testing.B, s *state.State, run func(s *state.State) (RunResult, error), rerun func()) {
	b.Helper()
	first, err := run(s)
	if err != nil {
		b.Fatal(err)
	}
	if !first.Halted {
		b.Fatal("program did not halt")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rerun()
		res, err := run(s)
		if err != nil {
			b.Fatal(err)
		}
		if res.Steps != first.Steps || !res.Halted {
			b.Fatalf("rerun diverged: %d steps (halted=%v), first run %d — program not rerun-safe",
				res.Steps, res.Halted, first.Steps)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(first.Steps), "ns/inst")
}

// BenchmarkRunTight is the pure-ALU loop (3002 dynamic instructions) through
// each run loop.
func BenchmarkRunTight(b *testing.B) {
	p := tightLoopProgram(b, 1000)
	b.Run("slow", func(b *testing.B) {
		runBench(b, p, func(s *state.State) (RunResult, error) { return Run(StateEnv{S: s}, 1_000_000) })
	})
	b.Run("devirt", func(b *testing.B) {
		runBench(b, p, func(s *state.State) (RunResult, error) { return NewCode(nil).RunState(s, 1_000_000) })
	})
	b.Run("predecoded", func(b *testing.B) {
		d := isa.Predecode(p)
		runBench(b, p, func(s *state.State) (RunResult, error) { return NewCode(d).RunState(s, 1_000_000) })
	})
	b.Run("fused", func(b *testing.B) {
		d := fuse.Predecode(p, fuse.Options{})
		runBench(b, p, func(s *state.State) (RunResult, error) { return NewCode(d).RunState(s, 1_000_000) })
	})
}

// BenchmarkRunMem adds a load/store pair per iteration (6003 dynamic
// instructions), exercising the memory page caches.
func BenchmarkRunMem(b *testing.B) {
	p := memLoopProgram(b, 1000)
	b.Run("slow", func(b *testing.B) {
		runBench(b, p, func(s *state.State) (RunResult, error) { return Run(StateEnv{S: s}, 1_000_000) })
	})
	b.Run("devirt", func(b *testing.B) {
		runBench(b, p, func(s *state.State) (RunResult, error) { return NewCode(nil).RunState(s, 1_000_000) })
	})
	b.Run("predecoded", func(b *testing.B) {
		d := isa.Predecode(p)
		runBench(b, p, func(s *state.State) (RunResult, error) { return NewCode(d).RunState(s, 1_000_000) })
	})
	b.Run("fused", func(b *testing.B) {
		d := fuse.Predecode(p, fuse.Options{})
		runBench(b, p, func(s *state.State) (RunResult, error) { return NewCode(d).RunState(s, 1_000_000) })
	})
}

// BenchmarkSeqWorkload runs each experiment workload's train input to
// completion on the predecoded devirtualized loop — the configuration the
// SEQ baseline uses — from the program's initial state every iteration.
func BenchmarkSeqWorkload(b *testing.B) {
	for _, w := range workloads.All() {
		b.Run(w.Name, func(b *testing.B) {
			p := w.Build(workloads.Train)
			d := isa.Predecode(p)
			runFromInitial(b, p, func(s *state.State) (RunResult, error) { return NewCode(d).RunState(s, 50_000_000) })
		})
	}
}

// TestRunLoopZeroAlloc pins the zero-allocation property of the run loops:
// steady-state execution must not allocate (page faults in a fresh memory
// image aside, which is why the state is reused and pre-touched).
func TestRunLoopZeroAlloc(t *testing.T) {
	p := tightLoopProgram(t, 1000)
	d := isa.Predecode(p)
	df := fuse.Predecode(p, fuse.Options{})
	for _, tc := range []struct {
		name string
		run  func(s *state.State) error
	}{
		{"devirt", func(s *state.State) error { _, err := NewCode(nil).RunState(s, 1_000_000); return err }},
		{"predecoded", func(s *state.State) error { _, err := NewCode(d).RunState(s, 1_000_000); return err }},
		{"fused", func(s *state.State) error { _, err := NewCode(df).RunState(s, 1_000_000); return err }},
		{"slow-env", func(s *state.State) error { _, err := Run(StateEnv{S: s}, 1_000_000); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := state.NewFromProgram(p, 1<<28)
			if err := tc.run(s); err != nil { // warm: fault in all pages
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				s.PC = p.Entry
				if err := tc.run(s); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("run loop allocates: %v allocs/op, want 0", allocs)
			}
		})
	}
}
