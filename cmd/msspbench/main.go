// Command msspbench measures the execution core and maintains the tracked
// benchmark baseline in BENCH_core.json. It runs the interpreter and memory
// micro-benchmarks (the same programs as the internal/cpu and internal/mem
// benchmark suites, via internal/workloads), wall-clocks the E3/E4
// experiments, and measures chaos-harness soak throughput, then upserts one
// labeled point per metric into the JSON history so before/after numbers
// live next to each other in the repo.
//
// Usage:
//
//	msspbench -label NAME [-quick] [-in BENCH_core.json] [-out BENCH_core.json]
//
// -label is required: it names the history point every measurement
// upserts, so a run under a label already in the file replaces that
// label's points. -quick runs the experiment smoke at Train scale and a
// short soak, and skips the Ref-scale wall-clock entry; it is the CI
// bench-smoke mode, which writes to its own -out file. The
// tool exits non-zero if the run-loop allocates or if the fast and slow
// interpreters disagree, so every baseline refresh re-proves the fast-path
// contract before recording numbers. docs/PERFORMANCE.md explains how to
// read the output file.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"mssp"
	"mssp/internal/bench"
	"mssp/internal/chaos"
	"mssp/internal/cpu"
	"mssp/internal/fuse"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/parallel"
	"mssp/internal/state"
	"mssp/internal/task"
	"mssp/internal/workloads"
)

// benchSchema identifies the tracked-baseline file format.
const benchSchema = "mssp-bench/v1"

type histPoint struct {
	Label string  `json:"label"`
	Value float64 `json:"value"`
}

type benchEntry struct {
	Name string `json:"name"`
	// Unit is the metric's unit; lower is better for ns units, higher is
	// better for rates (seeds/s).
	Unit    string      `json:"unit"`
	History []histPoint `json:"history"`
}

type benchFile struct {
	Schema  string       `json:"schema"`
	Entries []benchEntry `json:"entries"`
}

func main() {
	quick := flag.Bool("quick", false, "smoke mode: Train-scale experiments, short soak, no Ref wall-clock entry")
	in := flag.String("in", "BENCH_core.json", "existing baseline file to merge into (missing file starts fresh)")
	out := flag.String("out", "BENCH_core.json", "output file")
	label := flag.String("label", "", "history label for this run's measurements (required; replaces that label's points in -out)")
	flag.Parse()

	if err := run(*quick, *in, *out, *label); err != nil {
		fmt.Fprintln(os.Stderr, "msspbench:", err)
		if errors.Is(err, errNoLabel) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errNoLabel is run's refusal to start without -label. A default label
// would silently replace the points of whichever run recorded it first.
var errNoLabel = errors.New("-label is required: it names the history points this run writes")

func run(quick bool, in, out, label string) error {
	if label == "" {
		return errNoLabel
	}
	// Re-prove the fast-path contract before recording any numbers.
	if err := checkZeroAlloc(); err != nil {
		return err
	}
	if err := checkEquivalence(); err != nil {
		return err
	}
	fmt.Println("fast-path checks: zero-alloc ok, fast/slow equivalence ok")

	var results []struct {
		name  string
		unit  string
		value float64
	}
	record := func(name, unit string, value float64) {
		fmt.Printf("%-24s %10.3f %s\n", name, value, unit)
		results = append(results, struct {
			name  string
			unit  string
			value float64
		}{name, unit, value})
	}

	record("cpu/step", "ns/op", benchStep())
	// cpu/run_tight and cpu/run_mem track the production fast path, which
	// since the "fuse" label dispatches superinstructions (internal/fuse).
	record("cpu/run_tight", "ns/inst", benchRun(workloads.MicroTight(1000),
		cpu.NewCode(fuse.Predecode(workloads.MicroTight(1000), fuse.Options{})).RunState))
	record("cpu/run_mem", "ns/inst", benchRun(workloads.MicroMem(1000),
		cpu.NewCode(fuse.Predecode(workloads.MicroMem(1000), fuse.Options{})).RunState))
	record("mem/read_hit", "ns/op", benchReadHit())
	record("mem/write_hit", "ns/op", benchWriteHit())
	record("mem/snapshot_churn", "ns/op", benchSnapshotChurn(16))
	record("mem/snapshot_churn_4096", "ns/op", benchSnapshotChurn(4096))
	record("mem/equal_shared", "ns/op", benchEqualShared())
	record("mem/overlay_setget", "ns/op", benchOverlaySetGet())
	record("parallel/commit_ns", "ns/op", benchCommitCycle())

	seeds := 300
	if quick {
		seeds = 40
	}
	rate, err := soak(seeds)
	if err != nil {
		return err
	}
	record("chaos/soak", "seeds/s", rate)

	f, err := load(in)
	if err != nil {
		return err
	}
	if err := parallelSpeedups(quick, f, record); err != nil {
		return err
	}

	wall, err := experimentsWall(quick)
	if err != nil {
		return err
	}
	if quick {
		fmt.Printf("%-24s %10.3f s (Train-scale smoke, not recorded)\n", "exp/e3_e4_wall", wall)
	} else {
		record("exp/e3_e4_wall", "s", wall)
	}

	for _, r := range results {
		upsert(f, r.name, r.unit, label, r.value)
	}

	// Distillation quality is an ablation pair, not a before/after history:
	// the same run records both labels, so the entry always shows what the
	// analysis pass buys on the current tree.
	dq, err := distillQuality()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %10.0f insts (nopass) %10.0f insts (analysis)\n",
		"distill/static_insts", dq.staticOff, dq.staticOn)
	fmt.Printf("%-24s %10.0f insts (nopass) %10.0f insts (analysis)\n",
		"distill/master_insts", dq.masterOff, dq.masterOn)
	upsert(f, "distill/static_insts", "insts", "nopass", dq.staticOff)
	upsert(f, "distill/static_insts", "insts", "analysis", dq.staticOn)
	upsert(f, "distill/master_insts", "insts", "nopass", dq.masterOff)
	upsert(f, "distill/master_insts", "insts", "analysis", dq.masterOn)

	// Master checkpoint construction: a diff/journal ablation pair
	// (same run, fixed labels, like distill/*), cross-checked before timing.
	ckDiff, ckJournal, err := ckptBuildBench()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %10.3f ns (diff) %10.3f ns (journal) per fork\n",
		"mem/ckpt_build", ckDiff, ckJournal)
	upsert(f, "mem/ckpt_build", "ns/fork", "diff", ckDiff)
	upsert(f, "mem/ckpt_build", "ns/fork", "journal", ckJournal)

	// Task-machinery premium: an unpooled/pooled ablation pair (same run,
	// fixed labels, like distill/*), plus the alloc gate — a pooled task
	// execution must stay allocation-free, and the pool must keep at least a
	// 2x per-task alloc reduction over the unpooled path.
	tp, err := taskPoolBench()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %10.3f ns (unpooled) %10.3f ns (pooled)\n",
		"task/fork_ns", tp.forkUnpooled, tp.forkPooled)
	fmt.Printf("%-24s %10.0f allocs (unpooled) %7.0f allocs (pooled)\n",
		"task/delta_allocs", tp.allocsUnpooled, tp.allocsPooled)
	if tp.allocsPooled != 0 || tp.allocsPooled*2 > tp.allocsUnpooled {
		return fmt.Errorf("task pool alloc regression: pooled %v allocs/task vs unpooled %v (want 0 pooled and ≥2x reduction)",
			tp.allocsPooled, tp.allocsUnpooled)
	}
	upsert(f, "task/fork_ns", "ns/task", "unpooled", tp.forkUnpooled)
	upsert(f, "task/fork_ns", "ns/task", "pooled", tp.forkPooled)
	upsert(f, "task/delta_allocs", "allocs/task", "unpooled", tp.allocsUnpooled)
	upsert(f, "task/delta_allocs", "allocs/task", "pooled", tp.allocsPooled)

	// Superinstruction dispatch: a fused/unfused ablation on the
	// micro workloads (same run, fixed labels, like distill/*) plus the
	// dynamic fused-retirement ratio, gated so fusion can never regress
	// below single-instruction dispatch while still being recorded. Every
	// instruction of the micro loops' bodies belongs to a fused group
	// (one alu+alu+br per tight iteration, an ld+op+st and an alu+alu+br
	// per memory iteration), so both ratios read ~1.0.
	fb, err := fusionBench()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %10.3f (unfused) %7.3f (fused) ns/inst\n",
		"cpu/run_tight_fused", fb.tightUnfused, fb.tightFused)
	fmt.Printf("%-24s %10.3f (unfused) %7.3f (fused) ns/inst\n",
		"cpu/run_mem_fused", fb.memUnfused, fb.memFused)
	fmt.Printf("%-24s %10.4f (tight) %8.4f (mem)\n", "dispatch/fused_ratio", fb.ratioTight, fb.ratioMem)
	if fb.tightFused > fb.tightUnfused || fb.memFused > fb.memUnfused {
		return fmt.Errorf("fusion regression: fused dispatch slower than unfused (tight %.3f vs %.3f, mem %.3f vs %.3f ns/inst)",
			fb.tightFused, fb.tightUnfused, fb.memFused, fb.memUnfused)
	}
	upsert(f, "cpu/run_tight_fused", "ns/inst", "unfused", fb.tightUnfused)
	upsert(f, "cpu/run_tight_fused", "ns/inst", "fused", fb.tightFused)
	upsert(f, "cpu/run_mem_fused", "ns/inst", "unfused", fb.memUnfused)
	upsert(f, "cpu/run_mem_fused", "ns/inst", "fused", fb.memFused)
	upsert(f, "dispatch/fused_ratio", "fraction", "tight", fb.ratioTight)
	upsert(f, "dispatch/fused_ratio", "fraction", "mem", fb.ratioMem)

	// Static taint-rule cost (docs/SECURITY.md): the security soak runs
	// vet.CheckTaint once per seed, so its cost is gated by an absolute
	// tripwire rather than a label-to-label comparison.
	tn, err := taintBench()
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %10.0f ns/program\n", "vet/taint_ns", tn)
	if tn > taintNsBudget {
		return fmt.Errorf("taint rule regression: CheckTaint costs %.0f ns/program, budget %.0f", tn, taintNsBudget)
	}
	upsert(f, "vet/taint_ns", "ns/program", label, tn)

	reportSpeedups(f, label)
	return save(out, f)
}

// nsPerOp is testing.BenchmarkResult.NsPerOp with fractional precision,
// needed for the sub-nanosecond cached-read path.
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// benchStep measures one Step through the Env interface, which fetches and
// decodes from memory: the reference executions' path.
func benchStep() float64 {
	p := workloads.MicroTight(1)
	s := state.NewFromProgram(p, 1<<28)
	env := cpu.StateEnv{S: s}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.PC = 1
			if _, err := cpu.Step(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	return nsPerOp(r)
}

// benchRun measures a full run over a prebuilt dispatcher, in ns per dynamic
// instruction. The state is built once and re-entered by resetting PC — the
// steady-state harness from internal/cpu's runBench; timing fresh-state
// construction per iteration added ~1 ns/inst of page-allocation and GC
// noise and caused the cpu/run_tight drift the "dispatchfix" label records
// the recovery from (docs/PERFORMANCE.md). The rerun assertion keeps the
// harness honest: every iteration must retire the same instruction count.
func benchRun(p *isa.Program, run func(s *state.State, max uint64) (cpu.RunResult, error)) float64 {
	s := state.NewFromProgram(p, 1<<28)
	first, err := run(s, 1_000_000)
	if err != nil {
		panic(err)
	}
	if !first.Halted {
		panic("benchRun: program did not halt")
	}
	// Best of three, like parallelSpeedups: one in-process testing.Benchmark
	// after the soak and experiment phases sees enough GC and scheduler noise
	// to swing the number by >10%.
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.PC = p.Entry
				res, err := run(s, 1_000_000)
				if err != nil {
					b.Fatal(err)
				}
				if res.Steps != first.Steps || !res.Halted {
					b.Fatalf("rerun diverged: %d steps, first %d — program not rerun-safe", res.Steps, first.Steps)
				}
			}
		})
		if ns := nsPerOp(r); rep == 0 || ns < best {
			best = ns
		}
	}
	return best / float64(first.Steps)
}

func benchReadHit() float64 {
	m := mem.New()
	m.Write(4096, 7)
	mask := uint64(mem.PageWords - 1)
	r := testing.Benchmark(func(b *testing.B) {
		var sink uint64
		for i := 0; i < b.N; i++ {
			sink += m.Read(4096 + (uint64(i) & mask))
		}
		_ = sink
	})
	return nsPerOp(r)
}

func benchWriteHit() float64 {
	m := mem.New()
	m.Write(4096, 7)
	mask := uint64(mem.PageWords - 1)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Write(4096+(uint64(i)&mask), uint64(i))
		}
	})
	return nsPerOp(r)
}

// benchSnapshotChurn snapshots an image of the given number of populated
// pages and writes the snapshot once; snapshots are O(1), so the cost must
// not grow with pages.
func benchSnapshotChurn(pages uint64) float64 {
	m := mem.New()
	for pn := uint64(0); pn < pages; pn++ {
		m.Write(pn*mem.PageWords, pn+1)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap := m.Snapshot()
			snap.Write(0, uint64(i))
		}
	})
	return nsPerOp(r)
}

// The master-shaped image of mem/ckpt_build: heap pages low in the address
// space and a stack page just below 1<<28, four trie levels deep, as in the
// machine's states.
const (
	ckptHeap      = 1 << 20
	ckptHeapPages = 4096
	ckptStack     = 1<<28 - 1
)

// ckptMaster replays the master's checkpoint construction on a
// synthetic fork interval, built either from a page journal or, as before
// the journal, by diffing against a snapshot taken at the previous fork.
type ckptMaster struct {
	m, base *mem.Memory // base is nil on the journal path
	j       mem.Journal
	cum     *mem.Overlay
	n, rng  uint64
	words   int // NewDiffWords summed over all forks
}

func newCkptMaster(journal bool) *ckptMaster {
	arch := mem.New()
	for pn := uint64(0); pn < ckptHeapPages; pn++ {
		arch.Write(ckptHeap+pn*mem.PageWords, pn+1)
	}
	arch.Write(ckptStack, 1)
	// The master runs on a snapshot of the architected image, as after a
	// reseed.
	c := &ckptMaster{m: arch.Snapshot(), cum: mem.NewOverlay(), rng: 1}
	if journal {
		c.j.Attach(c.m)
	} else {
		c.base = c.m.Snapshot()
	}
	return c
}

// fork runs one interval and builds its checkpoint diff: four stores to the
// stack page and one to each of 5 or 6 scattered heap pages (the par-heavy
// masters write ~5.5 pages per fork on average), then the fold of the
// changed words into the cumulative overlay and the overlay's snapshot.
func (c *ckptMaster) fork() *mem.Overlay {
	c.n++
	for w := uint64(0); w < 4; w++ {
		c.m.Write(ckptStack-w, c.n+w)
	}
	for p := uint64(0); p < 5+c.n%2; p++ {
		c.rng = c.rng*6364136223846793005 + 1442695040888963407
		pn := (c.rng >> 33) % ckptHeapPages
		c.m.Write(ckptHeap+pn*mem.PageWords+c.n%mem.PageWords, c.n)
	}
	fold := func(a, v, _ uint64) {
		if _, ok := c.cum.Get(a); !ok {
			c.words++
		}
		c.cum.Set(a, v)
	}
	if c.base == nil {
		c.j.Flush(fold)
	} else {
		c.m.Diff(c.base, fold)
		c.base = c.m.Snapshot()
	}
	return c.cum.Snapshot()
}

// ckptBuildBench measures ns per checkpoint on both paths, after checking
// that they build the same cumulative overlay and diff-word count over a
// run of forks.
func ckptBuildBench() (diff, journal float64, err error) {
	d, j := newCkptMaster(false), newCkptMaster(true)
	for i := 0; i < 2000; i++ {
		d.fork()
		j.fork()
	}
	same := d.words == j.words && d.cum.Len() == j.cum.Len()
	d.cum.Range(func(a, v uint64) bool {
		w, ok := j.cum.Get(a)
		same = same && ok && w == v
		return same
	})
	if !same {
		return 0, 0, fmt.Errorf("mem/ckpt_build: journal checkpoints diverged from diff checkpoints (%d vs %d diff words)",
			j.words, d.words)
	}
	// Best of three alternated rounds, like benchRun: a single in-process
	// testing.Benchmark swings by well over 10% on a shared host.
	var best [2]float64 // diff, journal
	for rep := 0; rep < 3; rep++ {
		for k := range best {
			c := newCkptMaster(k == 1)
			ns := nsPerOp(testing.Benchmark(func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.fork()
				}
			}))
			if rep == 0 || ns < best[k] {
				best[k] = ns
			}
		}
	}
	return best[0], best[1], nil
}

func benchEqualShared() float64 {
	m := mem.New()
	for pn := uint64(0); pn < 16; pn++ {
		m.Write(pn*mem.PageWords, pn+1)
	}
	snap := m.Snapshot()
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !m.Equal(snap) {
				b.Fatal("snapshot differs from parent")
			}
		}
	})
	return nsPerOp(r)
}

func benchOverlaySetGet() float64 {
	o := mem.NewOverlay()
	mask := uint64(mem.PageWords - 1)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := uint64(i) & mask
			o.Set(a, uint64(i))
			if _, ok := o.Get(a); !ok {
				b.Fatal("missing just-written cell")
			}
		}
	})
	return nsPerOp(r)
}

// benchCommitCycle measures one pass of the parallel engine's reservation
// protocol (reserve, close, complete, pop-committed) via the exported
// CommitCycle helper — the engine itself cannot time it (GA001 bans
// wall-clock reads from engine code).
func benchCommitCycle() float64 {
	r := testing.Benchmark(func(b *testing.B) {
		if parallel.CommitCycle(b.N) != b.N {
			b.Fatal("reservation protocol error")
		}
	})
	return nsPerOp(r)
}

// taskPoolResult carries the unpooled/pooled ablation pair for the task
// machinery: wall time and allocations for one complete task life
// (architected snapshot, capture machinery, execution, retirement).
type taskPoolResult struct {
	forkUnpooled, forkPooled     float64
	allocsUnpooled, allocsPooled float64
}

// taskPoolBench measures the per-task machinery premium with and without the
// task pool on a short memory-touching task — short on purpose: the premium
// is per-task overhead, and long tasks would bury it under execution time.
// The pooled result is equivalence-checked against the unpooled one before
// anything is measured, so the recorded numbers can never come from a run
// that computed something different.
func taskPoolBench() (taskPoolResult, error) {
	var res taskPoolResult
	prog := workloads.MicroMem(100)
	arch := state.NewFromProgram(prog, 1<<28)
	code := isa.Predecode(prog)
	ck := task.Checkpoint{Regs: arch.Regs, MemDiff: mem.NewOverlay()}

	runUnpooled := func() *task.Exec {
		t := &task.Task{Start: arch.PC, Checkpoint: ck, Snap: arch.Clone(), Code: code}
		return t.Execute(1_000_000)
	}
	var pool task.Pool
	tk := &task.Task{Start: arch.PC, Checkpoint: ck, Code: code}
	runPooled := func() {
		tk.Snap = pool.CloneState(arch)
		ex := pool.Execute(tk, 1_000_000)
		pool.Release(ex)
		pool.ReleaseState(tk.Snap)
		tk.Snap = nil
	}

	want := runUnpooled()
	tk.Snap = pool.CloneState(arch)
	got := pool.Execute(tk, 1_000_000)
	if got.Outcome != want.Outcome || got.Steps != want.Steps ||
		!got.LiveIn.Equal(want.LiveIn) || !got.LiveOut.Equal(want.LiveOut) {
		return res, fmt.Errorf("task pool: pooled execution diverged from unpooled (%v/%d vs %v/%d)",
			got.Outcome, got.Steps, want.Outcome, want.Steps)
	}
	pool.Release(got)
	pool.ReleaseState(tk.Snap)
	tk.Snap = nil

	ru := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ex := runUnpooled(); ex.Outcome != want.Outcome {
				b.Fatal("unpooled outcome changed")
			}
		}
	})
	res.forkUnpooled = nsPerOp(ru)
	rp := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runPooled()
		}
	})
	res.forkPooled = nsPerOp(rp)

	res.allocsUnpooled = testing.AllocsPerRun(50, func() { _ = runUnpooled() })
	res.allocsPooled = testing.AllocsPerRun(50, runPooled)
	return res, nil
}

// fusionResult carries the superinstruction ablation: ns/inst for
// single-instruction (unfused) and fused-switch dispatch over the same
// predecoded programs, plus the dynamic fused-retirement ratio
// (instructions retired through fused groups / total instructions).
type fusionResult struct {
	tightUnfused, tightFused float64
	memUnfused, memFused     float64
	ratioTight, ratioMem     float64
}

// fusionBench measures the dispatch ablation on the micro workloads. Both
// paths are equivalence-checked against each other by benchRun's rerun
// assertion plus an explicit digest comparison here, so the recorded numbers
// can never come from runs that computed different answers.
func fusionBench() (fusionResult, error) {
	var res fusionResult
	measure := func(p *isa.Program) (unfused, fused, ratio float64, err error) {
		plain := cpu.NewCode(isa.Predecode(p))
		fc := cpu.NewCode(fuse.Predecode(p, fuse.Options{}))

		states := make([]*state.State, 2)
		for i, run := range []func(*state.State, uint64) (cpu.RunResult, error){plain.RunState, fc.RunState} {
			s := state.NewFromProgram(p, 1<<28)
			r, rerr := run(s, 1_000_000)
			if rerr != nil || !r.Halted {
				return 0, 0, 0, fmt.Errorf("fusion bench: dispatcher %d failed (%v, halted=%v)", i, rerr, r.Halted)
			}
			states[i] = s
		}
		if states[0].Digest() != states[1].Digest() {
			return 0, 0, 0, fmt.Errorf("fusion bench: dispatchers diverged (digests %#x %#x)",
				states[0].Digest(), states[1].Digest())
		}

		unfused = benchRun(p, plain.RunState)
		fused = benchRun(p, fc.RunState)

		s := state.NewFromProgram(p, 1<<28)
		stop, serr := cpu.NewCode(fuse.Predecode(p, fuse.Options{})).RunToStop(s, 1_000_000)
		if serr != nil {
			return 0, 0, 0, serr
		}
		if stop.Kind != cpu.StopHalt || stop.Steps == 0 {
			return 0, 0, 0, fmt.Errorf("fusion bench: ratio run stopped %v after %d steps, want halt", stop.Kind, stop.Steps)
		}
		return unfused, fused, float64(stop.Fused) / float64(stop.Steps), nil
	}

	var err error
	if res.tightUnfused, res.tightFused, res.ratioTight, err = measure(workloads.MicroTight(1000)); err != nil {
		return res, err
	}
	if res.memUnfused, res.memFused, res.ratioMem, err = measure(workloads.MicroMem(1000)); err != nil {
		return res, err
	}
	return res, nil
}

// checkZeroAlloc asserts the devirtualized run loops — plain and fused —
// do not allocate after warm-up, mirroring internal/cpu's
// TestRunLoopZeroAlloc.
func checkZeroAlloc() error {
	p := workloads.MicroTight(100)
	for _, c := range []struct {
		name string
		run  func(s *state.State, max uint64) (cpu.RunResult, error)
	}{
		{"plain", cpu.NewCode(isa.Predecode(p)).RunState},
		{"fused", cpu.NewCode(fuse.Predecode(p, fuse.Options{})).RunState},
	} {
		s := state.NewFromProgram(p, 1<<28)
		if _, err := c.run(s, 1_000_000); err != nil {
			return err
		}
		allocs := testing.AllocsPerRun(10, func() {
			s.PC = 0
			if _, err := c.run(s, 1_000_000); err != nil {
				panic(err)
			}
		})
		if allocs != 0 {
			return fmt.Errorf("%s run loop allocates: %v allocs/op, want 0", c.name, allocs)
		}
	}
	return nil
}

// checkEquivalence spot-checks that the slow Env interpreter and every
// devirtualized loop — plain predecoded and fused — agree (the full suite
// lives in internal/cpu's equivalence tests).
func checkEquivalence() error {
	for _, p := range []*isa.Program{workloads.MicroTight(1000), workloads.MicroMem(1000)} {
		slow := state.NewFromProgram(p, 1<<28)
		sres, serr := cpu.Run(cpu.StateEnv{S: slow}, 1_000_000)
		if serr != nil {
			return fmt.Errorf("equivalence run failed: slow %v", serr)
		}
		for _, c := range []struct {
			name string
			run  func(s *state.State, max uint64) (cpu.RunResult, error)
		}{
			{"plain", cpu.NewCode(isa.Predecode(p)).RunState},
			{"fused", cpu.NewCode(fuse.Predecode(p, fuse.Options{})).RunState},
		} {
			fast := state.NewFromProgram(p, 1<<28)
			fres, ferr := c.run(fast, 1_000_000)
			if ferr != nil {
				return fmt.Errorf("equivalence run failed: %s %v", c.name, ferr)
			}
			if sres != fres || !slow.Equal(fast) {
				return fmt.Errorf("%s/slow divergence: slow %+v digest %#x, %s %+v digest %#x",
					c.name, sres, slow.Digest(), c.name, fres, fast.Digest())
			}
		}
	}
	return nil
}

// parallelSpeedups wall-clocks the true-parallel MSSP engine against the
// sequential fast-path core on the mtf workload (Ref scale; Train in quick
// mode) and records parallel/speedup_gN — real elapsed time, best of several
// runs, at 1/2/4/8 slave goroutines. Every parallel run is digest-checked
// against the sequential final state first, so a recorded speedup can never
// come from a wrong answer. Master plus slaves re-execute roughly 1.8x the
// sequential dynamic instruction count, so beating 1.0x requires genuine
// hardware parallelism; today's engine does not, on any host, so >1.0x with
// ≥2 slaves is printed as a tracked target rather than enforced. The gate
// is a ratchet instead: the run fails only if the best ≥2-slave speedup
// drops below half the newest value recorded for that entry in baseline
// (the -in file), a fixed tripwire like vet/taint_ns's. docs/PARALLEL.md
// discusses the ceiling.
func parallelSpeedups(quick bool, baseline *benchFile, record func(name, unit string, value float64)) error {
	scale := workloads.Ref
	if quick {
		scale = workloads.Train
	}
	w, err := workloads.ByName("mtf")
	if err != nil {
		return err
	}
	opts := mssp.DefaultPipelineOptions()
	opts.TrainProgram = w.Build(workloads.Train)
	pl, err := mssp.Prepare(w.Build(scale), opts)
	if err != nil {
		return err
	}
	prog := pl.Prog
	sp := opts.Machine.SP
	if sp == 0 {
		sp = 1 << 28
	}

	reps := 3
	if quick {
		reps = 2
	}
	code := cpu.NewCode(isa.Predecode(prog))
	seqWall := time.Duration(1 << 62)
	var seqDigest, seqSteps uint64
	for i := 0; i < reps; i++ {
		s := state.NewFromProgram(prog, sp)
		start := time.Now()
		res, err := code.RunState(s, 10_000_000_000)
		el := time.Since(start)
		if err != nil {
			return err
		}
		if !res.Halted {
			return fmt.Errorf("parallel/speedup: sequential reference did not halt")
		}
		if el < seqWall {
			seqWall = el
		}
		seqDigest, seqSteps = s.Digest(), res.Steps
	}

	best2, bestName := 0.0, "" // best speedup with ≥2 slaves, and its entry
	for _, g := range []int{1, 2, 4, 8} {
		cfg := opts.Machine
		cfg.Slaves = g
		// Give the runtime one P per engine goroutine, but never more Ps
		// than cores: on an oversubscribed host every channel hand-off
		// becomes a cross-thread futex wakeup and the measurement collapses
		// to scheduler noise (~10x) instead of engine cost.
		procs := g + 3 // slaves + master + coordinator
		if n := runtime.NumCPU(); procs > n {
			procs = n
		}
		prev := runtime.GOMAXPROCS(procs)
		parWall := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			res, err := parallel.Run(prog, pl.Distilled, cfg)
			el := time.Since(start)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return fmt.Errorf("parallel/speedup g=%d: %w", g, err)
			}
			if d := res.Final.Digest(); d != seqDigest || res.Metrics.CommittedInsts != seqSteps {
				runtime.GOMAXPROCS(prev)
				return fmt.Errorf("parallel/speedup g=%d: diverged from sequential (digest %#x want %#x, %d insts want %d)",
					g, d, seqDigest, res.Metrics.CommittedInsts, seqSteps)
			}
			if el < parWall {
				parWall = el
			}
		}
		runtime.GOMAXPROCS(prev)
		s := seqWall.Seconds() / parWall.Seconds()
		name := fmt.Sprintf("parallel/speedup_g%d", g)
		if g >= 2 && s > best2 {
			best2, bestName = s, name
		}
		record(name, "x", s)
	}
	met := "not met"
	if best2 > 1.0 {
		met = "met"
	}
	fmt.Printf("%-24s target >1.0x with ≥2 slaves: %s (best %.3fx, %s, %d CPUs)\n",
		"parallel/speedup", met, best2, bestName, runtime.NumCPU())
	if newest, ok := newestValue(baseline, bestName); ok && best2 < newest/2 {
		return fmt.Errorf("parallel/speedup regression: best ≥2-slave speedup %.3fx (%s) is below half the newest recorded %.3fx",
			best2, bestName, newest)
	}
	return nil
}

// newestValue returns the most recently appended history point of the named
// entry, if the file has one.
func newestValue(f *benchFile, name string) (float64, bool) {
	for _, e := range f.Entries {
		if e.Name == name && len(e.History) > 0 {
			return e.History[len(e.History)-1].Value, true
		}
	}
	return 0, false
}

// soak runs the chaos differential harness over sequential seeds at full
// fault intensity and returns the throughput in seeds per second.
func soak(seeds int) (float64, error) {
	start := time.Now()
	for s := 1; s <= seeds; s++ {
		rep := chaos.Run(chaos.Options{Seed: uint64(s), FaultIntensity: 1, ModelCheckCap: 64})
		if !rep.OK {
			return 0, fmt.Errorf("chaos seed %d failed: %v", s, rep.Failures)
		}
	}
	return float64(seeds) / time.Since(start).Seconds(), nil
}

// experimentsWall runs E3 and E4 through the shared experiment harness and
// returns the combined wall-clock seconds. Full mode measures Ref scale (the
// number the paper tables use); quick mode smokes the pipeline at Train.
func experimentsWall(quick bool) (float64, error) {
	scale := workloads.Ref
	if quick {
		scale = workloads.Train
	}
	ctx := bench.NewContext(scale)
	ctx.Workers = runtime.GOMAXPROCS(0)
	start := time.Now()
	for _, id := range []string{"E3", "E4"} {
		e, err := bench.ByID(id)
		if err != nil {
			return 0, err
		}
		if _, err := e.Run(ctx); err != nil {
			return 0, fmt.Errorf("%s: %w", id, err)
		}
	}
	return time.Since(start).Seconds(), nil
}

func load(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &benchFile{Schema: benchSchema}, nil
	}
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if f.Schema != benchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, benchSchema)
	}
	return &f, nil
}

// upsert records value under (name, label), replacing an existing point
// with the same label so reruns refresh rather than accumulate.
func upsert(f *benchFile, name, unit, label string, value float64) {
	for i := range f.Entries {
		e := &f.Entries[i]
		if e.Name != name {
			continue
		}
		e.Unit = unit
		for j := range e.History {
			if e.History[j].Label == label {
				e.History[j].Value = value
				return
			}
		}
		e.History = append(e.History, histPoint{Label: label, Value: value})
		return
	}
	f.Entries = append(f.Entries, benchEntry{
		Name: name, Unit: unit, History: []histPoint{{Label: label, Value: value}},
	})
}

// reportSpeedups prints the ratio of the first recorded point to this run's
// point for every entry that has both, so the before/after story is visible
// in the tool output.
func reportSpeedups(f *benchFile, label string) {
	for _, e := range f.Entries {
		if len(e.History) < 2 {
			continue
		}
		first := e.History[0]
		var cur *histPoint
		for j := range e.History {
			if e.History[j].Label == label {
				cur = &e.History[j]
			}
		}
		if cur == nil || first.Label == label || cur.Value == 0 || first.Value == 0 {
			continue
		}
		ratio := first.Value / cur.Value
		word := "speedup"
		if e.Unit == "seeds/s" || e.Unit == "x" { // rates and ratios: higher is better
			ratio = cur.Value / first.Value
		}
		fmt.Printf("%-24s %s→%s: %.2fx %s\n", e.Name, first.Label, cur.Label, ratio, word)
	}
}

func save(path string, f *benchFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
