package parallel_test

import (
	"fmt"
	"runtime"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/baseline"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/parallel"
	"mssp/internal/profile"
	"mssp/internal/task"
	"mssp/internal/workloads"
)

// The workloads mirror internal/core's equivalence suite so the two engines
// are exercised on the same programs.

const friendlySrc = `
	.entry main
	main:   ldi  r1, %d           ; outer counter
	        ldi  r4, 0            ; checksum
	loop:   andi r2, r1, 255
	        bnez r2, common
	rare:   srli r8, r1, 8        ; rare-visit index
	        muli r8, r8, 300
	        la   r9, log
	        add  r9, r9, r8       ; private log segment for this visit
	        ldi  r7, 300          ; expensive, write-only side work
	spin:   st   r7, 0(r9)
	        addi r9, r9, 1
	        addi r7, r7, -1
	        bnez r7, spin
	common: addi r4, r4, 1
	        muli r5, r1, 3
	        xor  r4, r4, r5
	        addi r5, r5, 7
	        add  r4, r4, r5
	        andi r4, r4, 0xffff
	        addi r1, r1, -1
	        bnez r1, loop
	        la   r3, out
	        st   r4, 0(r3)
	        halt
	.data
	.org 100000
	out:    .space 1
	log:    .space 70000
`

const hostileSrc = `
	.entry main
	main:   ldi  r1, 4096
	        ldi  r4, 0
	loop:   andi r2, r1, 255
	        bnez r2, common
	rare:   muli r4, r4, 17      ; perturbs the accumulator
	        addi r4, r4, 13
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

type harness struct {
	orig *isa.Program
	dist *distill.Result
	seq  *baseline.Result
}

func prep(t *testing.T, src string, stride uint64, dopts distill.Options) *harness {
	t.Helper()
	return prepProg(t, asm.MustAssemble(src), stride, dopts)
}

func prepProg(t *testing.T, p *isa.Program, stride uint64, dopts distill.Options) *harness {
	t.Helper()
	prof, err := profile.Collect(p, profile.Options{Stride: stride})
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	d, err := distill.Distill(p, prof, dopts)
	if err != nil {
		t.Fatalf("distill: %v", err)
	}
	b, err := baseline.Run(p, baseline.DefaultConfig())
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	return &harness{orig: p, dist: d, seq: b}
}

func runPar(t *testing.T, h *harness, cfg core.Config) *parallel.Result {
	t.Helper()
	res, err := parallel.Run(h.orig, h.dist, cfg)
	if err != nil {
		t.Fatalf("parallel.Run: %v", err)
	}
	return res
}

// assertEquivalent checks the parallel machine's final state against the
// sequential execution — the schedule-independence theorem made a test.
func assertEquivalent(t *testing.T, h *harness, r *parallel.Result) {
	t.Helper()
	if r.Metrics.CommittedInsts != h.seq.Steps {
		t.Errorf("committed %d instructions, sequential executed %d", r.Metrics.CommittedInsts, h.seq.Steps)
	}
	if !r.Final.Equal(h.seq.Final) {
		r.Final.Mem.Diff(h.seq.Final.Mem, func(a uint64, mv, ov uint64) {
			t.Logf("  mem[%d]: parallel=%d seq=%d", a, mv, ov)
		})
		t.Fatalf("final state diverged from sequential execution\npar: %s\nseq: %s",
			r.Final.Dump(), h.seq.Final.Dump())
	}
}

func fsrc(n int) string { return fmt.Sprintf(friendlySrc, n) }

func TestEquivalenceFriendly(t *testing.T) {
	h := prep(t, fsrc(4096), 100, distill.DefaultOptions())
	res := runPar(t, h, core.DefaultConfig())
	assertEquivalent(t, h, res)
	if res.Metrics.TasksCommitted == 0 {
		t.Error("no tasks committed; the parallel engine never engaged")
	}
}

func TestEquivalenceHostile(t *testing.T) {
	h := prep(t, hostileSrc, 100, distill.DefaultOptions())
	res := runPar(t, h, core.DefaultConfig())
	assertEquivalent(t, h, res)
	if res.Metrics.Squashes == 0 {
		t.Error("hostile workload produced no squashes; the test premise is broken")
	}
}

func TestEquivalenceNoPruning(t *testing.T) {
	h := prep(t, fsrc(2048), 100, distill.Options{BiasThreshold: 1.0, MinBranchCount: 16})
	res := runPar(t, h, core.DefaultConfig())
	assertEquivalent(t, h, res)
	if res.Metrics.Squashes != 0 {
		t.Errorf("faithful distillation squashed %d times", res.Metrics.Squashes)
	}
}

func TestTinyProgram(t *testing.T) {
	h := prep(t, "main: ldi r1, 42\nhalt", 100, distill.DefaultOptions())
	res := runPar(t, h, core.DefaultConfig())
	assertEquivalent(t, h, res)
	if res.Final.ReadReg(1) != 42 {
		t.Error("result wrong")
	}
}

func TestSlaveCounts(t *testing.T) {
	h := prep(t, fsrc(2048), 100, distill.DefaultOptions())
	for _, n := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("slaves-%d", n), func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Slaves = n
			assertEquivalent(t, h, runPar(t, h, cfg))
		})
	}
}

func TestSmallTaskCapForcesOverflowsButStaysCorrect(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MaxTaskLen = 40
	h := prep(t, fsrc(1024), 300, distill.DefaultOptions())
	res := runPar(t, h, cfg)
	assertEquivalent(t, h, res)
	if res.Metrics.TasksOverflowed == 0 {
		t.Error("expected overflows with a tiny task cap")
	}
}

func TestMinTaskSpacing(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.MinTaskSpacing = 300
	h := prep(t, fsrc(2048), 50, distill.DefaultOptions())
	res := runPar(t, h, cfg)
	assertEquivalent(t, h, res)
	if res.Metrics.ForksSkipped == 0 {
		t.Error("no forks skipped despite MinTaskSpacing")
	}
}

func TestDisableFastPath(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.DisableFastPath = true
	h := prep(t, fsrc(1024), 100, distill.DefaultOptions())
	assertEquivalent(t, h, runPar(t, h, cfg))
}

func TestNonSpecRegions(t *testing.T) {
	// The friendly workload's output store lands in [100000,100001); making
	// it non-speculative forces the nonspec → sequential-replay path.
	cfg := core.DefaultConfig()
	cfg.NonSpecRegions = []task.AddrRange{{Lo: 100000, Hi: 100001}}
	h := prep(t, fsrc(1024), 100, distill.DefaultOptions())
	res := runPar(t, h, cfg)
	assertEquivalent(t, h, res)
	if res.Metrics.TasksNonSpec == 0 {
		t.Error("expected nonspec squashes with the output marked non-speculative")
	}
}

// TestFinalStateScheduleIndependence runs the squash-heavy workload many
// times across goroutine counts: every run must land on the same final state
// even though the fork/squash schedule differs run to run. This is the
// randomized-scheduling permutation test — the scheduler is the randomizer.
func TestFinalStateScheduleIndependence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h := prep(t, hostileSrc, 100, distill.DefaultOptions())
	for _, n := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Slaves = n
		for rep := 0; rep < 3; rep++ {
			res := runPar(t, h, cfg)
			assertEquivalent(t, h, res)
		}
	}
}

// TestAgainstDeterministicMachine is the in-package oracle differential: the
// deterministic core machine and the parallel engine must agree on the final
// architected state and the committed instruction count, on the two
// hand-written programs and on every workload's Train build. (The full
// chaos-driven differential with generated programs and fault plans lives in
// internal/chaos.)
func TestAgainstDeterministicMachine(t *testing.T) {
	type input struct {
		name string
		prog *isa.Program
	}
	inputs := []input{
		{"friendly", asm.MustAssemble(fsrc(2048))},
		{"hostile", asm.MustAssemble(hostileSrc)},
	}
	for _, w := range workloads.All() {
		inputs = append(inputs, input{w.Name, w.Build(workloads.Train)})
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			h := prepProg(t, in.prog, 100, distill.DefaultOptions())
			m, err := core.New(h.orig, h.dist, core.DefaultConfig())
			if err != nil {
				t.Fatalf("core.New: %v", err)
			}
			det, err := m.Run()
			if err != nil {
				t.Fatalf("core run: %v", err)
			}
			par := runPar(t, h, core.DefaultConfig())
			if !par.Final.Equal(det.Final) {
				t.Fatal("parallel final state diverged from the deterministic machine")
			}
			if par.Metrics.CommittedInsts != det.Metrics.CommittedInsts {
				t.Errorf("committed insts: parallel %d, det %d",
					par.Metrics.CommittedInsts, det.Metrics.CommittedInsts)
			}
		})
	}
}

func TestConfigValidation(t *testing.T) {
	h := prep(t, "main: halt", 100, distill.DefaultOptions())
	bad := []core.Config{
		{Slaves: 0, MaxTaskLen: 10, MasterRunaheadCap: 10},
		{Slaves: 1, MaxTaskLen: 0, MasterRunaheadCap: 10},
		{Slaves: 1, MaxTaskLen: 10, MasterRunaheadCap: 0},
	}
	for i, cfg := range bad {
		if _, err := parallel.Run(h.orig, h.dist, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	cfg := core.DefaultConfig()
	cfg.MaxCommitted = 10 // far below the program's instruction count
	h2 := prep(t, fsrc(1024), 100, distill.DefaultOptions())
	if _, err := parallel.Run(h2.orig, h2.dist, cfg); err == nil {
		t.Error("MaxCommitted guard did not trip")
	}
}

// sameValueSrc stores, every iteration, the value a word of buf already
// holds: its master writes memory but never changes a word.
const sameValueSrc = `
	.entry main
	main:   ldi  r1, 3000
	        la   r3, buf
	loop:   andi r6, r1, 7
	        add  r6, r6, r3
	        ld   r5, 0(r6)
	        st   r5, 0(r6)
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
	.data
	.org 100000
	buf:    .word 11, 22, 33, 44, 55, 66, 77, 88
`

// TestUnchangedStoresAddNoCheckpointWords pins the checkpoint definition
// both engines share: a word enters a checkpoint's memory view only once
// its value at a fork differs from its value at the previous fork. The
// master of sameValueSrc stores only values its words already hold, so no
// checkpoint binds one, in either window's layer, and CheckpointNew stays
// 0.
func TestUnchangedStoresAddNoCheckpointWords(t *testing.T) {
	h := prep(t, sameValueSrc, 100, distill.DefaultOptions())
	stores := 0
	for _, w := range h.dist.Prog.Code.Words {
		if isa.Decode(w).Op == isa.OpSt {
			stores++
		}
	}
	if stores == 0 {
		t.Fatal("the distilled program has no store for its master to execute")
	}
	buf := h.orig.Symbols["buf"]
	for _, engine := range []string{"det", "parallel"} {
		t.Run(engine, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Slaves = 2
			forks, bound := 0, 0
			cfg.Fault = &core.FaultInjection{
				// Observes each checkpoint as its task is admitted, on the
				// goroutine that runs the engine, and changes nothing. It
				// reads buf through a slave's table over the view and an
				// empty snapshot: buf's words are never zero, so a word
				// the view binds reads nonzero.
				CorruptCheckpoint: func(_ uint64, ck *task.Checkpoint) {
					forks++
					tab := mem.NewTable()
					tab.Over(ck.MemDiff, ck.Prev, ck.Layers, mem.New())
					for a := buf; a < buf+8; a++ {
						if tab.Load(a) != 0 {
							bound++
						}
					}
				},
			}
			var m core.Metrics
			if engine == "det" {
				mach, err := core.New(h.orig, h.dist, cfg)
				if err != nil {
					t.Fatal(err)
				}
				res, err := mach.Run()
				if err != nil {
					t.Fatal(err)
				}
				m = res.Metrics
			} else {
				m = runPar(t, h, cfg).Metrics
			}
			if forks < 10 || m.MasterInsts < 10*uint64(forks) {
				t.Fatalf("%d forks over %d master instructions: the master barely ran", forks, m.MasterInsts)
			}
			if m.CheckpointNew != 0 || bound != 0 {
				t.Errorf("CheckpointNew = %d and %d buf words bound over %d checkpoints, want none",
					m.CheckpointNew, bound, forks)
			}
		})
	}
}
