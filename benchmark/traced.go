package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mssp/internal/chaos"
	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/model"
	"mssp/internal/parallel"
	"mssp/internal/profile"
	"mssp/internal/refine"
	"mssp/internal/state"
)

// traced measures every layer from outside. It makes separate passes so one
// pass's cost never lands in another's timestamps:
//
//   - stamp pass: untraced and stamped samples alternate for half the run's
//     seconds (their difference is the tracing overhead), each flanked by
//     the host calibration kernel and the sequential control, with the Go
//     runtime's metrics read around every stamped sample;
//   - chaos probe and commit-cycle probe: module-level, the same on every
//     workload;
//   - per-program passes over the workload's programs: a plain engine run,
//     the online replay, the two solo masters, and the deterministic
//     machine's cycle model;
//   - setup pass: the times the workload's own preparation spent per layer.
func traced(o options, s suite, own layerTimes, out *outcome) {
	st := &stamps{base: time.Now()}
	var lc lifecycle
	var rt runtimeDelta
	var plain, stamped, calib []float64
	var seqInsts uint64
	var seqTime time.Duration
	o.loop(0.5, func(i int) {
		calib = append(calib, calibrate())
		smp := s.run(i, nil)
		out.add(smp)
		if len(smp.fails) == 0 {
			plain = append(plain, mips(smp.insts, smp.wall))
		}
		runtime.GC()
		if insts, d, err := s.seq(i); err != nil {
			out.fail(err)
		} else {
			seqInsts += insts
			seqTime += d
		}
		runtime.GC()
		before := readRuntime()
		smp = s.run(i, st)
		rt.add(before, readRuntime())
		out.add(smp)
		if len(smp.fails) == 0 {
			stamped = append(stamped, mips(smp.insts, smp.wall))
		}
		lc.add(st)
	})

	seeds := chaosCorpus(o)
	p := runProbe(seeds[:min(len(seeds), chaosProbeSeeds)], out)
	commitNs := commitCycleNs(out)

	items, engine, lt := s.traced(own, p)
	lp := runPasses(items, engine, out)

	master := lp.step.exec // the deterministic master steps through Code.Step
	if engine == engineParallel {
		master = lp.stop.exec + lp.stop.ckpt
	}
	replayed := lp.rp.snap + lp.rp.exec + lp.rp.verify + lp.rp.apply + lp.rp.fallback
	perProg := func(d time.Duration) float64 { return ratio(us(d), float64(lt.programs)) }
	perSeed := func(d time.Duration) float64 { return ratio(us(d), float64(p.seeds)) }
	perKinst := func(n, insts uint64) float64 { return ratio(float64(n), float64(insts)/1000) }
	plainP50 := quantile(plain, 0.5)
	m := lp.m

	out.metrics = []metric{
		{"host.calib_mops", quantile(calib, 0.5), "Mop/s"},
		{"trace.overhead_frac", ratio(plainP50-quantile(stamped, 0.5), plainP50), "fraction"},
		{"workloads.build_us_per_prog", perProg(lt.build), "us"},
		{"profile.collect_us_per_prog", perProg(lt.profile), "us"},
		{"distill.distill_us_per_prog", perProg(lt.distill), "us"},
		{"fuse.predecode_us_per_prog", perProg(lt.predecode), "us"},
		{"cpu.seq_ns_per_inst", ratio(ns(seqTime), float64(seqInsts)), "ns"},
		{"cpu.master_ns_per_inst", ratio(ns(lp.stop.exec), float64(lp.stop.insts)), "ns"},
		{"cpu.master_fused_frac", ratio(float64(lp.stop.fused), float64(lp.stop.insts)), "fraction"},
		{"cpu.step_ns_per_inst", ratio(ns(lp.step.exec), float64(lp.step.insts)), "ns"},
		{"mem.ckpt_us_per_fork", ratio(us(lp.stop.ckpt), float64(lp.stop.forks)), "us"},
		{"mem.ckpt_words_per_fork", ratio(float64(m.CheckpointNew), float64(m.Forks)), "count"},
		{"distill.master_insts_per_kinst", perKinst(m.MasterInsts, m.CommittedInsts), "count"},
		{"parallel.master_share", ratio(master.Seconds(), lp.wall.Seconds()), "fraction"},
		{"parallel.fork_to_verify_us_p50", quantile(lc.forkToVerify, 0.5), "us"},
		{"parallel.fork_to_verify_us_p99", quantile(lc.forkToVerify, 0.99), "us"},
		{"parallel.verify_to_retire_us_p50", quantile(lc.verifyToRetire, 0.5), "us"},
		{"parallel.squash_to_fork_us_p50", quantile(lc.squashToFork, 0.5), "us"},
		{"parallel.commit_cycle_ns", commitNs, "ns"},
		{"task.snapshot_ns_per_task", ratio(ns(lp.rp.snap), float64(lp.rp.tasks)), "ns"},
		{"task.exec_ns_per_inst", ratio(ns(lp.rp.exec), float64(lp.rp.taskInsts)), "ns"},
		{"task.insts_per_task", ratio(float64(lp.rp.taskInsts), float64(lp.rp.tasks)), "count"},
		{"state.verify_ns_per_task", ratio(ns(lp.rp.verify), float64(lp.rp.tasks)), "ns"},
		{"state.apply_ns_per_task", ratio(ns(lp.rp.apply), float64(lp.rp.tasks)), "ns"},
		{"state.livein_words_per_task", ratio(float64(m.LiveInWords), float64(m.TasksCommitted)), "count"},
		{"state.liveout_words_per_task", ratio(float64(m.LiveOutWords), float64(m.TasksCommitted)), "count"},
		{"core.commit_rate", ratio(float64(lc.commits), float64(lc.verifies)), "fraction"},
		{"core.wasted_insts_per_kinst", perKinst(lc.wasted, lc.committed), "count"},
		{"core.fallback_insts_per_kinst", perKinst(lc.fallback, lc.committed), "count"},
		{"core.unattributed_frac", 1 - ratio((replayed+master).Seconds(), lp.wall.Seconds()), "fraction"},
		{"core.sim_speedup", math.Exp(ratio(lp.logSpeedup, float64(lp.programs))), "x"},
		{"runtime.gc_cpu_frac", ratio(rt.gcCPU, rt.totalCPU), "fraction"},
		{"runtime.sched_latency_us_p50", rt.schedQuantileUS(0.5), "us"},
		{"runtime.sched_latency_us_p99", rt.schedQuantileUS(0.99), "us"},
		{"runtime.mutex_wait_ms", ratio(rt.mutexWait*1e3, float64(rt.samples)), "ms"},
		{"runtime.cpu_util", rt.cpuUtil(), "fraction"},
		{"chaos.gen_us_per_seed", perSeed(p.gen), "us"},
		{"chaos.prepare_us_per_seed", perSeed(p.prepare), "us"},
		{"chaos.det_leg_us_per_seed", perSeed(p.detLeg), "us"},
		{"chaos.par_leg_us_per_seed", perSeed(p.parLeg), "us"},
		{"chaos.audit_us_per_seed", perSeed(p.audit), "us"},
		{"chaos.run_us_per_seed", perSeed(p.run), "us"},
		{"chaos.unattributed_frac", 1 - ratio((p.gen+p.prepare+p.detLeg+p.parLeg+p.audit).Seconds(), p.run.Seconds()), "fraction"},
	}
	out.info = []metric{
		{"parallel.solo_fork_gap", ratio(float64(lp.stop.forks)-float64(m.Forks), float64(m.Forks)), "fraction"},
		{"samples", float64(len(stamped)), "count"},
	}
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }

// passes is what the per-program passes measured, summed over programs.
type passes struct {
	wall       time.Duration // plain engine runs
	m          core.Metrics  // the counters the per-layer metrics use
	rp         replayTimes
	stop, step solo
	logSpeedup float64
	programs   int
}

// runPasses runs every per-program pass over items on the named engine.
func runPasses(items []*item, engine string, out *outcome) passes {
	var lp passes
	for _, it := range items {
		start := time.Now()
		final, m, _, err := runEngine(engine, it, it.cfg)
		lp.wall += time.Since(start)
		out.attempted++
		if err := check(it, final, m.CommittedInsts, err); err != nil {
			out.failures = append(out.failures, err.Error())
			continue
		}
		addMetrics(&lp.m, m)

		rp := newReplay(it)
		cfg := it.cfg
		cfg.OnCommit = rp.onCommit
		final, m, _, err = runEngine(engine, it, cfg)
		if err == nil && rp.err != nil {
			err = fmt.Errorf("replay: %w", rp.err)
		}
		if err == nil && rp.shadow.Digest() != final.Digest() {
			err = fmt.Errorf("replay ends in digest %#x, engine in %#x", rp.shadow.Digest(), final.Digest())
		}
		if err := check(it, final, m.CommittedInsts, err); err != nil {
			out.fail(err)
			continue
		}
		out.attempted++
		lp.rp.add(rp.replayTimes)

		lp.stop.add(soloRunToStop(it))
		lp.step.add(soloStep(it))

		final, m, cycles, err := runEngine(engineDet, it, it.cfg)
		if err := check(it, final, m.CommittedInsts, err); err != nil {
			out.fail(err)
			continue
		}
		out.attempted++
		lp.logSpeedup += math.Log(float64(it.steps) * it.cfg.SlaveCPI / cycles)
		lp.programs++
	}
	return lp
}

func (s *solo) add(o solo) {
	s.exec += o.exec
	s.ckpt += o.ckpt
	s.insts += o.insts
	s.fused += o.fused
	s.forks += o.forks
}

func addMetrics(a *core.Metrics, b core.Metrics) {
	a.CommittedInsts += b.CommittedInsts
	a.MasterInsts += b.MasterInsts
	a.TasksCommitted += b.TasksCommitted
	a.Forks += b.Forks
	a.LiveInWords += b.LiveInWords
	a.LiveOutWords += b.LiveOutWords
	a.CheckpointNew += b.CheckpointNew
}

func (lt *layerTimes) add(o layerTimes) {
	lt.build += o.build
	lt.profile += o.profile
	lt.distill += o.distill
	lt.predecode += o.predecode
	lt.seq += o.seq
	lt.programs += o.programs
}

// commitCycleNs times the parallel engine's reservation protocol (reserve,
// close, complete, pop) through parallel.CommitCycle, median of five.
func commitCycleNs(out *outcome) float64 {
	const n = 50_000
	var xs []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		done := parallel.CommitCycle(n)
		xs = append(xs, ns(time.Since(start))/n)
		if done != n {
			out.fail(fmt.Errorf("commit cycle: protocol error after %d of %d slots", done, n))
			return 0
		}
	}
	out.attempted++
	return quantile(xs, 0.5)
}

// probe is the chaos harness split into layers: each seed runs whole through
// chaos.Run, then again rebuilt from public calls — generation, preparation,
// the four engine legs, and the refine and model audits timed apart.
type probe struct {
	seeds                                    int
	run, gen, prepare, detLeg, parLeg, audit time.Duration
	// items are the seeds' programs prepared as the harness prepares them,
	// with the clean parallel leg's configuration; lt is their setup time.
	items []*item
	lt    layerTimes
}

// runProbe probes the given chaos seeds.
func runProbe(seeds []uint64, out *outcome) *probe {
	p := &probe{seeds: len(seeds)}
	for _, seed := range seeds {
		out.attempted++
		if err := p.seed(seed); err != nil {
			out.failures = append(out.failures, fmt.Sprintf("chaos seed %d: %v", seed, err))
		}
	}
	return p
}

func (p *probe) seed(seed uint64) error {
	start := time.Now()
	rep := chaos.Run(chaosOptions(seed))
	p.run += time.Since(start)
	if !rep.OK {
		return fmt.Errorf("harness: %v", rep.Failures)
	}

	knobs := rep.Knobs
	var lt layerTimes
	it, err := prepare(prepSpec{
		name: fmt.Sprintf("chaos seed %d", seed),
		build: func() (*isa.Program, *isa.Program) {
			g := chaos.GenerateOpts(seed, chaos.GenOptions{})
			return g.Prog, g.Prog
		},
		// The harness's own profile bound and distiller settings.
		profile: profile.Options{Stride: knobs.Stride, MaxSteps: 2_000_001},
		distill: distill.Options{BiasThreshold: knobs.BiasThreshold, MinBranchCount: 4},
	}, knobs.Config(), &lt)
	if err != nil {
		return err
	}
	if it.steps != rep.SeqSteps || it.digest != rep.SeqDigest {
		return fmt.Errorf("rebuilt program runs %d instructions to %#x, harness saw %d to %#x",
			it.steps, it.digest, rep.SeqSteps, rep.SeqDigest)
	}
	p.gen += lt.build
	p.prepare += lt.seq + lt.profile + lt.distill
	p.lt.add(lt)

	for _, leg := range []struct {
		engine string
		fault  bool
		wall   *time.Duration
	}{
		{engineDet, false, &p.detLeg}, {engineDet, true, &p.detLeg},
		{engineParallel, false, &p.parLeg}, {engineParallel, true, &p.parLeg},
	} {
		cfg := it.cfg
		if leg.fault {
			cfg.Fault = (&chaos.FaultPlan{Seed: seed, Intensity: 1}).Injection()
		}
		a := newAudit(it)
		cfg.OnCommit = a.onCommit
		start := time.Now()
		final, m, _, err := runEngine(leg.engine, it, cfg)
		*leg.wall += time.Since(start) - a.spent
		if err == nil {
			err = a.finish(final)
		}
		p.audit += a.spent
		if err := check(it, final, m.CommittedInsts, err); err != nil {
			return fmt.Errorf("%s leg (faults %v): %w", leg.engine, leg.fault, err)
		}
	}
	p.items = append(p.items, it)
	return nil
}

// modelCap is how many task commits per leg the model shadow re-derives,
// the soak's ModelCheckCap.
const modelCap = 64

// audit is the harness's oracle pair rebuilt from public calls — the
// streaming refinement auditor, and a model task-safety shadow over the
// first modelCap task commits — with the time spent inside them.
type audit struct {
	aud   *refine.Auditor
	ref   *state.State
	model int // model checks left
	spent time.Duration
	err   error
}

func newAudit(it *item) *audit {
	return &audit{
		aud:   refine.NewAuditor(it.orig, it.cfg.SP, refine.Options{FullCheckEvery: 16, CheckTaskSafety: true}),
		ref:   state.NewFromProgram(it.orig, it.cfg.SP),
		model: modelCap,
	}
}

func (a *audit) onCommit(ev core.CommitEvent) {
	start := time.Now()
	a.aud.OnCommit(ev)
	if ev.Kind == "task" && a.model > 0 {
		a.model--
		t := model.NewTask(a.ref.Clone(), ev.Steps)
		err := t.Complete()
		if err == nil {
			applied := a.ref.Clone()
			applied.Apply(ev.LiveOut)
			if !applied.Equal(t.Out) {
				err = fmt.Errorf("task %d: live-outs differ from the model's seq(S, #t)", ev.TaskID)
			}
			a.ref = t.Out
		}
		if err != nil && a.err == nil {
			a.err = err
		}
	} else if _, err := cpu.Seq(a.ref, ev.Steps); err != nil && a.err == nil {
		a.err = err
	}
	a.spent += time.Since(start)
}

func (a *audit) finish(final *state.State) error {
	start := time.Now()
	rep := a.aud.Finish(final)
	a.spent += time.Since(start)
	if a.err != nil {
		return fmt.Errorf("model: %w", a.err)
	}
	return rep.FirstViolation()
}
