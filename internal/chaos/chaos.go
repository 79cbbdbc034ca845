// Package chaos is the deterministic fault-injection and differential
// fuzzing harness for the MSSP machine. It hunts for divergence between the
// speculative machine (internal/core) and the sequential reference by
// generating seeded random MIR programs and running each one three ways:
//
//  1. sequential baseline (cpu.Seq to halt);
//  2. MSSP clean, audited by the internal/refine jumping-refinement checker
//     and by an internal/model task-safety shadow;
//  3. MSSP with injected faults (core.Config.Fault driven by a FaultPlan),
//     audited the same way.
//
// The contract: all three executions must end in byte-identical committed
// architected state, every commit must be a safe jump of the sequential
// model, and no injected fault may ever corrupt architected state — faults
// corrupt predictions and perturb timing only, and the verify/commit unit
// must contain them. Each run also records which lifecycle event kinds and
// squash reasons it provoked, so taxonomy coverage is measurable and a soak
// can enforce it.
//
// Everything is keyed by a single uint64 seed: the generated program, the
// machine configuration, the distillation options and the fault plan all
// derive from it, so any failure replays exactly (cmd/msspfuzz -replay).
// docs/TESTING.md describes the contract, the fault taxonomy and the
// reproduction workflow.
package chaos

import (
	"fmt"
	"math/rand"

	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/model"
	"mssp/internal/obs"
	"mssp/internal/parallel"
	"mssp/internal/profile"
	"mssp/internal/refine"
	"mssp/internal/state"
	"mssp/internal/taint"
	"mssp/internal/task"
	"mssp/internal/vet"
)

// Options configures one differential run.
type Options struct {
	// Seed keys everything: program, machine config, distillation, fault
	// plan.
	Seed uint64
	// FaultIntensity in [0, 1] scales fault-injection probability for the
	// faulted leg; zero skips the faulted leg entirely.
	FaultIntensity float64
	// MaxSeqSteps bounds the sequential baseline (and transitively the
	// generated program's dynamic length). Zero means a generous default;
	// a generated program that fails to halt inside the bound is reported
	// as a failure, so the fuzzer also polices the generator itself.
	MaxSeqSteps uint64
	// ModelCheckCap bounds how many commits the internal/model task-safety
	// shadow re-derives per leg (full-state sequential re-execution is the
	// most expensive audit). Zero means 256.
	ModelCheckCap int
	// Observe, when non-nil, is attached to both MSSP legs' lifecycle
	// streams (obs.Attach semantics), in addition to the harness's own
	// coverage sink. Used by the JSONL hammer tests and cmd/msspfuzz -trace.
	Observe func(leg string, cfg *core.Config)
	// Interp selects the execution core: "fast" (or empty, the default)
	// uses the predecoded/devirtualized interpreter everywhere; "slow"
	// drops the predecoded tables (core.Config.DisableFastPath), so the
	// sequential baseline and the MSSP legs' slaves step through the Env
	// interface (cpu.stepExec), while the master and sequential fallback
	// decode from memory in the run loop. The two settings must produce
	// byte-identical reports — the interpreter differential in
	// interp_test.go and cmd/msspfuzz -interp both run each seed both ways.
	Interp string
	// Fuse selects superinstruction dispatch on the fast interpreter:
	// "on" (or empty, the default) lets the MSSP legs run fused tables;
	// "off" forces single-instruction dispatch (core.Config.DisableFusion).
	// Like Interp, the two settings must produce byte-identical reports —
	// fuse_test.go and cmd/msspfuzz -fuse run each seed both ways. The knob
	// is meaningless (and ignored) when Interp is "slow", which bypasses
	// the predecoded tables entirely.
	Fuse string
	// DistillPasses turns on the analysis-driven distillation pass
	// (distill.Options.DeadCodeElim: dead-code elimination against
	// checkpoint liveness). The architected results must be bit-identical
	// with the pass on or off — that is the pass's whole soundness
	// contract, and passes_test.go enforces it differentially across the
	// seed corpus.
	DistillPasses bool
	// Engine selects which speculative machines the differential runs.
	// "" or "det" runs the deterministic machine only (the historical
	// three-way differential). "parallel" additionally runs the seed on the
	// true-parallel engine (internal/parallel) — clean and, with faults,
	// injected legs — audited by the same streaming refinement checker,
	// model shadow and coverage sink, and cross-checks its final digests
	// against the deterministic legs' (a four/five-way differential).
	// Parallel legs carry schedule-dependent metrics, so reports for
	// Engine "parallel" are not byte-comparable across runs; the interp
	// differential ("both") therefore refuses to combine with it.
	Engine string
	// Taint switches the generator into taint mode (secret data segment,
	// leak-gadget emission, Secret region annotations on ~75% of seeds) and
	// arms the security differential: the static leak rules (vet.CheckTaint,
	// rooted at the distiller's anchors) run over the generated program, a
	// dynamic taint observer (internal/taint) replays every task on the
	// clean legs, and the run fails if dominance is violated — a program the
	// static analysis certifies clean must never be flagged dynamically.
	// Fault legs are never observed: injected faults corrupt task starts and
	// checkpoints, taking dynamic execution outside the static contract.
	Taint bool
	// TaskBuffer, when non-zero, overrides the machine's task window
	// (core.Config.TaskBuffer), which the knobs leave at its default.
	TaskBuffer int
}

// Engine values for Options.Engine.
const (
	EngineDet      = "det"
	EngineParallel = "parallel"
)

// defaultMaxSeqSteps bounds generated programs' dynamic length. Generated
// loop nests stay well under this; hitting it means the generator broke its
// own termination invariant.
const defaultMaxSeqSteps = 2_000_000

// LegReport describes one MSSP execution (clean or faulted) of the
// generated program.
type LegReport struct {
	// RefineOK reports whether the jumping-refinement audit passed.
	RefineOK bool `json:"refineOK"`
	// Violations carries the refinement checker's failures, rendered.
	Violations []string `json:"violations,omitempty"`
	// ModelViolations carries task-safety failures found by the
	// internal/model shadow, rendered.
	ModelViolations []string `json:"modelViolations,omitempty"`
	// ModelChecked is the number of commits the model shadow audited.
	ModelChecked int `json:"modelChecked"`
	// Commits is the number of architected-state advances observed.
	Commits int `json:"commits"`
	// FinalMatchesSeq reports whether the leg's final architected state is
	// byte-identical to the sequential baseline's.
	FinalMatchesSeq bool `json:"finalMatchesSeq"`
	// FinalDigest fingerprints the leg's final architected state, so two
	// reports for the same seed (e.g. fast vs slow interpreter) can be
	// compared without re-running.
	FinalDigest uint64 `json:"finalDigest"`
	// Metrics is the machine's one-line metrics summary.
	Metrics string `json:"metrics"`
	// Coverage records the lifecycle kinds and squash reasons provoked.
	Coverage *Coverage `json:"coverage"`
}

// Report is the outcome of one three-way differential run.
type Report struct {
	// Seed is the run's seed.
	Seed uint64 `json:"seed"`
	// FaultIntensity is the faulted leg's intensity (zero: leg skipped).
	FaultIntensity float64 `json:"faultIntensity"`
	// Gen summarizes the generated program.
	Gen GenConfig `json:"gen"`
	// Knobs summarizes the derived machine configuration.
	Knobs Knobs `json:"knobs"`
	// Mix is the seed's draw of a mixed soak, which the soak sets after Run
	// (nil outside one).
	Mix *Mix `json:"mix,omitempty"`
	// SeqSteps is the sequential baseline's instruction count.
	SeqSteps uint64 `json:"seqSteps"`
	// SeqDigest fingerprints the sequential baseline's final state.
	SeqDigest uint64 `json:"seqDigest"`
	// Clean is the fault-free MSSP leg.
	Clean *LegReport `json:"clean,omitempty"`
	// Fault is the fault-injected MSSP leg (nil when skipped).
	Fault *LegReport `json:"fault,omitempty"`
	// ParClean is the true-parallel engine's clean leg (nil unless
	// Options.Engine is "parallel"). Its final digest must match the
	// deterministic legs' and the sequential baseline's: commit-time live-in
	// verification makes the final state schedule-independent, so goroutine
	// interleaving may change the squash taxonomy but never the state.
	ParClean *LegReport `json:"parClean,omitempty"`
	// ParFault is the true-parallel engine's fault-injected leg (nil unless
	// Options.Engine is "parallel"); same digest contract as ParClean,
	// cross-checked against the deterministic faulted leg.
	ParFault *LegReport `json:"parFault,omitempty"`
	// Taint is the security differential's outcome (nil unless
	// Options.Taint).
	Taint *TaintReport `json:"taint,omitempty"`
	// Failures lists every divergence or harness error, rendered. Empty
	// iff OK.
	Failures []string `json:"failures,omitempty"`
	// OK reports a fully clean differential: both legs refine SEQ, all
	// audits passed, all final states byte-identical.
	OK bool `json:"ok"`
}

// TaintReport is the outcome of one seed's security differential: the static
// leak-rule verdict over the generated program, the dynamic taint observer's
// aggregated findings from the clean legs, and the dominance check tying
// them together.
type TaintReport struct {
	// SecretDeclared reports whether the generator annotated the secret
	// segment as isa.Region — when false the program is vacuously
	// static-clean even though gadgets may touch secret-segment addresses,
	// which is exactly the case that makes the clean direction of the
	// dominance property non-trivial.
	SecretDeclared bool `json:"secretDeclared"`
	// StaticClean reports whether vet.CheckTaint found nothing.
	StaticClean bool `json:"staticClean"`
	// StaticCount is the total number of static findings.
	StaticCount int `json:"staticCount"`
	// StaticFindings renders the first few static findings (capped; see
	// StaticCount for the true total).
	StaticFindings []string `json:"staticFindings,omitempty"`
	// Flags counts the dynamic observer's findings per kind across the
	// clean legs.
	Flags map[string]int `json:"flags,omitempty"`
	// FlagCount is the total number of dynamic flags.
	FlagCount int `json:"flagCount"`
	// Replayed counts the tasks the observers replayed.
	Replayed int `json:"replayed"`
	// Truncated counts the replays cut short defensively (missing live-in
	// cell, PC outside the code segment).
	Truncated int `json:"truncated"`
	// DominanceOK reports the core soundness property: static-clean implies
	// dynamically unflagged. Its violation is a Report failure.
	DominanceOK bool `json:"dominanceOK"`
}

// staticFindingsCap bounds how many rendered static findings a TaintReport
// carries; gadget-dense seeds can produce hundreds.
const staticFindingsCap = 10

// Knobs is the machine/distillation configuration derived from the seed.
// Varying these per seed is what walks the harness through the machine's
// whole behavior space — small task caps provoke overflow, non-speculative
// regions provoke nonspec squashes, aggressive bias thresholds provoke
// live-in misspeculation.
type Knobs struct {
	// Slaves is the slave-processor count.
	Slaves int `json:"slaves"`
	// MaxTaskLen is the speculative buffering cap.
	MaxTaskLen uint64 `json:"maxTaskLen"`
	// MinTaskSpacing is the fork-thinning distance.
	MinTaskSpacing uint64 `json:"minTaskSpacing"`
	// Stride is the profiling anchor stride.
	Stride uint64 `json:"stride"`
	// BiasThreshold is the distiller's pruning threshold.
	BiasThreshold float64 `json:"biasThreshold"`
	// NonSpec reports whether a non-speculative region covers part of the
	// data array.
	NonSpec bool `json:"nonSpec"`
}

// deriveKnobs expands the seed into a machine configuration. The draws use
// an independent rand stream (seed XOR a constant) so knob choices do not
// perturb program generation.
func deriveKnobs(seed uint64) Knobs {
	r := rand.New(rand.NewSource(int64(seed ^ 0xdecaf)))
	lens := []uint64{80, 200, 1000, 100_000}
	strides := []uint64{25, 50, 100}
	biases := []float64{0.80, 0.90, 0.97}
	spacings := []uint64{0, 0, 20, 60}
	return Knobs{
		Slaves:         1 + r.Intn(8),
		MaxTaskLen:     lens[r.Intn(len(lens))],
		MinTaskSpacing: spacings[r.Intn(len(spacings))],
		Stride:         strides[r.Intn(len(strides))],
		BiasThreshold:  biases[r.Intn(len(biases))],
		NonSpec:        r.Intn(4) == 0,
	}
}

// Config renders the knobs as a machine configuration.
func (k Knobs) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Slaves = k.Slaves
	cfg.MaxTaskLen = k.MaxTaskLen
	cfg.MinTaskSpacing = k.MinTaskSpacing
	cfg.SquashPenalty = 50
	if k.NonSpec {
		// A small window of the shared array becomes "I/O": generated
		// accesses that land in it squash as nonspec and replay in
		// sequential mode.
		cfg.NonSpecRegions = []task.AddrRange{{Lo: genDataBase + 60, Hi: genDataBase + ArrWords}}
	}
	return cfg
}

// Run performs the three-way differential for one seed and returns the
// report. It never returns an error: every way the run can go wrong is a
// finding, recorded in Report.Failures.
func Run(opts Options) *Report {
	rep := &Report{Seed: opts.Seed, FaultIntensity: opts.FaultIntensity}
	failf := func(format string, args ...any) {
		rep.Failures = append(rep.Failures, fmt.Sprintf(format, args...))
	}
	maxSteps := opts.MaxSeqSteps
	if maxSteps == 0 {
		maxSteps = defaultMaxSeqSteps
	}
	if opts.ModelCheckCap == 0 {
		opts.ModelCheckCap = 256
	}

	g := GenerateOpts(opts.Seed, GenOptions{Taint: opts.Taint})
	rep.Gen = g.Config
	rep.Knobs = deriveKnobs(opts.Seed)

	// In taint mode each clean leg gets its own dynamic observer; fault
	// legs run unobserved (injection corrupts task starts, so their replays
	// would sit outside the static analysis's coverage argument).
	var cleanObs, parCleanObs *taint.Observer
	if opts.Taint {
		var terr error
		if cleanObs, terr = taint.NewObserver(g.Prog); terr != nil {
			failf("taint: observer: %v", terr)
			return rep
		}
		if parCleanObs, terr = taint.NewObserver(g.Prog); terr != nil {
			failf("taint: observer: %v", terr)
			return rep
		}
	}

	// Leg 1: sequential baseline. The generator guarantees termination;
	// trust but verify. Under -interp slow the baseline runs on the
	// per-step fetch+decode interpreter; the default uses the predecoded
	// devirtualized loop. The interpreter differential asserts the two
	// produce identical reports.
	baseline := state.NewFromProgram(g.Prog, core.DefaultConfig().SP)
	var n uint64
	var err error
	if opts.Interp == "slow" {
		var res cpu.RunResult
		res, err = cpu.Run(cpu.StateEnv{S: baseline}, maxSteps)
		n = res.Steps
	} else {
		n, err = cpu.Seq(baseline, maxSteps)
	}
	rep.SeqSteps = n
	if err != nil {
		failf("generator: sequential baseline faulted after %d steps: %v", n, err)
		return rep
	}
	if n >= maxSteps {
		failf("generator: program did not halt within %d steps", maxSteps)
		return rep
	}
	rep.SeqDigest = baseline.Digest()

	// Distill from a profile of the same program. Profiling reruns the
	// sequential execution, so its cost is bounded by the baseline's.
	prof, err := profile.Collect(g.Prog, profile.Options{Stride: rep.Knobs.Stride, MaxSteps: maxSteps + 1})
	if err != nil {
		failf("profile: %v", err)
		return rep
	}
	dist, err := distill.Distill(g.Prog, prof, distill.Options{
		BiasThreshold:  rep.Knobs.BiasThreshold,
		MinBranchCount: 4,
		DeadCodeElim:   opts.DistillPasses,
	})
	if err != nil {
		failf("distill: %v", err)
		return rep
	}

	// Legs 2 and 3: MSSP clean, then MSSP faulted.
	rep.Clean = runLeg(EngineDet, g, dist, rep.Knobs, nil, baseline, opts, "clean", cleanObs, failf)
	if opts.FaultIntensity > 0 {
		plan := &FaultPlan{Seed: opts.Seed, Intensity: opts.FaultIntensity}
		rep.Fault = runLeg(EngineDet, g, dist, rep.Knobs, plan, baseline, opts, "fault", nil, failf)
	}

	// Legs 4 and 5: the true-parallel engine, differentially against both
	// the sequential baseline and the deterministic machine's digests.
	switch opts.Engine {
	case "", EngineDet:
		parCleanObs = nil
	case EngineParallel:
		rep.ParClean = runLeg(EngineParallel, g, dist, rep.Knobs, nil, baseline, opts, "par-clean", parCleanObs, failf)
		if rep.Clean != nil && rep.ParClean.FinalDigest != rep.Clean.FinalDigest {
			failf("par-clean: final digest %x differs from deterministic machine's %x",
				rep.ParClean.FinalDigest, rep.Clean.FinalDigest)
		}
		if opts.FaultIntensity > 0 {
			plan := &FaultPlan{Seed: opts.Seed, Intensity: opts.FaultIntensity}
			rep.ParFault = runLeg(EngineParallel, g, dist, rep.Knobs, plan, baseline, opts, "par-fault", nil, failf)
			if rep.Fault != nil && rep.ParFault.FinalDigest != rep.Fault.FinalDigest {
				failf("par-fault: final digest %x differs from deterministic machine's %x",
					rep.ParFault.FinalDigest, rep.Fault.FinalDigest)
			}
		}
	default:
		failf("options: unknown engine %q", opts.Engine)
	}
	if opts.Taint {
		rep.Taint = taintVerdict(g, dist, rep, cleanObs, parCleanObs, failf)
	}
	rep.OK = len(rep.Failures) == 0
	return rep
}

// taintVerdict runs the static leak rules over the generated program, folds
// in the clean legs' dynamic observations, records gadget/flag coverage, and
// checks dominance: a static-clean program must have zero dynamic flags. Any
// violation is a seed failure — it means either the static analysis has a
// soundness hole or the observer over-approximates outside the lattice.
func taintVerdict(g *Generated, dist *distill.Result, rep *Report,
	cleanObs, parCleanObs *taint.Observer, failf func(string, ...any)) *TaintReport {

	tr := &TaintReport{SecretDeclared: g.Config.SecretDeclared, Flags: map[string]int{}}

	findings, err := vet.CheckTaint(g.Prog, vet.TaintOptions{Roots: dist.Anchors})
	if err != nil {
		failf("taint: static: %v", err)
		return tr
	}
	tr.StaticCount = len(findings)
	tr.StaticClean = len(findings) == 0
	for i, f := range findings {
		if i >= staticFindingsCap {
			break
		}
		tr.StaticFindings = append(tr.StaticFindings, f.String())
	}

	for _, o := range []*taint.Observer{cleanObs, parCleanObs} {
		if o == nil {
			continue
		}
		for k, n := range o.Counts() {
			tr.Flags[k] += n
			tr.FlagCount += n
		}
		r, t := o.Replayed()
		tr.Replayed += r
		tr.Truncated += t
	}
	if rep.Clean != nil {
		rep.Clean.Coverage.AddGadgets(g.Config.Gadgets)
		if cleanObs != nil {
			rep.Clean.Coverage.AddFlags(cleanObs.Counts())
		}
	}
	if rep.ParClean != nil && parCleanObs != nil {
		rep.ParClean.Coverage.AddFlags(parCleanObs.Counts())
	}

	tr.DominanceOK = !tr.StaticClean || tr.FlagCount == 0
	if !tr.DominanceOK {
		failf("taint: dominance violated: static-clean program dynamically flagged %v", tr.Flags)
	}
	return tr
}

// runLeg executes one MSSP leg on the given engine (EngineDet or
// EngineParallel) under the streaming refinement auditor, the model shadow
// and the coverage sink, appending any divergence through failf. Only the
// engine call differs between engines: the auditors consume the
// engine-agnostic commit stream and cannot tell which machine produced it.
func runLeg(engine string, g *Generated, dist *distill.Result, knobs Knobs, plan *FaultPlan,
	baseline *state.State, opts Options, leg string, tob *taint.Observer,
	failf func(string, ...any)) *LegReport {

	lr := &LegReport{Coverage: NewCoverage()}
	cfg := knobs.Config()
	cfg.DisableFastPath = opts.Interp == "slow"
	cfg.DisableFusion = opts.Fuse == "off"
	if opts.TaskBuffer > 0 {
		cfg.TaskBuffer = opts.TaskBuffer
	}
	if plan != nil {
		cfg.Fault = plan.Injection()
	}
	obs.Attach(&cfg, lr.Coverage)
	if opts.Observe != nil {
		opts.Observe(leg, &cfg)
	}

	// The model shadow: an independently advanced sequential state. For
	// every committed task it re-derives the task tuple from the formal
	// model (seq over a full live-in state) and checks the simulator's
	// sparse live-out superimposition against it — Definition 6 checked
	// with internal/model semantics rather than internal/refine's.
	shadow := newModelAudit(baselineStart(g), opts.ModelCheckCap)
	aud := refine.NewAuditor(g.Prog, cfg.SP, refine.Options{FullCheckEvery: 16, CheckTaskSafety: true})
	cfg.OnCommit = func(ev core.CommitEvent) {
		shadow.onCommit(ev)
		aud.OnCommit(ev)
	}
	if tob != nil {
		// After OnCommit is set: Attach chains over the existing handlers.
		tob.Attach(&cfg)
	}

	metrics, final, err := runEngine(engine, g.Prog, dist, cfg)
	if err != nil {
		failf("%s: machine error: %v", leg, err)
		return lr
	}
	rrep := aud.Finish(final)
	lr.Commits = rrep.Commits
	lr.RefineOK = rrep.OK
	lr.Metrics = metrics.String()
	for _, v := range rrep.Violations {
		lr.Violations = append(lr.Violations, v.Error())
		failf("%s: refine: %v", leg, v)
	}
	lr.ModelChecked = shadow.checked
	for _, v := range shadow.violations {
		lr.ModelViolations = append(lr.ModelViolations, v)
		failf("%s: model: %s", leg, v)
	}
	lr.FinalMatchesSeq = final.Equal(baseline)
	lr.FinalDigest = final.Digest()
	if !lr.FinalMatchesSeq {
		failf("%s: final architected state differs from sequential baseline", leg)
	}
	return lr
}

// runEngine runs the program to halt on the deterministic machine or the
// true-parallel engine, returning the run's counters and final state.
func runEngine(engine string, p *isa.Program, dist *distill.Result, cfg core.Config) (core.Metrics, *state.State, error) {
	if engine == EngineParallel {
		res, err := parallel.Run(p, dist, cfg)
		if err != nil {
			return core.Metrics{}, nil, err
		}
		return res.Metrics, res.Final, nil
	}
	m, err := core.New(p, dist, cfg)
	if err != nil {
		return core.Metrics{}, nil, err
	}
	res, err := m.Run()
	if err != nil {
		return core.Metrics{}, nil, err
	}
	return res.Metrics, res.Final, nil
}

// baselineStart returns a fresh initial state for the generated program.
func baselineStart(g *Generated) *state.State {
	return state.NewFromProgram(g.Prog, core.DefaultConfig().SP)
}

// modelAudit is the internal/model task-safety shadow: it tracks its own
// sequential state and, for each committed task, checks that superimposing
// the simulator's live-out delta equals completing the formal model's task
// tuple — two independently computed post-states that must agree.
type modelAudit struct {
	ref        *state.State
	cap        int
	checked    int
	violations []string
}

func newModelAudit(start *state.State, cap int) *modelAudit {
	return &modelAudit{ref: start, cap: cap}
}

func (a *modelAudit) onCommit(ev core.CommitEvent) {
	if ev.Kind != "task" || a.checked >= a.cap {
		// Fallback chunks (and commits past the cap) just advance the
		// shadow; the refinement checker still audits them.
		if _, err := cpu.Seq(a.ref, ev.Steps); err != nil {
			a.violations = append(a.violations, fmt.Sprintf("shadow advance faulted: %v", err))
		}
		return
	}
	a.checked++
	t := model.NewTask(a.ref.Clone(), ev.Steps)
	if err := t.Complete(); err != nil {
		a.violations = append(a.violations, fmt.Sprintf("commit %d: model task evolution: %v", a.checked, err))
		return
	}
	applied := a.ref.Clone()
	applied.Apply(ev.LiveOut)
	if !applied.Equal(t.Out) {
		a.violations = append(a.violations,
			fmt.Sprintf("commit %d (task %d, %d steps): S ← live_out(t) differs from seq(S, #t)",
				a.checked, ev.TaskID, ev.Steps))
	}
	a.ref = t.Out
}
