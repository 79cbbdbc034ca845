package core

import (
	"fmt"

	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/task"
)

// Verdict is the verify unit's decision for the task at the head of the
// in-order queue: commit it, or squash it and everything younger.
type Verdict struct {
	// Reason is the squash taxonomy value (one of the Squash* constants),
	// or empty when the task commits.
	Reason string
	// Inconsistency is the first mismatching live-in cell (livein only).
	Inconsistency *state.Inconsistency
	// ForceFallback marks squashes whose recovery must run sequential mode
	// before re-engaging the master: non-idempotent accesses have to
	// execute architecturally, exactly once (nonspec), and an injected
	// watchdog demands it (forced).
	ForceFallback bool
}

// Classify is the verify unit's transition function: it decides whether
// task t, whose slave execution produced ex, may commit onto architected
// state arch. It is pure — it reads arch, t and ex and mutates none of them
// — and both engines call it through Retirer.Verify, so their retirement
// rules cannot drift apart.
//
// The precedence is fixed: an injected dropped completion, then an injected
// forced fallback (injection overrides whatever the slave computed), then a
// start-PC mismatch, an overflow, a fault, a non-speculative access, and
// finally the live-in check — the formal model's task-safety condition.
func Classify(arch *state.State, t *task.Task, ex *task.Exec, f *FaultInjection) Verdict {
	if f != nil {
		if f.DropCompletion != nil && f.DropCompletion(t.ID) {
			return Verdict{Reason: SquashDropped}
		}
		if f.ForceFallback != nil && f.ForceFallback(t.ID) {
			return Verdict{Reason: SquashForced, ForceFallback: true}
		}
	}
	switch {
	case t.Start != arch.PC:
		return Verdict{Reason: SquashStartMismatch}
	case ex.Outcome == task.OutcomeOverflow:
		return Verdict{Reason: SquashOverflow}
	case ex.Outcome == task.OutcomeFault:
		return Verdict{Reason: SquashFault}
	case ex.Outcome == task.OutcomeNonSpec:
		return Verdict{Reason: SquashNonSpec, ForceFallback: true}
	}
	if inc := arch.FirstInconsistency(ex.LiveIn); inc != nil {
		return Verdict{Reason: SquashLiveIn, Inconsistency: inc}
	}
	return Verdict{}
}

// Clock stamps the lifecycle events a Retirer emits: it is called once per
// event, in emission order, and returns the event's Cycle. steps is the
// number of instructions sequential mode retired since its fallback-enter
// event — nonzero only when stamping fallback-exit — so a timing model can
// charge them. Machine reads model time; the parallel engine returns one
// virtual tick per call.
type Clock func(steps uint64) float64

// InFlight is one spawned, not yet retired task as the retirement
// bookkeeping sees it. Engines embed it by value in their own queue
// entries, which they reuse from task to task: an entry owns its task, and
// Fork refills it in place.
type InFlight struct {
	// T is the task: start PC, checkpoint and architected snapshot.
	T task.Task
	// Ex is the slave's execution of T, nil until it has run.
	Ex *task.Exec
}

// Retirer is the retirement policy both engines share: the verify/commit
// unit's bookkeeping around Classify. It owns architected state — it is its
// only writer — together with the livelock guard, the metrics and the
// Config hooks. It admits forks, commits and squashes tasks, and runs
// sequential mode. Machine and the parallel engine embed it by value and
// differ only in how they schedule and time the calls.
// Every method runs on the one goroutine that owns architected state.
type Retirer struct {
	// Cfg is the machine configuration, with Init's defaults applied.
	Cfg Config
	// Dist is the distillation the master runs.
	Dist *distill.Result
	// Arch is architected state.
	Arch *state.State
	// Metrics holds the run's counters.
	Metrics Metrics
	// Done reports that architected execution reached HALT (or a real
	// program fault in sequential mode): the run is over.
	Done bool
	// Pool recycles task scratch and architected snapshots across task
	// lives. It is safe for concurrent use by slave workers.
	Pool task.Pool

	// Tables holds the predecoded original and distilled programs, both
	// nil when Config.DisableFastPath, and the anchor set. They are
	// distill.Result.Tables's, shared with every machine built from the same
	// distillation and original program, so the retirer never writes them.
	Tables distill.Tables

	clock Clock
	// codeClean reports that the architected code segment still matches
	// Tables.Orig: committed live-outs and fallback stores can write code
	// addresses, and the retirer stops handing the table to new tasks the
	// moment one does. code is the original program's code segment.
	codeClean bool
	code      isa.Segment
	taskSeq   uint64

	lastSquashCommitted uint64
	anySquash           bool
}

// Init applies Config defaults, validates the structural parameters, and
// builds initial architected state. It takes the predecoded original and
// distilled programs from dist (distill.Result.Tables: fused unless
// Config.DisableFusion, none under Config.DisableFastPath), which builds
// them once for every machine that runs orig under dist. clock stamps
// every lifecycle event the retirer emits.
func (r *Retirer) Init(orig *isa.Program, dist *distill.Result, cfg Config, clock Clock) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if err := orig.Validate(); err != nil {
		return fmt.Errorf("original program: %w", err)
	}
	if cfg.MaxCommitted == 0 {
		cfg.MaxCommitted = 10_000_000_000
	}
	if cfg.SP == 0 {
		cfg.SP = 1 << 28
	}
	if cfg.TaskBuffer == 0 {
		cfg.TaskBuffer = 4 * cfg.Slaves
	}
	if cfg.TaskBuffer < cfg.Slaves {
		cfg.TaskBuffer = cfg.Slaves
	}
	r.Cfg = cfg
	r.Dist = dist
	r.Arch = state.NewFromProgram(orig, cfg.SP)
	r.code = orig.Code
	r.clock = clock
	if cfg.DisableFastPath {
		r.Tables = distill.Tables{Anchors: dist.AnchorSet()}
	} else {
		r.Tables = dist.Tables(orig, !cfg.DisableFusion)
		r.codeClean = true
	}
	return nil
}

// Emit delivers a lifecycle event to Config.OnLifecycle, if set. The
// retirer stamps its own events; engines stamp the ones they emit here.
func (r *Retirer) Emit(ev LifecycleEvent) {
	if r.Cfg.OnLifecycle != nil {
		r.Cfg.OnLifecycle(ev)
	}
}

// Fork admits the task the master just forked at anchor, predicting machine
// state with ck, into t; queued is the number of tasks already in flight.
// t belongs to the caller, an engine's queue entry reused from task to
// task: Fork overwrites every field but Cancel, which stays the engine's.
// It applies fault injection, snapshots architected state, and emits the
// fork event. Injection corrupts only the spawning task — the open task's
// end anchor keeps the uncorrupted value — so one injected fault stays one
// fault. In steady state Fork allocates nothing.
func (r *Retirer) Fork(t *task.Task, anchor uint64, ck task.Checkpoint, queued int) {
	*t = task.Task{
		ID:         r.taskSeq,
		Start:      anchor,
		Checkpoint: ck,
		Snap:       r.Pool.CloneState(r.Arch),
		Code:       r.taskCode(),
		NonSpec:    r.Cfg.NonSpecRegions,
		Cancel:     t.Cancel,
	}
	if f := r.Cfg.Fault; f != nil {
		if f.CorruptStart != nil {
			t.Start = f.CorruptStart(t.ID, anchor)
		}
		if f.CorruptCheckpoint != nil {
			f.CorruptCheckpoint(t.ID, &t.Checkpoint)
		}
	}
	r.taskSeq++
	r.Metrics.Forks++
	r.Metrics.CheckpointNew += uint64(t.Checkpoint.NewDiffWords)
	r.Metrics.RunaheadSum += uint64(queued)
	r.Emit(LifecycleEvent{
		Kind:   LifecycleFork,
		Cycle:  r.clock(0),
		TaskID: t.ID,
		Start:  t.Start,
		Queue:  queued + 1,
	})
}

// Verify is the verify unit's decision for h, the task at the head of the
// in-order queue: Classify's, unless Classify lets h commit and h's
// live-out changes a word of the original program's code segment. A slave
// fetches its code from its snapshot, so h may have run the word's old
// instruction after its store, and every task admitted after h ran it. h
// then fails as a live-in on the lowest such word, which its fetches read
// at the snapshot's value, and sequential mode performs the write.
func (r *Retirer) Verify(h *InFlight) Verdict {
	v := Classify(r.Arch, &h.T, h.Ex, r.Cfg.Fault)
	if v.Reason != "" {
		return v
	}
	if a, stored, ok := r.codeWrite(h.Ex.LiveOut, true); ok {
		return Verdict{Reason: SquashLiveIn, ForceFallback: true, Inconsistency: &state.Inconsistency{
			Cell: fmt.Sprintf("m%d", a), Delta: r.Arch.Mem.Read(a), Got: stored}}
	}
	return v
}

// Commit retires h, which Verify let commit: the jump. Architected state
// advances #t sequential steps by superimposing the live-outs. Commit then
// fires OnCommit, emits the commit event, releases h's pooled resources
// and, at HALT, sets Done.
func (r *Retirer) Commit(h *InFlight) {
	ex := h.Ex
	r.noteCodeWrites(ex.LiveOut)
	r.Arch.Apply(ex.LiveOut)

	r.Metrics.TasksCommitted++
	r.Metrics.CommittedInsts += ex.Steps
	r.Metrics.LiveInWords += uint64(ex.LiveIn.Len())
	r.Metrics.LiveOutWords += uint64(ex.LiveOut.Len())

	halted := ex.Outcome == task.OutcomeHalted
	if r.Cfg.OnCommit != nil {
		r.Cfg.OnCommit(CommitEvent{
			Kind:    "task",
			TaskID:  h.T.ID,
			Start:   h.T.Start,
			Steps:   ex.Steps,
			Halted:  halted,
			LiveIn:  ex.LiveIn,
			LiveOut: ex.LiveOut,
			Arch:    r.Arch,
		})
	}
	r.Emit(LifecycleEvent{
		Kind:   LifecycleCommit,
		Cycle:  r.clock(0),
		TaskID: h.T.ID,
		Start:  h.T.Start,
		Steps:  ex.Steps,
		Halted: halted,
	})
	r.Release(h)
	if halted {
		r.Done = true
	}
}

// Squash records the failed verification of h, with discarded younger
// tasks going down with it: it counts the reason, fires OnSquash and emits
// the squash event. The caller then discards its speculative state and
// reports whether recovery must run sequential mode (Fallback) before
// reseeding the master — when the verdict forces it, or when nothing
// committed since the previous squash, so repeated failures cannot
// livelock. Either way the caller closes recovery with Recovered.
func (r *Retirer) Squash(h *InFlight, v Verdict, discarded int) (fallback bool) {
	switch v.Reason {
	case SquashDropped:
		r.Metrics.TasksDropped++
	case SquashForced:
		r.Metrics.TasksForced++
	case SquashStartMismatch:
		r.Metrics.TasksStartMismatch++
	case SquashOverflow:
		r.Metrics.TasksOverflowed++
	case SquashFault:
		r.Metrics.TasksFaulted++
	case SquashNonSpec:
		r.Metrics.TasksNonSpec++
	case SquashLiveIn:
		r.Metrics.TasksMisspec++
	}
	if r.Cfg.OnSquash != nil {
		ev := SquashEvent{
			TaskID:        h.T.ID,
			Start:         h.T.Start,
			Reason:        v.Reason,
			Inconsistency: v.Inconsistency,
			Discarded:     discarded,
		}
		if h.Ex != nil {
			ev.Steps = h.Ex.Steps
			ev.LiveIn = h.Ex.LiveIn
		}
		r.Cfg.OnSquash(ev)
	}
	r.Emit(LifecycleEvent{
		Kind:      LifecycleSquash,
		Cycle:     r.clock(0),
		TaskID:    h.T.ID,
		Start:     h.T.Start,
		Reason:    v.Reason,
		Discarded: discarded,
	})
	r.Metrics.Squashes++
	r.Metrics.TasksSquashedDown += uint64(discarded)
	return v.ForceFallback || (r.anySquash && r.Metrics.CommittedInsts == r.lastSquashCommitted)
}

// Recovered closes a squash's recovery, after any sequential mode it ran:
// the next squash's livelock guard compares against what has committed by
// now.
func (r *Retirer) Recovered() {
	r.anySquash = true
	r.lastSquashCommitted = r.Metrics.CommittedInsts
}

// Release returns a retired task's pooled resources (execution scratch and
// architected snapshot). It must run exactly once per task, after the
// task's last use.
func (r *Retirer) Release(h *InFlight) {
	r.Pool.Release(h.Ex)
	h.Ex = nil
	r.Pool.ReleaseState(h.T.Snap)
	h.T.Snap = nil
}

// Fallback is the machine's sequential mode: it executes the original
// program non-speculatively on architected state until the next anchor (or
// halt, or a bound of 4×MaxTaskLen), and returns the instructions it
// retired. An architected-state fault is a real program fault and ends the
// run like a halt. Forward progress is guaranteed: at least one
// instruction executes unless the first one faults.
func (r *Retirer) Fallback() (steps uint64) {
	// Fallback runs the original program against architected state, so the
	// predecoded table is valid exactly while the code segment is clean; the
	// runner's own dirty tracking catches stores this chunk performs. It
	// runs one instruction per call, so it sees every arrival at an anchor,
	// a fall-through into one included.
	code := cpu.NewCode(r.taskCode())
	bound := 4 * r.Cfg.MaxTaskLen
	halted := false
	r.Emit(LifecycleEvent{
		Kind:  LifecycleFallbackEnter,
		Cycle: r.clock(0),
		Start: r.Arch.PC,
	})
	for steps < bound {
		res, err := code.RunState(r.Arch, 1)
		if err != nil {
			halted = true
			break
		}
		steps++
		if res.Halted {
			halted = true
			break
		}
		if r.Tables.Anchors[r.Arch.PC] {
			break
		}
	}
	if code.Dirty() {
		r.codeClean = false
	}
	r.Metrics.SeqFallbackInsts += steps
	r.Metrics.CommittedInsts += steps
	r.Done = halted

	if r.Cfg.OnCommit != nil && steps > 0 {
		r.Cfg.OnCommit(CommitEvent{Kind: "fallback", Steps: steps, Halted: halted, Arch: r.Arch})
	}
	r.Emit(LifecycleEvent{
		Kind:   LifecycleFallbackExit,
		Cycle:  r.clock(steps),
		Steps:  steps,
		Halted: halted,
	})
	return steps
}

// taskCode returns the predecoded original program for a new execution over
// architected code, or nil once the code segment has been written (or when
// the fast path is disabled).
func (r *Retirer) taskCode() *isa.DecodedProgram {
	if r.codeClean {
		return r.Tables.Orig
	}
	return nil
}

// noteCodeWrites clears codeClean if the committed live-out d binds a word
// of the original program's code segment, even at the value it holds.
// Called before every live-out superimposition.
func (r *Retirer) noteCodeWrites(d *state.Delta) {
	if _, _, ok := r.codeWrite(d, false); ok {
		r.codeClean = false
	}
}

// codeWrite returns the lowest word of the original program's code segment
// that d binds, with its value, and whether there is one; with changed,
// only a word d binds to a value architected state does not hold. It checks
// word by word only when d's bounds straddle the segment.
func (r *Retirer) codeWrite(d *state.Delta, changed bool) (addr, v uint64, ok bool) {
	lo, hi, bound := d.MemBounds()
	if !bound || hi < r.code.Base || lo >= r.code.End() {
		return 0, 0, false
	}
	d.RangeMem(func(a, w uint64) bool {
		addr, v = a, w
		ok = a >= r.code.Base && a < r.code.End() && (!changed || r.Arch.Mem.Read(a) != w)
		return !ok
	})
	return addr, v, ok
}
