// Package parallel implements a true-parallel MSSP machine: the master, the
// slave pool, and the verify/commit unit run on real goroutines, with tasks
// retired strictly in program order through a reservation/check-commit
// protocol (internal/parallel/ring.go).
//
// # Relation to internal/core
//
// internal/core is the deterministic reference machine: a discrete-event
// model in which "parallelism" is bookkeeping over a single goroutine. This
// package executes the same paradigm with real concurrency — the master (the
// core.Master the deterministic machine runs inline) runs ahead on its own
// goroutine while slaves execute speculative tasks on a worker pool — and is
// differentially checked against core: because commits only happen when a
// task's recorded live-ins are consistent with architected state, the final
// architected state is schedule-independent and must equal the
// deterministic machine's (and SEQ's) bit for bit, no matter how the
// goroutines interleave. Squash counts and the fork schedule may differ
// (the parallel master keeps running while older work verifies, so it can be
// further ahead or behind than the model predicts); the refinement argument
// does not depend on them.
//
// # Threading model
//
// Exactly one goroutine — the coordinator, running Engine.run — owns
// architected state, the reservation ring, metrics, and event emission.
// Everything else communicates with it over channels:
//
//	master life ── queue ──▶ coordinator ◀── resultCh ── slave workers
//	     ▲                     │       │ dispatchCh
//	     └─── credit, stop ────┘       ▼
//	                             slave workers
//
// The master deposits forks on one engine-owned queue without waiting for
// the coordinator, within a credit window that grows with the commits of
// its life (see masterLife).
//
// The coordinator performs every snapshot/clone of the architected family
// itself, so the memory snapshot graph (internal/mem's concurrency contract)
// only ever branches under a single goroutine per value; the atomic
// generation counter makes the master's own snapshots of its private image
// safe against the coordinator snapshotting siblings concurrently.
//
// Squashes are epoch-based: the coordinator bumps an atomic epoch, discards
// the ring, and stops the master life. In-flight slave work from the dead
// epoch cancels itself cooperatively (task.Task.Cancel) and its results are
// dropped on arrival. A task of the *current* epoch can never be canceled —
// cancellation implies the epoch moved, which implies the coordinator already
// discarded the slot — so a canceled outcome at the verification head is an
// engine bug, not a recoverable condition.
//
// Events (Config.OnLifecycle, OnCommit, OnSquash) are emitted only by the
// coordinator, in commit order, with a virtual clock (a monotone counter) in
// place of model time: wall-clock timestamps would make the stream
// nondeterministic and are banned from engine code anyway (goanalysis GA001).
// Timing fields of core.Config (CPIs, latencies, penalties) are ignored;
// structural fields (Slaves, TaskBuffer, MaxTaskLen, MasterRunaheadCap,
// MinTaskSpacing, fault injection, ...) mean exactly what they mean in core.
package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/task"
)

// Result is the outcome of a completed parallel run.
type Result struct {
	// Metrics holds the functional counters (instruction counts, squash
	// taxonomy, traffic). Cycle-model fields stay zero: this machine runs in
	// wall-clock time, it does not model time. Counters that depend on the
	// fork/verify interleaving (Squashes, RunaheadSum, ...) are
	// schedule-dependent; CommittedInsts and the final state are not.
	Metrics core.Metrics
	// Final is the architected state at program halt.
	Final *state.State
	// Goroutines is the number of goroutines the engine spawned over the
	// whole run (worker pool + master lives + shutdown helper).
	Goroutines int
}

// Run executes the program to completion on the parallel machine.
func Run(orig *isa.Program, dist *distill.Result, cfg core.Config) (*Result, error) {
	e, err := newEngine(orig, dist, cfg)
	if err != nil {
		return nil, err
	}
	return e.run()
}

// Engine is one parallel MSSP machine instance, single-use. The embedded
// Retirer is the verify/commit unit shared with core.Machine; Engine adds
// the ring, the epochs and the goroutines around it. All fields are
// coordinator-owned unless noted.
type Engine struct {
	core.Retirer

	// master is the engine's one master processor, reused by every life.
	// It is its own allocation, so the master goroutine's writes stay off
	// the coordinator's cache lines. Each life has it from the reseed that
	// starts the life to the exit report that ends it: lives never overlap
	// (the coordinator starts the next life only after receiving that
	// report).
	master *core.Master

	// epoch is the squash epoch, read by slave workers and Cancel hooks.
	epoch atomic.Uint64

	ring *ring
	life *masterLife // nil while the master is dead

	// queue carries every master life's forks, then its exit report, to the
	// coordinator. Lives never overlap and each leaves the queue empty (see
	// masterLife), so the one queue, allocated with the engine, serves
	// them all.
	queue chan lifeMsg

	// dispatchCh carries closed slots to the worker pool; resultCh carries
	// them back with s.Ex filled in. Capacities are sized so workers never
	// block on resultCh and the coordinator rarely blocks on dispatchCh.
	dispatchCh chan *slot
	resultCh   chan *slot
	workerWg   sync.WaitGroup
	goroutines int

	// vclock is the virtual clock stamped on lifecycle events: a counter
	// incremented per event, giving a deterministic, monotone Cycle field
	// without wall-clock time.
	vclock float64
	err    error
}

func newEngine(orig *isa.Program, dist *distill.Result, cfg core.Config) (*Engine, error) {
	// Structural validation only: the timing parameters core validates are
	// ignored here.
	e := &Engine{}
	if err := e.Init(orig, dist, cfg, e.tick); err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	e.ring = newRing(e.Cfg.TaskBuffer)
	e.queue = make(chan lifeMsg, e.Cfg.TaskBuffer)
	e.dispatchCh = make(chan *slot, e.Cfg.TaskBuffer)
	e.resultCh = make(chan *slot, e.Cfg.TaskBuffer+e.Cfg.Slaves+4)
	e.master = e.NewMaster()
	return e, nil
}

// run is the coordinator goroutine body (it runs on the caller's goroutine).
func (e *Engine) run() (*Result, error) {
	for i := 0; i < e.Cfg.Slaves; i++ {
		id := i
		e.spawn(&e.workerWg, func() { e.slaveWorker(id) })
	}
	e.reseed()

	for !e.Done && e.err == nil {
		if e.Metrics.CommittedInsts > e.Cfg.MaxCommitted {
			e.err = fmt.Errorf("parallel: committed instructions exceeded MaxCommitted=%d", e.Cfg.MaxCommitted)
			break
		}
		if e.life == nil {
			e.drain()
			continue
		}
		select {
		case m := <-e.queue:
			if e.receive(&m) {
				e.handleFork(m.fork)
			}
		case s := <-e.resultCh:
			e.noteResult(s)
			e.drainResults()
			e.commitDue()
		}
	}

	e.shutdown()
	if e.err != nil {
		return nil, e.err
	}
	return &Result{Metrics: e.Metrics, Final: e.Arch, Goroutines: e.goroutines}, nil
}

// receive accounts for one message of the current life taken off the queue
// and reports whether it is a fork. A fork's credit goes straight back to the
// life, so its window stays what commits made it; the exit report is folded
// in and ends the life.
func (e *Engine) receive(m *lifeMsg) (fork bool) {
	if m.last {
		e.Metrics.AddMaster(m.exit)
		e.life = nil
		return false
	}
	// Cannot block: the fork spent this credit, so at most window-1 of the
	// life's credits are in its channel, whose capacity TaskBuffer the
	// window never exceeds.
	e.life.credit <- struct{}{}
	return true
}

// widen grants the current life one more credit for a commit, up to
// TaskBuffer. Every slot in the ring belongs to the current life while it
// lives (a life starts only on an empty ring), so any commit with a life
// present is one of its tasks.
func (e *Engine) widen() {
	l := e.life
	if l == nil || l.window == e.Cfg.TaskBuffer {
		return
	}
	l.window++
	// Cannot block: the credits in the channel never exceed the window
	// before this grant, which is below TaskBuffer, the channel's capacity.
	l.credit <- struct{}{}
}

// handleFork processes one taken fork from the live master: close the open
// reservation (the fork names its end), retire whatever results have already
// arrived, stall on a full ring, and reserve the new task. A squash anywhere
// in the middle (epoch change) makes the fork stale — the master life that
// produced it is already being stopped — so it is dropped.
func (e *Engine) handleFork(fm forkMsg) {
	epoch := e.epoch.Load()
	if open := e.ring.Open(); open != nil {
		if err := e.ring.Close(open, fm.anchor, fm.count, true); err != nil {
			e.err = err
			return
		}
		e.dispatch(open)
	}

	// Retire everything already verifiable, so the new task's architected
	// snapshot is as fresh as possible (fewer stale live-ins to mispredict).
	e.commitDue()
	if e.Done || e.err != nil || e.epoch.Load() != epoch {
		return
	}

	// Reservation backpressure: the coordinator takes no further fork off
	// the queue until the oldest reservation retires; the master runs on
	// until its credits are spent.
	for e.ring.Full() {
		h := e.ring.Head()
		if h.state == SlotDone {
			if e.verifyHead() {
				return // squashed; the fork is stale
			}
			if e.Done || e.err != nil {
				return
			}
			continue
		}
		s := <-e.resultCh
		e.noteResult(s)
		if e.err != nil {
			return
		}
	}

	e.reserve(fm)
}

// reserve appends an open reservation to the ring and admits the fork into
// its task through the Retirer.
func (e *Engine) reserve(fm forkMsg) {
	queued := e.ring.Len()
	s, err := e.ring.Reserve(e.epoch.Load())
	if err != nil {
		e.err = err
		return
	}
	if s.T.Cancel == nil {
		// Cancel makes in-flight work from squashed epochs abandon itself
		// instead of running to the cap on a doomed prediction. It reads
		// the epoch of whichever reservation holds the slot, so one hook
		// per slot serves them all; Fork keeps it.
		s.T.Cancel = func() bool { return e.epoch.Load() != s.epoch }
	}
	e.Fork(&s.T, fm.anchor, fm.ck, queued)
}

// dispatch hands a closed slot to the worker pool, draining results if the
// dispatch queue is momentarily full (it cannot stay full: closed slots are
// bounded by the ring capacity, which equals the queue capacity).
func (e *Engine) dispatch(s *slot) {
	s.atWorker = true
	for {
		select {
		case e.dispatchCh <- s:
			return
		case r := <-e.resultCh:
			e.noteResult(r)
		}
	}
}

// noteResult records a slave's completed execution. Results from dead epochs
// are stale — their slots left the ring at the squash — and are dropped,
// which is also the point where an in-flight-at-squash slot and its pooled
// resources finally come home (nothing else may reclaim them earlier: the
// worker owned the task and the scratch until this arrival).
func (e *Engine) noteResult(s *slot) {
	s.atWorker = false
	if s.epoch != e.epoch.Load() {
		e.Release(&s.InFlight)
		e.ring.recycle(s)
		return
	}
	if err := e.ring.Complete(s); err != nil {
		e.err = err
	}
}

// drainResults greedily absorbs every slave result already queued, without
// blocking. Batching the receives ahead of commitDue lets one verification
// pass publish a whole run of completed tasks in program order instead of
// alternating channel receives and single commits (parallel/commit_ns).
func (e *Engine) drainResults() {
	for e.err == nil {
		select {
		case s := <-e.resultCh:
			e.noteResult(s)
		default:
			return
		}
	}
}

// commitDue retires every head reservation whose result has arrived, in
// program order, stopping at the first squash (which empties the ring).
func (e *Engine) commitDue() {
	for !e.Done && e.err == nil {
		h := e.ring.Head()
		if h == nil || h.state != SlotDone {
			return
		}
		if e.verifyHead() {
			return
		}
	}
}

// verifyHead verifies the oldest reservation (which must hold its result)
// with core.Retirer.Verify, committing or squashing through the Retirer.
// Reports whether a squash occurred.
func (e *Engine) verifyHead() (squashed bool) {
	h := e.ring.Head()

	e.Emit(core.LifecycleEvent{
		Kind:   core.LifecycleDispatch,
		Cycle:  e.tick(0),
		TaskID: h.T.ID,
		Start:  h.T.Start,
		Slave:  h.slave,
	})
	e.Emit(core.LifecycleEvent{
		Kind:   core.LifecycleVerify,
		Cycle:  e.tick(0),
		TaskID: h.T.ID,
		Start:  h.T.Start,
	})

	if h.Ex.Outcome == task.OutcomeCanceled {
		// Cancellation implies the slot's epoch died, which implies the slot
		// left the ring — a canceled head is a protocol violation.
		e.err = fmt.Errorf("parallel: canceled task %d at verification head", h.T.ID)
		return false
	}
	if v := e.Verify(&h.InFlight); v.Reason != "" {
		e.squashAndRecover(e.Squash(&h.InFlight, v, e.ring.Len()-1))
		return true
	}
	// The coordinator is the sole writer of architected state, so the
	// commit's superimposition needs no locking.
	if err := e.ring.PopCommitted(); err != nil {
		e.err = err
		return false
	}
	e.Commit(&h.InFlight)
	e.ring.recycle(h)
	e.widen()
	return false
}

// squashAndRecover discards all speculative state: the ring is emptied
// (discard) and the master life is stopped synchronously. Recovery then
// runs sequential mode if the Retirer asked for it (fallback) and reseeds
// from architected state.
func (e *Engine) squashAndRecover(fallback bool) {
	e.discard()
	e.stopMaster()

	if fallback {
		e.Fallback()
	}
	e.Recovered()
	if e.Done || e.err != nil {
		return
	}
	e.reseed()
}

// discard empties the ring under a new epoch, which invalidates every
// in-flight slave execution (cooperative cancellation) and makes its result
// stale (dropped on arrival). It reclaims what the coordinator still owns,
// and SquashAll recycles those slots. A slot at a worker is in flight — the
// worker owns its task and scratch until the stale result arrives back in
// noteResult, which is its release point.
func (e *Engine) discard() {
	e.epoch.Add(1)
	for i := 0; i < e.ring.Len(); i++ {
		if s := e.ring.at(i); !s.atWorker {
			e.Release(&s.InFlight)
		}
	}
	e.ring.SquashAll()
}

// drain handles a dead master: verify whatever is in flight (the youngest
// reservation runs endless, to halt or the cap), then make progress
// sequentially and try to revive the master.
func (e *Engine) drain() {
	if !e.ring.Empty() {
		if open := e.ring.Open(); open != nil {
			// End remains unknown: the task runs until halt or cap.
			if err := e.ring.Close(open, 0, 0, false); err != nil {
				e.err = err
				return
			}
			e.dispatch(open)
		}
		h := e.ring.Head()
		for h.state != SlotDone && e.err == nil {
			s := <-e.resultCh
			e.noteResult(s)
		}
		if e.err != nil {
			return
		}
		e.verifyHead()
		return
	}
	e.Fallback()
	if e.Done {
		return
	}
	// If the architected PC does not map into the distilled program the
	// master stays dead and the next drain call falls back again; forward
	// progress is guaranteed because sequential mode always executes at
	// least one instruction.
	e.reseed()
}

// reseed starts a new master life from architected state, if the architected
// PC maps into the distilled program.
func (e *Engine) reseed() {
	if !e.master.Reseed(e.Arch) {
		e.life = nil
		return
	}
	l := &masterLife{
		credit: make(chan struct{}, e.Cfg.TaskBuffer),
		stop:   make(chan struct{}),
		window: 1,
	}
	l.credit <- struct{}{}
	e.life = l
	// The life's goroutine is tracked by its exit report, not the worker
	// WaitGroup: receive or stopMaster always consumes the report.
	e.spawn(nil, func() { e.runMaster(l) })
}

// stopMaster stops the current master life, if any, and folds in its exit
// report. It receives up to that report, dropping the stale forks the life
// queued ahead of it, so it returns with the queue empty; a life that
// already ended on its own has its report waiting behind them.
func (e *Engine) stopMaster() {
	if e.life == nil {
		return
	}
	close(e.life.stop)
	m := <-e.queue
	for !m.last {
		m = <-e.queue
	}
	e.Metrics.AddMaster(m.exit)
	e.life = nil
}

// shutdown tears the machine down: stop the master, close the dispatch
// queue so workers exit, and drain results until the pool is gone. Called
// once, after the main loop; by the time run returns, every goroutine the
// engine spawned has exited or is past its last shared access.
func (e *Engine) shutdown() {
	e.stopMaster()
	close(e.dispatchCh)
	e.spawn(nil, func() {
		e.workerWg.Wait()
		close(e.resultCh)
	})
	for range e.resultCh {
		// Discard: the run is over; stale results carry no state anyone
		// will read.
	}
}

// canceledExec is the shared stub result for work skipped because its epoch
// died before a worker picked it up. It is immutable: stale slots are dropped
// in noteResult without reading the deltas, and Pool.Release passes it
// through as unpooled.
var canceledExec = &task.Exec{Outcome: task.OutcomeCanceled, LiveIn: state.NewDelta(), LiveOut: state.NewDelta()}

// slaveWorker is the worker-pool goroutine body: execute closed reservations
// on pooled scratch and send them back. Work from dead epochs is skipped
// outright (cheaper than letting Cancel fire on the first poll).
func (e *Engine) slaveWorker(id int) {
	for s := range e.dispatchCh {
		if s.epoch == e.epoch.Load() {
			s.slave = id
			s.Ex = e.Pool.Execute(&s.T, e.Cfg.MaxTaskLen)
		} else {
			s.Ex = canceledExec
		}
		e.resultCh <- s
	}
}

// tick advances the virtual clock by one event. It is the engine's
// core.Clock: sequential mode's steps do not advance it further.
func (e *Engine) tick(uint64) float64 {
	e.vclock++
	return e.vclock
}
