package core

import (
	"fmt"
	"math"

	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/state"
	"mssp/internal/task"
)

// pend is a spawned task waiting, executing, or awaiting verification. It
// owns its task by value and is reused for every task its queue position
// admits.
type pend struct {
	InFlight
	closed bool // end PC known (or declared endless during drain)

	forkAt   float64 // master clock at spawn
	closedAt float64 // master clock when the end-defining fork was taken
}

// pendQueue holds the in-flight tasks in program order, oldest first: a
// circular buffer of Config.TaskBuffer entries, each reused in place once
// its task retires, so admitting a task allocates nothing.
type pendQueue struct {
	buf     []pend
	head, n int
}

// at returns the i-th oldest entry.
func (q *pendQueue) at(i int) *pend { return &q.buf[(q.head+i)%len(q.buf)] }

// push claims the entry after the youngest; the queue must not be full.
func (q *pendQueue) push() *pend {
	q.n++
	return q.at(q.n - 1)
}

// pop drops the oldest entry.
func (q *pendQueue) pop() {
	q.head = (q.head + 1) % len(q.buf)
	q.n--
}

// Machine is one MSSP machine instance, single-use: construct, Run, inspect.
// The embedded Retirer is the verify/commit unit; Machine adds the
// deterministic schedule and the cycle model around it.
type Machine struct {
	Retirer

	// master runs inline between simulation events. masterAlive reports
	// that a master life is running, and masterClock is the master's model
	// time: Run's steps at MasterCPI, plus its stalls.
	master      *Master
	masterAlive bool
	masterClock float64

	queue pendQueue // program order; tail may be open

	slaveFree     []float64
	commitFree    float64
	lastCommitEnd float64
	// at is the model time the Retirer's next lifecycle events are stamped
	// with (see stamp).
	at float64
}

// Result is the outcome of a completed run.
type Result struct {
	// Metrics holds all counters and the cycle model's totals.
	Metrics Metrics
	// Final is the architected state at program halt.
	Final *state.State
	// Cycles is the modeled end-to-end execution time.
	Cycles float64
}

// New builds a machine for the given original program and distillation.
func New(orig *isa.Program, dist *distill.Result, cfg Config) (*Machine, error) {
	if err := cfg.validateTiming(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Machine{}
	if err := m.Init(orig, dist, cfg, m.stamp); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.slaveFree = make([]float64, m.Cfg.Slaves)
	m.queue.buf = make([]pend, m.Cfg.TaskBuffer)
	m.master = m.NewMaster()
	return m, nil
}

// stamp is the Machine's Clock: model time at, plus sequential mode's
// instructions at slave speed.
func (m *Machine) stamp(steps uint64) float64 {
	return m.at + float64(steps)*m.Cfg.SlaveCPI
}

// Run executes the program to completion under MSSP and returns the result.
func (m *Machine) Run() (*Result, error) {
	m.reseed(0)

	for !m.Done {
		if m.Metrics.CommittedInsts > m.Cfg.MaxCommitted {
			return nil, fmt.Errorf("core: committed instructions exceeded MaxCommitted=%d", m.Cfg.MaxCommitted)
		}

		if !m.masterAlive {
			m.drain()
			continue
		}

		r := m.master.Run(math.MaxUint64)
		m.Metrics.AddMaster(r)
		m.masterClock += float64(r.Steps) * m.Cfg.MasterCPI
		if r.Stop != MasterForked {
			m.masterAlive = false
			continue // halted or lost: drain on the next iteration
		}

		// The fork closes the open task, if any.
		if open := m.openTask(); open != nil {
			open.T.End = r.Anchor
			open.T.EndCount = r.Count
			open.T.HasEnd = true
			open.closed = true
			open.closedAt = m.masterClock
		}

		// Commit everything that would have committed by now, so the new
		// task's architected snapshot is as fresh as the hardware's.
		if m.processDue(m.masterClock) {
			continue // a squash reset the pipeline
		}

		// Enforce in-flight capacity: the master stalls until the oldest
		// task's slot frees.
		squashed := false
		for !m.Done && m.queue.n >= m.Cfg.TaskBuffer {
			if m.verifyHead() {
				squashed = true
				break
			}
			if m.lastCommitEnd > m.masterClock {
				m.masterClock = m.lastCommitEnd // stall
			}
		}
		if squashed || m.Done {
			continue
		}

		m.spawn(r.Anchor, m.master.Checkpoint())
	}

	m.Metrics.Cycles = maxf(m.lastCommitEnd, m.commitFree)
	return &Result{Metrics: m.Metrics, Final: m.Arch, Cycles: m.Metrics.Cycles}, nil
}

// openTask returns the youngest task if its end is still unknown.
func (m *Machine) openTask() *pend {
	if n := m.queue.n; n > 0 && !m.queue.at(n-1).closed {
		return m.queue.at(n - 1)
	}
	return nil
}

// spawn creates a new open task starting at the given anchor, with the
// master's checkpoint ck, in the queue's next entry.
func (m *Machine) spawn(anchor uint64, ck task.Checkpoint) {
	m.at = m.masterClock
	p := m.queue.push()
	p.closed, p.forkAt = false, m.masterClock
	m.Fork(&p.T, anchor, ck, m.queue.n-1)
}

// processDue verifies closed head tasks whose commit completes by time now.
// Reports whether a squash occurred.
func (m *Machine) processDue(now float64) bool {
	for !m.Done && m.queue.n > 0 && m.queue.at(0).closed {
		h := m.queue.at(0)
		m.ensureExec(h)
		if m.timeHead(h).verify > now {
			return false
		}
		if m.verifyHead() {
			return true
		}
	}
	return false
}

// drain handles a dead master: verify whatever is in flight (the youngest
// task runs to halt or the cap), then make progress sequentially and try to
// revive the master.
func (m *Machine) drain() {
	if m.queue.n > 0 {
		h := m.queue.at(0)
		if !h.closed {
			h.closed = true
			h.closedAt = m.masterClock
			// End remains unknown: the task runs until halt or cap.
		}
		m.verifyHead()
		return
	}
	// Nothing in flight: advance non-speculatively, then reseed. If the
	// architected PC does not map into the distilled program the master
	// stays dead and the next drain call falls back again; forward progress
	// is guaranteed because sequential mode always executes at least one
	// instruction.
	m.seqFallback()
	if !m.Done {
		m.reseed(maxf(m.lastCommitEnd, m.masterClock))
	}
}

// ensureExec runs the task's functional execution once, on pooled scratch.
func (m *Machine) ensureExec(p *pend) {
	if p.Ex == nil {
		p.Ex = m.Pool.Execute(&p.T, m.Cfg.MaxTaskLen)
	}
}

// slavePick returns the index of the earliest-free slave.
func (m *Machine) slavePick() int {
	best := 0
	for i := 1; i < len(m.slaveFree); i++ {
		if m.slaveFree[i] < m.slaveFree[best] {
			best = i
		}
	}
	return best
}

// headTiming is the modeled schedule of the head task on the slave it
// would run on.
type headTiming struct {
	slave int
	// start is when the slave starts the task, compute when it finishes
	// executing it, ready when it knows it is done, and verify when the
	// task's verification completes.
	start, compute, ready, verify float64
}

// timeHead computes the head task's schedule without committing it.
func (m *Machine) timeHead(h *pend) headTiming {
	sl := m.slavePick()
	st := maxf(h.forkAt+m.Cfg.SpawnLatency, m.slaveFree[sl])
	compute := st + float64(h.Ex.Steps)*m.Cfg.SlaveCPI + m.slaveDelayOf(h)
	ct := compute
	if h.Ex.Outcome == task.OutcomeReachedEnd {
		// The slave only knows it is done once the master has named the
		// next task's start.
		ct = maxf(ct, h.closedAt)
	}
	words := float64(h.Ex.LiveIn.Len() + h.Ex.LiveOut.Len())
	vt := maxf(ct, m.commitFree) + m.Cfg.CommitLatency + m.Cfg.CommitPerWord*words + m.verifyJitterOf(h)
	return headTiming{slave: sl, start: st, compute: compute, ready: ct, verify: vt}
}

// slaveDelayOf returns the injected extra slave-completion latency for a
// task (zero without fault injection).
func (m *Machine) slaveDelayOf(h *pend) float64 {
	if f := m.Cfg.Fault; f != nil && f.SlaveDelay != nil {
		if d := f.SlaveDelay(h.T.ID); d > 0 {
			return d
		}
	}
	return 0
}

// verifyJitterOf returns the injected extra verification latency for a task
// (zero without fault injection).
func (m *Machine) verifyJitterOf(h *pend) float64 {
	if f := m.Cfg.Fault; f != nil && f.VerifyJitter != nil {
		if d := f.VerifyJitter(h.T.ID); d > 0 {
			return d
		}
	}
	return 0
}

// verifyHead pops and verifies the oldest task, committing or squashing.
// Reports whether a squash occurred.
func (m *Machine) verifyHead() (squashed bool) {
	h := m.queue.at(0)
	m.ensureExec(h)

	tm := m.timeHead(h)
	sl, compute, ct, vt := tm.slave, tm.compute, tm.ready, tm.verify
	m.Emit(LifecycleEvent{
		Kind:   LifecycleDispatch,
		Cycle:  tm.start,
		TaskID: h.T.ID,
		Start:  h.T.Start,
		Slave:  sl,
	})
	m.Emit(LifecycleEvent{
		Kind:   LifecycleVerify,
		Cycle:  maxf(ct, m.commitFree),
		TaskID: h.T.ID,
		Start:  h.T.Start,
	})

	m.at = vt
	if v := m.Verify(&h.InFlight); v.Reason != "" {
		m.squashAndRecover(h, v, vt)
		return true
	}

	m.Metrics.SlaveBusyCycles += float64(h.Ex.Steps) * m.Cfg.SlaveCPI
	// Attribute the commit-to-commit gap to its limiter.
	gap := vt - m.lastCommitEnd
	switch {
	case m.commitFree >= ct:
		m.Metrics.CommitBoundCycles += gap
	case h.Ex.Outcome == task.OutcomeReachedEnd && h.closedAt >= compute,
		h.forkAt+m.Cfg.SpawnLatency >= m.slaveFree[sl] && h.forkAt+m.Cfg.SpawnLatency >= compute-float64(h.Ex.Steps)*m.Cfg.SlaveCPI:
		m.Metrics.MasterBoundCycles += gap
	default:
		m.Metrics.SlaveBoundCycles += gap
	}
	m.slaveFree[sl] = ct
	m.commitFree = vt
	m.lastCommitEnd = vt

	// The commit retires h's task before any spawn can reuse the entry.
	m.queue.pop()
	m.Commit(&h.InFlight)
	return false
}

// squashAndRecover squashes head task h with verdict v at model time at,
// discarding all speculative state: every in-flight task and the master.
// Recovery runs sequential mode first when the Retirer asks for it, then
// reseeds the master.
func (m *Machine) squashAndRecover(h *pend, v Verdict, at float64) {
	fallback := m.Squash(&h.InFlight, v, m.queue.n-1)
	for i := 0; i < m.queue.n; i++ {
		m.Release(&m.queue.at(i).InFlight)
	}
	m.queue.head, m.queue.n = 0, 0
	m.masterAlive = false

	now := maxf(at, m.masterClock) + m.Cfg.SquashPenalty
	m.Metrics.RecoveryCycles += m.Cfg.SquashPenalty
	m.lastCommitEnd = now
	m.commitFree = now

	if fallback {
		m.seqFallback()
	}
	m.Recovered()
	if m.Done {
		return
	}
	m.reseed(maxf(m.lastCommitEnd, now))
}

// reseed starts a master life from architected state at model time now. If
// the architected PC does not translate into the distilled program the
// master stays dead and the main loop continues in fallback mode.
func (m *Machine) reseed(now float64) {
	if m.masterAlive = m.master.Reseed(m.Arch); m.masterAlive {
		m.masterClock = now
	}
}

// seqFallback runs the Retirer's sequential mode, charging its instructions
// at slave speed from the later of the commit point and the master clock.
func (m *Machine) seqFallback() {
	m.at = maxf(m.lastCommitEnd, m.masterClock)
	cost := float64(m.Fallback()) * m.Cfg.SlaveCPI
	m.Metrics.RecoveryCycles += cost
	m.lastCommitEnd = m.at + cost
	m.commitFree = m.lastCommitEnd
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
