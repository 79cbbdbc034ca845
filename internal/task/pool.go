package task

// This file implements the task pool: recycled per-execution machinery
// (capture environments, the speculative buffer and the live-in/live-out
// deltas over it) and recycled architected snapshots. One task execution
// used to cost a dozen allocations before it retired — env, two deltas,
// their memory and pages, the snapshot — and the engines retire thousands
// of tasks per run, so the garbage collector was a standing tax on exactly
// the speculative work MSSP adds over sequential execution
// (docs/PERFORMANCE.md "task-machinery premium"). Pooled execution
// allocates nothing in steady state (task/delta_allocs in BENCH_core.json).
// Safety of the reuse rests on each scratch cycling between one execution
// and the free list, and on the generation checks in
// mem.Memory.SnapshotInto; the borrow rules live in docs/MEMORY.md.

import (
	"sync"

	"mssp/internal/mem"
	"mssp/internal/state"
)

// Pool recycles task-execution scratch (Execute/Release) and architected
// snapshots (CloneState/ReleaseState). The zero value is ready to use. A
// Pool is safe for concurrent use: the parallel engine's slave goroutines
// draw from one shared pool, while each borrowed object remains
// goroutine-confined until released.
type Pool struct {
	mu    sync.Mutex
	scr   []*scratch
	snaps []*state.State
}

// scratch bundles everything one task execution needs: the capture env, the
// result, the table the slave buffers memory in and the deltas over its
// two views, which the result borrows. It cycles between exactly one
// in-flight execution and the pool's free list.
type scratch struct {
	env     slaveEnv
	ex      Exec
	tab     *mem.Table
	liveIn  *state.Delta
	liveOut *state.Delta
	// inUse guards against double release, the classic pool corruption: two
	// holders of one scratch would silently share live-in/live-out storage.
	inUse bool
}

func newScratch() *scratch {
	tab := mem.NewTable()
	return &scratch{tab: tab, liveIn: state.NewDeltaOver(tab.In()), liveOut: state.NewDeltaOver(tab.Out())}
}

// reset re-arms the scratch for task t, emptying the recycled deltas and
// their table in place (the table keeps its pages).
func (sc *scratch) reset(t *Task) {
	sc.liveIn.Reset()
	sc.liveOut.Reset()
	sc.env.reset(t, sc.tab, sc.liveIn)
	sc.ex = Exec{LiveIn: sc.liveIn, LiveOut: sc.liveOut, sc: sc}
	sc.inUse = true
}

// Execute runs t like Task.Execute but on recycled machinery. The returned
// Exec and its deltas borrow pool storage: they are valid until Release,
// which must be called exactly once when the engine is done with the result
// (after commit, squash, or drop). In steady state Execute allocates only
// what the task's own footprint forces (zero for tasks whose footprint fits
// the recycled pages — the common case).
func (p *Pool) Execute(t *Task, cap uint64) *Exec {
	p.mu.Lock()
	var sc *scratch
	if n := len(p.scr); n > 0 {
		sc = p.scr[n-1]
		p.scr = p.scr[:n-1]
	}
	p.mu.Unlock()
	if sc == nil {
		sc = newScratch()
	}
	sc.reset(t)
	return t.execute(&sc.env, &sc.ex, cap)
}

// Release returns ex's scratch to the pool. Exec values from plain
// Task.Execute carry no scratch and pass through as a no-op, so engines can
// release uniformly. Releasing the same pooled Exec twice panics: the second
// holder would corrupt whatever execution the scratch moved on to.
func (p *Pool) Release(ex *Exec) {
	if ex == nil || ex.sc == nil {
		return
	}
	sc := ex.sc
	if !sc.inUse {
		panic("task: Exec released twice")
	}
	sc.inUse = false
	p.mu.Lock()
	p.scr = append(p.scr, sc)
	p.mu.Unlock()
}

// CloneState is state.Clone with the copy's allocations recycled from the
// pool: a previously released snapshot value is reused via state.CloneInto. Engines call it on every spawn for the task's architected
// snapshot and return the snapshot with ReleaseState when the task retires.
func (p *Pool) CloneState(s *state.State) *state.State {
	p.mu.Lock()
	var dst *state.State
	if n := len(p.snaps); n > 0 {
		dst = p.snaps[n-1]
		p.snaps = p.snaps[:n-1]
	}
	p.mu.Unlock()
	return s.CloneInto(dst)
}

// ReleaseState returns a snapshot obtained from CloneState to the pool. The
// caller must be the last holder: the snapshot is overwritten on the next
// CloneState. A nil s is a no-op.
func (p *Pool) ReleaseState(s *state.State) {
	if s == nil {
		return
	}
	p.mu.Lock()
	p.snaps = append(p.snaps, s)
	p.mu.Unlock()
}
