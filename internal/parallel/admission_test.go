package parallel

import (
	"reflect"
	"strings"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/baseline"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/profile"
	"mssp/internal/task"
)

// loopSrc is one task per iteration: the anchor at 0 starts and ends it,
// it reads r1 and writes r2, and it touches no memory, so a committed
// iteration leaves architected state where the next one starts.
const loopSrc = `
	loop:   add  r2, r1, r1
	        j    loop
	        halt
`

// loopEngine builds an unstarted engine over loopSrc.
func loopEngine(t *testing.T, cfg core.Config) *Engine {
	t.Helper()
	p := asm.MustAssemble(loopSrc)
	e, err := newEngine(p, &distill.Result{Prog: p, Anchors: []uint64{0}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// admit reserves a slot for a fork at the loop's anchor and closes it.
func admit(t *testing.T, e *Engine) *slot {
	t.Helper()
	e.reserve(forkMsg{anchor: 0, count: 1, ck: task.Checkpoint{Regs: e.Arch.Regs}})
	s := e.ring.Open()
	if e.err != nil || s == nil {
		t.Fatalf("reserve: %v", e.err)
	}
	if err := e.ring.Close(s, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMachinesShareTables checks that the parallel engine and the
// deterministic machine, built from one original program and one
// distillation, run on the same table objects and anchor set, fused or
// plain (the rest of the contract is the test of the same name in
// internal/core).
func TestMachinesShareTables(t *testing.T) {
	p := asm.MustAssemble(queueSrc)
	prof, err := profile.Collect(p, profile.Options{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	d, err := distill.Distill(p, prof, distill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, fusion := range []bool{true, false} {
		cfg := core.DefaultConfig()
		cfg.DisableFusion = !fusion
		e, err := newEngine(p, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.New(p, d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m.Tables.Orig != e.Tables.Orig || m.Tables.Dist != e.Tables.Dist ||
			reflect.ValueOf(m.Tables.Anchors).Pointer() != reflect.ValueOf(e.Tables.Anchors).Pointer() {
			t.Errorf("fusion %v: the engine and core.New hold different tables", fusion)
		}
		if e.Tables.Orig == nil || (e.Tables.Orig.FusedTable() != nil) != fusion {
			t.Errorf("fusion %v: the engine's original table is missing or of the other kind", fusion)
		}
	}
}

// TestAdmissionAllocs pins that admitting a fork allocates nothing in
// steady state: the reservation protocol's cycle (CommitCycle allocates its
// setup alone, however many cycles it runs), and the coordinator's whole
// life of a slot, from reserve and dispatch through a worker's execution to
// commit and recycle.
func TestAdmissionAllocs(t *testing.T) {
	one := testing.AllocsPerRun(20, func() { CommitCycle(1) })
	many := testing.AllocsPerRun(20, func() { CommitCycle(1001) })
	if many != one {
		t.Errorf("CommitCycle allocates %v objects for 1 cycle and %v for 1,001, want the same", one, many)
	}

	e := loopEngine(t, core.DefaultConfig())
	life := func() {
		s := admit(t, e)
		e.dispatch(s)
		w := <-e.dispatchCh // the worker's part, inline
		w.Ex = e.Pool.Execute(&w.T, e.Cfg.MaxTaskLen)
		e.noteResult(w)
		if e.verifyHead() || e.err != nil {
			t.Fatalf("the loop task did not commit: %v", e.err)
		}
	}
	life()
	if allocs := testing.AllocsPerRun(100, life); allocs != 0 {
		t.Errorf("reserve to commit allocates %v objects, want 0", allocs)
	}
	if n := len(e.ring.free); n != 1 {
		t.Errorf("%d slots on the free list, want the one every task reused", n)
	}
}

// mustPanic runs f and checks that it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, want) {
			t.Errorf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

// TestSlotRecycleGuard checks the three recycle points of a slot and the
// guard on them: a slot recycled twice, or recycled or reserved while at a
// worker, panics; a squash recycles the slots not at a worker at once, and
// each slot at a worker only when its stale result arrives, after new
// reservations have taken other slots. Run under -race it also checks the
// hand-off of a recycled slot between the coordinator and a worker, and a
// whole run whose squashes leave closed slots at the workers.
func TestSlotRecycleGuard(t *testing.T) {
	r := newRing(2)
	s, _ := r.Reserve(0)
	if err := r.Close(s, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	s.atWorker = true // dispatched
	mustPanic(t, "recycled while at a worker", func() { r.recycle(s) })
	s.atWorker, s.Ex = false, &task.Exec{} // its result arrived
	if err := r.Complete(s); err != nil {
		t.Fatal(err)
	}
	if err := r.PopCommitted(); err != nil {
		t.Fatal(err)
	}
	r.recycle(s)
	mustPanic(t, "recycled twice", func() { r.recycle(s) })
	s.atWorker = true // a listed slot sent to a worker
	mustPanic(t, "reserved while still at a worker", func() { _, _ = r.Reserve(0) })

	// Two closed slots sit in the dispatch queue, which no worker has
	// drained yet: at a worker, as far as the coordinator knows.
	cfg := core.DefaultConfig()
	cfg.Slaves, cfg.TaskBuffer = 1, 4
	e := loopEngine(t, cfg)
	var stale []*slot
	for i := 0; i < 2; i++ {
		s := admit(t, e)
		e.dispatch(s)
		stale = append(stale, s)
	}
	e.reserve(forkMsg{anchor: 0, count: 1, ck: task.Checkpoint{Regs: e.Arch.Regs}})
	open := e.ring.Open()
	e.discard()
	if len(e.ring.free) != 1 || e.ring.free[0] != open {
		t.Fatalf("the squash recycled %d slots, want the open one alone", len(e.ring.free))
	}
	var fresh []*slot
	for i := 0; i < 3; i++ {
		s := admit(t, e)
		if s == stale[0] || s == stale[1] {
			t.Fatal("a slot at a worker was reserved again")
		}
		fresh = append(fresh, s)
	}
	e.spawn(&e.workerWg, func() { e.slaveWorker(0) })
	for range stale {
		e.noteResult(<-e.resultCh)
	}
	close(e.dispatchCh)
	e.workerWg.Wait()
	if len(e.ring.free) != 2 || e.ring.free[0] != stale[0] || e.ring.free[1] != stale[1] {
		t.Fatalf("the stale results recycled %d slots, want the two stale ones", len(e.ring.free))
	}
	e.discard()
	if len(e.ring.free) != 5 {
		t.Fatalf("%d slots on the free list, want 5", len(e.ring.free))
	}
	for _, s := range append(stale, fresh...) {
		if !s.free || s.atWorker {
			t.Errorf("task %d: free %v, at a worker %v", s.T.ID, s.free, s.atWorker)
		}
	}

	// A whole run whose dropped completions squash tasks with younger ones
	// still executing.
	cfg = core.DefaultConfig()
	cfg.Slaves, cfg.TaskBuffer = 2, 8
	cfg.Fault = &core.FaultInjection{DropCompletion: func(id uint64) bool { return id%5 == 3 }}
	discarded := 0
	cfg.OnSquash = func(ev core.SquashEvent) { discarded += ev.Discarded }
	e = queueEngine(t, queueSrc, cfg)
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := baseline.Run(asm.MustAssemble(queueSrc), baseline.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Final.Equal(b.Final) {
		t.Fatal("final state differs from the sequential run")
	}
	if res.Metrics.TasksDropped == 0 || discarded == 0 {
		t.Fatalf("%d drops discarded %d younger tasks, want some of each", res.Metrics.TasksDropped, discarded)
	}
}
