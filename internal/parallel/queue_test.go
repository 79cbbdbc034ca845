package parallel

import (
	"math"
	"runtime"
	"testing"

	"mssp/internal/asm"
	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/profile"
	"mssp/internal/task"
)

// queueSrc is a counted loop that stores every iteration and halts after
// about 250 taken forks, few enough for case (b) to restart a life at every
// one of them.
const queueSrc = `
	.entry main
	main:   ldi  r1, 3000
	        la   r3, out
	        ldi  r4, 0
	loop:   muli r5, r1, 3
	        add  r4, r4, r5
	        st   r4, 0(r3)
	        andi r6, r1, 63
	        add  r6, r6, r3
	        st   r5, 1(r6)
	        addi r1, r1, -1
	        bnez r1, loop
	        halt
	.data
	.org 100000
	out:    .space 80
`

// queueEngine builds an unstarted engine for src with cfg.
func queueEngine(t *testing.T, src string, cfg core.Config) *Engine {
	t.Helper()
	p := asm.MustAssemble(src)
	prof, err := profile.Collect(p, profile.Options{Stride: 100})
	if err != nil {
		t.Fatal(err)
	}
	d, err := distill.Distill(p, prof, distill.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e, err := newEngine(p, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// creditBound checks, from the coordinator's side, that the current life
// has no more forks built and unreceived, plus credits unspent, than its
// window, nor a window above TaskBuffer. queued counts messages already
// taken off the queue but not yet received. The queue is read before the
// credits: the master only moves a credit out of its channel and then a
// fork onto the queue, so the two reads can undercount but never overcount.
// exitSlack allows an exit report already queued behind the forks.
func creditBound(t *testing.T, e *Engine, queued, exitSlack int) {
	t.Helper()
	l := e.life
	q := len(e.queue)
	c := len(l.credit)
	if l.window < 1 || l.window > e.Cfg.TaskBuffer {
		t.Fatalf("window %d outside [1, TaskBuffer=%d]", l.window, e.Cfg.TaskBuffer)
	}
	if q+queued+c > l.window+exitSlack {
		t.Fatalf("%d forks queued and %d credits unspent against a window of %d", q+queued, c, l.window)
	}
}

// TestForkQueueOrderAndStop pins the hand-off between a master life and the
// coordinator: the one reused fork queue and the credit window. The test
// plays coordinator, as TestMasterCheckpointSentAsTaken does. The cases run
// in order on one engine, so each runs only if the ones before it passed (a
// broken window would block the real coordinator of the last case).
func TestForkQueueOrderAndStop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := core.DefaultConfig()
	cfg.Slaves = 2
	e := queueEngine(t, queueSrc, cfg)

	// A synchronous master's taken forks, with its step count at each
	// (marks[k] after the (k+1)-th), and its end.
	ref := syncMaster(t, e)
	var forks []forkMsg
	var marks []uint64
	var total uint64
	for {
		r := ref.Run(math.MaxUint64)
		total += r.Steps
		if r.Stop != core.MasterForked {
			if r.Stop != core.MasterHalted {
				t.Fatalf("the synchronous master ended with %d, not halt", r.Stop)
			}
			break
		}
		forks = append(forks, forkMsg{anchor: r.Anchor, count: r.Count})
		marks = append(marks, total)
	}
	n := len(forks)
	if n < 4 {
		t.Fatalf("the synchronous master took %d forks; the test needs a few", n)
	}
	t.Logf("the synchronous master takes %d forks", n)
	// reach is how far a life may have run once it holds g credits in all:
	// to the (g+1)-th taken fork, where it waits for the next credit.
	reach := func(g int) uint64 {
		if g < n {
			return marks[g]
		}
		return total
	}

	if !t.Run("a/all forks before the exit", func(t *testing.T) {
		halts := e.Metrics.MasterHalts
		if got := checkMasterLife(t, e, math.MaxInt); got != n {
			t.Fatalf("the life delivered %d forks, the synchronous master took %d", got, n)
		}
		if e.life != nil || len(e.queue) != 0 {
			t.Fatalf("after the exit report: life %v, %d messages queued", e.life, len(e.queue))
		}
		if e.Metrics.MasterHalts != halts+1 {
			t.Fatal("the life's halt was not folded in")
		}
	}) {
		return
	}

	if !t.Run("b/stop after j forks", func(t *testing.T) {
		for j := 0; j <= n; j++ {
			if len(e.queue) != 0 {
				t.Fatalf("j=%d: %d messages queued before reseed", j, len(e.queue))
			}
			before := e.Metrics
			e.reseed()
			if e.life.window != 1 {
				t.Fatalf("j=%d: new life's window is %d", j, e.life.window)
			}
			creditBound(t, e, 0, 0)
			for i := 0; i < j; i++ {
				m := nextMsg(t, e)
				if m.last {
					t.Fatalf("j=%d: the life ended (%d) after %d forks", j, m.exit.Stop, i)
				}
				if m.fork.anchor != forks[i].anchor || m.fork.count != forks[i].count {
					t.Fatalf("j=%d: fork %d at %#x count %d, synchronous master at %#x count %d",
						j, i, m.fork.anchor, m.fork.count, forks[i].anchor, forks[i].count)
				}
			}
			e.stopMaster()
			if e.life != nil || len(e.queue) != 0 {
				t.Fatalf("j=%d: stopMaster left life %v, %d messages queued", j, e.life, len(e.queue))
			}
			// Exactly one report, this life's: its steps reach at least the
			// j-th fork and, with the 1+j credits granted, at most the
			// (j+2)-th; a halt is possible only once every fork is sent.
			insts := e.Metrics.MasterInsts - before.MasterInsts
			lo := uint64(0)
			if j > 0 {
				lo = marks[j-1]
			}
			if insts < lo || insts > reach(j+1) {
				t.Fatalf("j=%d: folded %d master steps, want [%d, %d]", j, insts, lo, reach(j+1))
			}
			halts := e.Metrics.MasterHalts - before.MasterHalts
			if e.Metrics.MasterLost != before.MasterLost || halts > 1 || (halts == 1 && (j+1 < n || insts != total)) {
				t.Fatalf("j=%d: folded %d halts and %d lost lives after %d steps",
					j, halts, e.Metrics.MasterLost-before.MasterLost, insts)
			}
		}
	}) {
		return
	}

	if !t.Run("c/window", func(t *testing.T) {
		// Commits are simulated with widen, the call verifyHead makes:
		// none for the first forks, then a varying number per fork, enough
		// to hit the cap. A fresh life then starts at one again.
		for life := 0; life < 2; life++ {
			e.reseed()
			granted, commits := 1, 0
			for i := 0; i < n; i++ {
				if e.life.window != min(1+commits, e.Cfg.TaskBuffer) {
					t.Fatalf("life %d fork %d: window %d after %d commits", life, i, e.life.window, commits)
				}
				runtime.Gosched()
				m := <-e.queue
				exitSlack := 0
				if n-1-i < e.life.window {
					// Every fork may be sent, and the halt report queued
					// behind them.
					exitSlack = 1
				}
				creditBound(t, e, 1, exitSlack)
				if m.last {
					t.Fatalf("life %d: the life ended (%d) after %d forks", life, m.exit.Stop, i)
				}
				if m.fork.anchor != forks[i].anchor {
					t.Fatalf("life %d: fork %d at %#x, synchronous master at %#x", life, i, m.fork.anchor, forks[i].anchor)
				}
				e.receive(&m)
				granted++
				for k := 0; k < commitsAt(i); k++ {
					commits++
					w := e.life.window
					e.widen()
					if w < e.Cfg.TaskBuffer {
						granted++
					}
					if e.life.window != min(w+1, e.Cfg.TaskBuffer) {
						t.Fatalf("life %d fork %d: a commit moved the window %d → %d", life, i, w, e.life.window)
					}
				}
				if i == n/2 && life == 1 {
					// Stopped with credits to spare: the life must not have
					// run past the fork the granted credits reach.
					before := e.Metrics.MasterInsts
					e.stopMaster()
					if insts := e.Metrics.MasterInsts - before; insts > reach(granted) {
						t.Fatalf("stopped life ran %d steps with %d credits granted; the window allows %d",
							insts, granted, reach(granted))
					}
					break
				}
			}
			if e.life != nil {
				if m := nextMsg(t, e); !m.last || m.exit.Stop != core.MasterHalted {
					t.Fatalf("life %d: expected the halt report after every fork", life)
				}
			}
		}
	}) {
		return
	}

	t.Run("c/engine", func(t *testing.T) {
		// The window under the real coordinator: at the k-th commit of a
		// life's tasks (OnCommit runs before verifyHead widens) it is
		// min(k, TaskBuffer), so it restarts at one with each reseed. A
		// fault plan squashes every few tasks to force reseeds.
		cfg := cfg
		cfg.TaskBuffer = 5
		cfg.Fault = &core.FaultInjection{
			CorruptCheckpoint: func(id uint64, ck *task.Checkpoint) {
				if id%9 == 8 {
					ck.Regs[4] ^= 0xdead
				}
			},
		}
		for rep := 0; rep < 4; rep++ {
			e := queueEngine(t, queueSrc, cfg)
			var life *masterLife
			commits, lives, capped := 0, 0, 0
			e.Cfg.OnCommit = func(ev core.CommitEvent) {
				if ev.Kind != "task" || e.life == nil {
					return
				}
				if e.life != life {
					life, commits = e.life, 0
					lives++
				}
				commits++
				if want := min(commits, e.Cfg.TaskBuffer); e.life.window != want {
					t.Fatalf("commit %d of a life: window %d, want %d", commits, e.life.window, want)
				}
				if e.life.window == e.Cfg.TaskBuffer {
					capped++
				}
				creditBound(t, e, 0, 1)
			}
			res, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.TasksCommitted == 0 || lives < 2 || capped == 0 {
				t.Fatalf("%d commits over %d lives, %d at the cap: the run did not exercise the window",
					res.Metrics.TasksCommitted, lives, capped)
			}
		}
	})
}

// commitsAt is the number of commits case (c) simulates after receiving the
// i-th fork: none for the first three, then 0, 1 or 2.
func commitsAt(i int) int {
	if i < 3 {
		return 0
	}
	return i % 3
}
