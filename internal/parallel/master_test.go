package parallel

import (
	"fmt"
	"math"
	"testing"

	"mssp/internal/core"
	"mssp/internal/distill"
	"mssp/internal/mem"
	"mssp/internal/profile"
	"mssp/internal/task"
	"mssp/internal/workloads"
)

// TestMasterCheckpointSentAsTaken checks the hand-off of checkpoints
// across the master goroutine on three Train workloads. It plays
// coordinator for one master life (no slaves, no commits, so the life's
// credit window stays at one) and runs a second master synchronously from
// the same state: the life must send exactly the forks and checkpoints that
// master takes. That those checkpoints are right is core's
// TestMasterCheckpointMatchesDiff.
func TestMasterCheckpointSentAsTaken(t *testing.T) {
	forks := 1000
	if testing.Short() {
		forks = 150
	}
	for _, name := range []string{"graphwalk", "hashtable", "mtf"} {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p := w.Build(workloads.Train)
		prof, err := profile.Collect(p, profile.Options{Stride: 100})
		if err != nil {
			t.Fatal(err)
		}
		d, err := distill.Distill(p, prof, distill.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			cfg := core.DefaultConfig()
			cfg.Slaves = 2
			e, err := newEngine(p, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			n := checkMasterLife(t, e, forks)
			if n == 0 {
				t.Fatal("the master life forked no task")
			}
			t.Logf("%d checkpoints match", n)
		})
	}
}

// syncMaster returns a master of e's started synchronously where e's next
// reseed starts the life.
func syncMaster(t *testing.T, e *Engine) *core.Master {
	t.Helper()
	ms := e.NewMaster()
	if !ms.Reseed(e.Arch) {
		t.Fatal("entry PC does not map into the distilled program")
	}
	return ms
}

// nextMsg takes the current life's next message off the fork queue, in send
// order, and accounts for it as the coordinator does: a fork's credit goes
// back to the life, an exit report is folded in and ends the life. Before a
// fork's credit goes back it checks the life's credit window (creditBound,
// allowing for an exit report queued behind the forks), so a master that
// overran its window fails here instead of blocking the credit send.
func nextMsg(t *testing.T, e *Engine) lifeMsg {
	t.Helper()
	m := <-e.queue
	if !m.last {
		creditBound(t, e, 1, 1)
	}
	e.receive(&m)
	return m
}

// checkMasterLife starts one master life on e, compares up to forks of its
// forks and checkpoints with those of a synchronous master, and returns how
// many it compared. When the synchronous master's life ends first, the
// engine's must report the same end as its next message, with no fork
// ahead of it.
func checkMasterLife(t *testing.T, e *Engine, forks int) (n int) {
	t.Helper()
	ref := syncMaster(t, e)
	e.reseed()
	if e.life == nil {
		t.Fatal("reseed started no master life")
	}
	defer e.stopMaster()

	for n < forks {
		r := ref.Run(math.MaxUint64)
		m := nextMsg(t, e)
		if r.Stop != core.MasterForked {
			if !m.last {
				t.Fatalf("synchronous master ended (%d) but the life forked at %#x", r.Stop, m.fork.anchor)
			}
			if m.exit.Stop != r.Stop {
				t.Fatalf("life ended with %d, synchronous master with %d", m.exit.Stop, r.Stop)
			}
			return
		}
		if m.last {
			t.Fatalf("fork %d: life ended (%d) where the synchronous master forked at %#x", n, m.exit.Stop, r.Anchor)
		}
		fm, ck, want := m.fork, m.fork.ck, ref.Checkpoint()
		if fm.anchor != r.Anchor || fm.count != r.Count {
			t.Fatalf("fork %d: life forked at %#x count %d, synchronous master at %#x count %d",
				n, fm.anchor, fm.count, r.Anchor, r.Count)
		}
		if ck.Regs != want.Regs {
			t.Fatalf("fork %d at %#x: checkpoint registers differ from the synchronous master's", n, fm.anchor)
		}
		if ck.NewDiffWords != want.NewDiffWords {
			t.Fatalf("fork %d at %#x: NewDiffWords %d, synchronous master %d", n, fm.anchor, ck.NewDiffWords, want.NewDiffWords)
		}
		if err := sameWords(ck, want); err != nil {
			t.Fatalf("fork %d at %#x: memory view %v", n, fm.anchor, err)
		}
		n++
	}
	return
}

// sameWords reports how got's and want's whole memory views differ as
// address-to-value sets, or nil when they bind the same words to the same
// values. It reads each view as a slave does, through tables over it and
// two snapshots, all zeros and all ones at every word either view binds:
// a word the view binds reads the same over both.
func sameWords(got, want task.Checkpoint) error {
	var addrs []uint64
	add := func(a, _ uint64) bool {
		addrs = append(addrs, a)
		return true
	}
	for _, ck := range []task.Checkpoint{got, want} {
		if ck.MemDiff != nil {
			ck.MemDiff.Range(add)
		}
		ck.Prev.Range(add)
		ck.Layers.Range(add)
	}
	zeros, ones := mem.New(), mem.New()
	for _, a := range addrs {
		ones.Write(a, ^uint64(0))
	}
	reader := func(ck task.Checkpoint) func(a uint64) (uint64, bool) {
		z, o := mem.NewTable(), mem.NewTable()
		z.Over(ck.MemDiff, ck.Prev, ck.Layers, zeros)
		o.Over(ck.MemDiff, ck.Prev, ck.Layers, ones)
		return func(a uint64) (uint64, bool) {
			v := z.Load(a)
			return v, v == o.Load(a)
		}
	}
	g, w := reader(got), reader(want)
	for _, a := range addrs {
		gv, gok := g(a)
		wv, wok := w(a)
		if gv != wv || gok != wok {
			return fmt.Errorf("has [%#x]=%d (bound: %v) where the synchronous master's has %d (bound: %v)", a, gv, gok, wv, wok)
		}
	}
	return nil
}
