package parallel

import (
	"fmt"
	"testing"

	"mssp/internal/core"
	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/mem"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// TestMasterCheckpointMatchesDiff looks inside the parallel master's
// checkpoints, which nothing else does: the end-to-end differentials see
// only final state, and verification keeps that correct whatever the
// prediction. The test plays coordinator for one master life (no slaves, no
// commits, so the life's credit window stays at one) and runs a reference
// master in lockstep on its own copy of the start image, with the same
// elided table and fork gate, computing each checkpoint the plain way: diff
// the memory against a snapshot taken at the previous fork and fold the
// changed words into a cumulative overlay. Every fork the engine's master
// sends must match it in anchor, count, registers, NewDiffWords and MemDiff
// contents. The subtests keep the full=false names they had when a second
// leg also checked a full memory image in every checkpoint.
func TestMasterCheckpointMatchesDiff(t *testing.T) {
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
		t.Run(name+"/full=false", func(t *testing.T) {
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

// refMaster is the reference master: the engine's elided table and fork
// gate on its own copy of a life's start image, building each checkpoint
// the plain way.
type refMaster struct {
	st       *state.State
	code     *cpu.Code
	g        core.ForkGate
	diffBase *mem.Memory
	cum      *mem.Overlay
	// insts counts the steps run so far, as a life's exit report does.
	insts uint64
}

// newRefMaster starts a reference master where e's next reseed starts the
// life, with the start image built the way reseed builds it.
func newRefMaster(t *testing.T, e *Engine) *refMaster {
	t.Helper()
	dpc, ok := e.Dist.OrigToDist[e.Arch.PC]
	if !ok {
		t.Fatal("entry PC does not map into the distilled program")
	}
	img := e.Arch.Mem.Snapshot()
	img.CopyWords(e.Dist.Prog.Code.Base, e.Dist.Prog.Code.Words)
	return &refMaster{
		st:       &state.State{Regs: e.Arch.Regs, PC: dpc, Mem: img},
		code:     cpu.NewCode(e.distCode),
		g:        core.NewForkGate(&e.Cfg, e.Dist),
		diffBase: img.Snapshot(),
		cum:      mem.NewOverlay(),
	}
}

// next runs the reference to its next taken fork and returns the fork, with
// its checkpoint's MemDiff set to the cumulative overlay. At the end of the
// life instead it reports how the life stopped, with ok false.
func (r *refMaster) next() (fm forkMsg, stop masterStop, ok bool) {
	for {
		res, err := r.code.RunToStop(r.st, r.g.Budget(masterChunk))
		r.insts += res.Steps
		r.g.Retire(res.Steps)
		if err != nil {
			return fm, masterLost, false
		}
		switch res.Kind {
		case cpu.StopHalt:
			return fm, masterHalted, false
		case cpu.StopFork:
			taken, c := r.g.Fork(res.Anchor)
			if !taken {
				break
			}
			newWords := 0
			r.st.Mem.Diff(r.diffBase, func(a, v, _ uint64) {
				if _, ok := r.cum.Get(a); !ok {
					newWords++
				}
				r.cum.Set(a, v)
			})
			r.diffBase = r.st.Mem.Snapshot()
			fm = forkMsg{anchor: res.Anchor, count: c}
			fm.ck.Regs = r.st.Regs
			fm.ck.MemDiff = r.cum
			fm.ck.NewDiffWords = newWords
			return fm, 0, true
		case cpu.StopJalr:
			pc, ok := r.g.Jump(r.st.PC)
			if !ok {
				return fm, masterLost, false
			}
			r.st.PC = pc
		}
		if r.g.Overrun() {
			return fm, masterLost, false
		}
	}
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
// checkpoints with the reference master's, and returns how many it compared.
// When the reference's life ends first, the engine's must report the same
// end as its next message, with no fork ahead of it.
func checkMasterLife(t *testing.T, e *Engine, forks int) (n int) {
	t.Helper()
	ref := newRefMaster(t, e)
	e.reseed()
	if e.life == nil {
		t.Fatal("reseed started no master life")
	}
	defer e.stopMaster()

	var got, want []uint64
	for n < forks {
		wantFm, stop, ok := ref.next()
		m := nextMsg(t, e)
		if !ok {
			if !m.last {
				t.Fatalf("reference master ended (%d) but the engine's forked at %#x", stop, m.fork.anchor)
			}
			if m.exit.stop != stop {
				t.Fatalf("engine master ended with %d, reference with %d", m.exit.stop, stop)
			}
			return
		}
		if m.last {
			t.Fatalf("fork %d: engine master ended (%d) where the reference forked at %#x", n, m.exit.stop, wantFm.anchor)
		}
		fm, ck := m.fork, m.fork.ck
		if fm.anchor != wantFm.anchor || fm.count != wantFm.count {
			t.Fatalf("fork %d: engine forked at %#x count %d, reference at %#x count %d",
				n, fm.anchor, fm.count, wantFm.anchor, wantFm.count)
		}
		if ck.Regs != wantFm.ck.Regs {
			t.Fatalf("fork %d at %#x: checkpoint registers differ from the reference's", n, fm.anchor)
		}
		if ck.NewDiffWords != wantFm.ck.NewDiffWords {
			t.Fatalf("fork %d at %#x: NewDiffWords %d, reference %d", n, fm.anchor, ck.NewDiffWords, wantFm.ck.NewDiffWords)
		}
		got, want = rangeWords(ck.MemDiff, got[:0]), rangeWords(wantFm.ck.MemDiff, want[:0])
		if err := sameWords(got, want); err != nil {
			t.Fatalf("fork %d at %#x: MemDiff %v", n, fm.anchor, err)
		}
		n++
	}
	return
}

// rangeWords appends o's bound words to buf as address, value pairs in
// ascending address order.
func rangeWords(o *mem.Overlay, buf []uint64) []uint64 {
	o.Range(func(a, v uint64) bool {
		buf = append(buf, a, v)
		return true
	})
	return buf
}

// sameWords compares two rangeWords listings; both are in ascending address
// order, so equal listings are equal address-to-value sets.
func sameWords(got, want []uint64) error {
	for i := 0; i < len(got) && i < len(want); i += 2 {
		if got[i] != want[i] || got[i+1] != want[i+1] {
			return fmt.Errorf("has [%#x]=%d where the reference has [%#x]=%d", got[i], got[i+1], want[i], want[i+1])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("binds %d words, the reference %d", len(got)/2, len(want)/2)
	}
	return nil
}
