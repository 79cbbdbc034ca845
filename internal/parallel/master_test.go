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
// commits) and runs a reference master in lockstep on its own copy of the
// start image, with the same elided table and fork gate, computing each
// checkpoint the plain way: diff the memory against a snapshot taken at the
// previous fork and fold the changed words into a cumulative overlay. Every
// fork the engine's master sends must match it in anchor, count, registers,
// NewDiffWords and MemDiff contents (and FullMem, when the master supplies
// all data, which also snapshots the master's memory mid-interval).
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
		for _, full := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/full=%v", name, full), func(t *testing.T) {
				cfg := core.DefaultConfig()
				cfg.Slaves = 2
				cfg.MasterSuppliesAllData = full
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
}

// checkMasterLife starts one master life on e, compares up to forks of its
// checkpoints with the reference master's, and returns how many it compared.
func checkMasterLife(t *testing.T, e *Engine, forks int) (n int) {
	t.Helper()
	dpc, ok := e.Dist.OrigToDist[e.Arch.PC]
	if !ok {
		t.Fatal("entry PC does not map into the distilled program")
	}
	// The reference start image is built the way reseed builds the life's.
	img := e.Arch.Mem.Snapshot()
	img.CopyWords(e.Dist.Prog.Code.Base, e.Dist.Prog.Code.Words)
	ref := &state.State{Regs: e.Arch.Regs, PC: dpc, Mem: img}

	e.reseed()
	l := e.life
	if l == nil {
		t.Fatal("reseed started no master life")
	}
	defer e.stopMaster()
	code := cpu.NewCode(e.distCode)
	g := core.NewForkGate(&e.Cfg, e.Dist, e.Plan)
	diffBase := ref.Mem.Snapshot()
	cum := mem.NewOverlay()

	// end expects the life to report stop on its own, as the reference did.
	end := func(stop masterStop) {
		select {
		case fm := <-l.forkCh:
			t.Fatalf("reference master ended (%d) but the engine's forked at %#x", stop, fm.anchor)
		case x := <-l.exitCh:
			e.collectExit(x)
			e.life = nil
			if x.stop != stop {
				t.Fatalf("engine master ended with %d, reference with %d", x.stop, stop)
			}
		}
	}

	var got, want []uint64
	for n < forks {
		res, err := code.RunToStop(ref, g.Budget(masterChunk))
		g.Retire(res.Steps)
		if err != nil {
			end(masterLost)
			return
		}
		switch res.Kind {
		case cpu.StopHalt:
			end(masterHalted)
			return
		case cpu.StopFork:
			dec, c := g.Fork(res.Anchor)
			if dec != core.ForkTaken {
				break
			}
			newWords := 0
			ref.Mem.Diff(diffBase, func(a, v, _ uint64) {
				if _, ok := cum.Get(a); !ok {
					newWords++
				}
				cum.Set(a, v)
			})
			diffBase = ref.Mem.Snapshot()

			var fm forkMsg
			select {
			case fm = <-l.forkCh:
			case x := <-l.exitCh:
				e.collectExit(x)
				e.life = nil
				t.Fatalf("fork %d: engine master ended (%d) where the reference forked at %#x", n, x.stop, res.Anchor)
			}
			ck := fm.ck
			if fm.anchor != res.Anchor || fm.count != c {
				t.Fatalf("fork %d: engine forked at %#x count %d, reference at %#x count %d",
					n, fm.anchor, fm.count, res.Anchor, c)
			}
			if ck.Regs != ref.Regs {
				t.Fatalf("fork %d at %#x: checkpoint registers differ from the reference's", n, fm.anchor)
			}
			if ck.NewDiffWords != newWords {
				t.Fatalf("fork %d at %#x: NewDiffWords %d, reference %d", n, fm.anchor, ck.NewDiffWords, newWords)
			}
			got, want = rangeWords(ck.MemDiff, got[:0]), rangeWords(cum, want[:0])
			if err := sameWords(got, want); err != nil {
				t.Fatalf("fork %d at %#x: MemDiff %v", n, fm.anchor, err)
			}
			if full := ck.FullMem != nil; full != e.Cfg.MasterSuppliesAllData {
				t.Fatalf("fork %d: FullMem present = %v with MasterSuppliesAllData = %v", n, full, !full)
			}
			if ck.FullMem != nil && !ck.FullMem.Equal(ref.Mem) {
				t.Fatalf("fork %d at %#x: FullMem differs from the reference master's memory", n, fm.anchor)
			}
			n++
		case cpu.StopJalr:
			pc, ok := g.Jump(ref.PC)
			if !ok {
				end(masterLost)
				return
			}
			ref.PC = pc
		}
		if g.Overrun() {
			end(masterLost)
			return
		}
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
