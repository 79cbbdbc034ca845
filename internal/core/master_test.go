package core

import (
	"fmt"
	"math"
	"testing"

	"mssp/internal/cpu"
	"mssp/internal/distill"
	"mssp/internal/isa"
	"mssp/internal/mem"
	"mssp/internal/profile"
	"mssp/internal/state"
	"mssp/internal/workloads"
)

// TestMasterCheckpointMatchesDiff looks inside the master's checkpoints,
// which nothing else does: the end-to-end differentials see only final
// state, and verification keeps that correct whatever the prediction. Both
// engines run this master, so the test covers both engines' checkpoints.
// It runs one master life from a machine's initial state and a reference
// master in lockstep on its own copy of the start image: the reference
// steps the plain predecoded program one instruction at a time, applies the
// fork policy written out per instruction, and computes each checkpoint the
// plain way, by diffing the memory against a snapshot taken at the previous
// fork and folding the changed words into a cumulative overlay. Every fork
// the master takes must match it in anchor, count, registers, NewDiffWords
// and MemDiff contents.
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
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Slaves = 2
			m, err := New(p, d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefMaster(t, m)
			ms := m.master
			if !ms.Reseed(m.Arch) {
				t.Fatal("reseed started no master life")
			}
			n := 0
			for ; n < forks; n++ {
				want, ok := ref.next()
				r := ms.Run(math.MaxUint64)
				if !ok {
					if r.Stop != ref.stop {
						t.Fatalf("master stopped with %d, reference with %d", r.Stop, ref.stop)
					}
					break
				}
				if r.Stop != MasterForked {
					t.Fatalf("fork %d: master stopped with %d where the reference forked at %#x", n, r.Stop, want.anchor)
				}
				if r.Anchor != want.anchor || r.Count != want.count {
					t.Fatalf("fork %d: master forked at %#x count %d, reference at %#x count %d",
						n, r.Anchor, r.Count, want.anchor, want.count)
				}
				ck := ms.Checkpoint()
				if ck.Regs != ref.st.Regs {
					t.Fatalf("fork %d at %#x: checkpoint registers differ from the reference's", n, r.Anchor)
				}
				if ck.NewDiffWords != want.newWords {
					t.Fatalf("fork %d at %#x: NewDiffWords %d, reference %d", n, r.Anchor, ck.NewDiffWords, want.newWords)
				}
				if err := sameWords(ck.MemDiff, ref.cum); err != nil {
					t.Fatalf("fork %d at %#x: MemDiff %v", n, r.Anchor, err)
				}
			}
			if n == 0 {
				t.Fatal("the master life forked no task")
			}
			t.Logf("%d checkpoints match", n)
		})
	}
}

// refMaster is the reference master: the plain predecoded distilled
// program stepped through cpu.Code.Step on its own copy of a life's start
// image, with the fork policy and the checkpoint built the plain way.
type refMaster struct {
	st        *state.State
	code      *cpu.Code
	dist      *distill.Result
	cfg       *Config
	since     uint64
	crossings map[uint64]uint64
	diffBase  *mem.Memory
	cum       *mem.Overlay
	// stop is how the life ended, once next has reported its end.
	stop MasterStop
}

// refFork is one fork the reference took.
type refFork struct {
	anchor, count uint64
	newWords      int
}

// newRefMaster starts a reference master where a reseed of m's master from
// m's architected state starts its life.
func newRefMaster(t *testing.T, m *Machine) *refMaster {
	t.Helper()
	dpc, ok := m.Dist.OrigToDist[m.Arch.PC]
	if !ok {
		t.Fatal("entry PC does not map into the distilled program")
	}
	img := m.Arch.Mem.Snapshot()
	img.CopyWords(m.Dist.Prog.Code.Base, m.Dist.Prog.Code.Words)
	return &refMaster{
		st:        &state.State{Regs: m.Arch.Regs, PC: dpc, Mem: img},
		code:      cpu.NewCode(isa.Predecode(m.Dist.Prog)),
		dist:      m.Dist,
		cfg:       &m.Cfg,
		since:     1 << 62, // the first fork is always taken
		crossings: make(map[uint64]uint64),
		diffBase:  img.Snapshot(),
		cum:       mem.NewOverlay(),
	}
}

// next steps the reference to its next taken fork and folds the words that
// changed since the previous one into cum. At the end of the life instead
// it sets stop and reports ok false.
func (r *refMaster) next() (f refFork, ok bool) {
	env := cpu.StateEnv{S: r.st}
	for {
		in, err := r.code.Step(env)
		if err != nil {
			r.stop = MasterLost
			return f, false
		}
		r.since++
		switch in.Op {
		case isa.OpHalt:
			r.stop = MasterHalted
			return f, false
		case isa.OpFork:
			a := uint64(in.Imm)
			r.crossings[a]++
			if r.since > r.cfg.MinTaskSpacing {
				f = refFork{anchor: a, count: r.crossings[a]}
				r.since = 0
				clear(r.crossings)
				r.st.Mem.Diff(r.diffBase, func(a, v, _ uint64) {
					if _, ok := r.cum.Get(a); !ok {
						f.newWords++
					}
					r.cum.Set(a, v)
				})
				r.diffBase = r.st.Mem.Snapshot()
				return f, true
			}
		case isa.OpJalr:
			if dpc, ok := r.dist.OrigToDist[r.st.PC]; ok {
				r.st.PC = dpc
			} else if !r.dist.Prog.InCode(r.st.PC) {
				r.stop = MasterLost
				return f, false
			}
		}
		if r.since > r.cfg.MasterRunaheadCap {
			r.stop = MasterLost
			return f, false
		}
	}
}

// sameWords reports how got and want differ as address-to-value sets, or
// nil when they bind the same words to the same values.
func sameWords(got, want *mem.Overlay) (err error) {
	if got.Len() != want.Len() {
		return fmt.Errorf("binds %d words, the reference %d", got.Len(), want.Len())
	}
	got.Range(func(a, v uint64) bool {
		if w, ok := want.Get(a); !ok || w != v {
			err = fmt.Errorf("has [%#x]=%d where the reference has %d (bound: %v)", a, v, w, ok)
		}
		return err == nil
	})
	return err
}
