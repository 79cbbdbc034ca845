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
	"mssp/internal/task"
	"mssp/internal/workloads"
)

// TestMasterCheckpointMatchesDiff looks inside the master's checkpoints,
// which nothing else does: the end-to-end differentials see only final
// state, and verification keeps that correct whatever the prediction. Both
// engines run this master, so the test covers both engines' checkpoints.
// It runs one master life from a machine's initial state and a reference
// master in lockstep on its own copy of the start image: the reference
// steps the distilled program one instruction at a time, applies the
// fork policy written out per instruction, and computes each checkpoint the
// plain way, by diffing the memory against a snapshot taken at the previous
// fork. Every fork the master takes must match it in anchor, count,
// registers and NewDiffWords, counted against the set of every word any
// diff reported, and in the whole memory view, both windows: the words
// changed at the forks since the previous window began, at their current
// values.
//
// A window spans TaskBuffer forks, so each workload runs at three windows:
// the default at 2 slaves (8), 1 at 1 slave (every view is the fork's own
// changes alone), and one above the number of forks compared (one window,
// so every view holds every word changed since the reseed).
func TestMasterCheckpointMatchesDiff(t *testing.T) {
	forks := 1000
	if testing.Short() {
		forks = 150
	}
	windows := []struct {
		name                  string
		slaves, window, forks int
	}{
		{"window8", 2, 0, forks},
		{"window1", 1, 1, forks},
		{"nocompaction", 2, 151, 150},
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
			for _, c := range windows {
				t.Run(c.name, func(t *testing.T) {
					cfg := DefaultConfig()
					cfg.Slaves, cfg.TaskBuffer = c.slaves, c.window
					m, err := New(p, d, cfg)
					if err != nil {
						t.Fatal(err)
					}
					n := checkMasterLife(t, m, c.forks)
					if n == 0 {
						t.Fatal("the master life forked no task")
					}
					t.Logf("%d checkpoints match", n)
				})
			}
		})
	}
}

// checkMasterLife runs m's master and a reference master in lockstep for up
// to forks forks, checks every checkpoint against the reference's and the
// window schedule, and returns how many forks it compared.
func checkMasterLife(t *testing.T, m *Machine, forks int) (n int) {
	t.Helper()
	ref := newRefMaster(t, m)
	ms := m.master
	if !ms.Reseed(m.Arch) {
		t.Fatal("reseed started no master life")
	}
	window := m.Cfg.TaskBuffer
	for ; n < forks; n++ {
		want, ok := ref.next()
		r := ms.Run(math.MaxUint64)
		if !ok {
			if r.Stop != ref.stop {
				t.Fatalf("master stopped with %d, reference with %d", r.Stop, ref.stop)
			}
			return n
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
		if err := sameWords(ck, ref.view(window)); err != nil {
			t.Fatalf("fork %d at %#x: memory view %v", n, r.Anchor, err)
		}
		// A window's last fork leaves the previous window's layer alone.
		if (n+1)%window == 0 && ck.Layers != nil {
			t.Fatalf("fork %d at %#x: a current window's layer left at its last fork (window %d)", n, r.Anchor, window)
		}
		if ck.MemDiff != nil {
			t.Fatalf("fork %d at %#x: the master set a base", n, r.Anchor)
		}
	}
	return n
}

// refMaster is the reference master: the distilled program stepped through
// cpu.Step on its own copy of a life's start image, with the fork policy
// and the checkpoint built the plain way.
type refMaster struct {
	st        *state.State
	dist      *distill.Result
	cfg       *Config
	since     uint64
	crossings map[uint64]uint64
	diffBase  *mem.Memory
	// ever holds every word changed since the life began, and changed
	// lists the words each fork changed, oldest fork first.
	ever    map[uint64]bool
	changed [][]uint64
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
		dist:      m.Dist,
		cfg:       &m.Cfg,
		since:     1 << 62, // the first fork is always taken
		crossings: make(map[uint64]uint64),
		diffBase:  img.Snapshot(),
		ever:      make(map[uint64]bool),
	}
}

// next steps the reference to its next taken fork, folds the words that
// changed since the previous one into ever and lists them in changed. At the end of the life instead
// it sets stop and reports ok false.
func (r *refMaster) next() (f refFork, ok bool) {
	env := cpu.StateEnv{S: r.st}
	for {
		in, err := cpu.Step(env)
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
				var ch []uint64
				r.st.Mem.Diff(r.diffBase, func(a, v, _ uint64) {
					if !r.ever[a] {
						f.newWords++
					}
					r.ever[a] = true
					ch = append(ch, a)
				})
				r.changed = append(r.changed, ch)
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

// view returns the memory view the reference defines at its latest fork,
// for windows of the given length: the words changed at the forks since the
// previous window began (at a window's last fork, that window alone), at
// their current values.
func (r *refMaster) view(window int) map[uint64]uint64 {
	f := len(r.changed)
	span := f%window + window
	if f%window == 0 {
		span = window
	}
	v := map[uint64]uint64{}
	for _, as := range r.changed[max(f-span, 0):] {
		for _, a := range as {
			v[a] = r.st.Mem.Read(a)
		}
	}
	return v
}

// sameWords reports how ck's whole memory view and want differ as
// address-to-value sets, or nil when they bind the same words to the same
// values. It reads the view as a slave does, through a table over it and a
// snapshot that holds every word of want at another value, so a read
// returns want's value only from the view.
func sameWords(ck task.Checkpoint, want map[uint64]uint64) (err error) {
	snap := mem.New()
	for a, w := range want {
		snap.Write(a, ^w)
	}
	tab := mem.NewTable()
	tab.Over(ck.MemDiff, ck.Prev, ck.Layers, snap)
	for a, w := range want {
		if v := tab.Load(a); v != w {
			return fmt.Errorf("reads [%#x]=%d where the reference has %d", a, v, w)
		}
	}
	bound := func(a, v uint64) bool {
		if _, ok := want[a]; !ok {
			err = fmt.Errorf("binds [%#x]=%d, which the reference does not", a, v)
		}
		return err == nil
	}
	if ck.MemDiff != nil {
		ck.MemDiff.Range(bound)
	}
	if err == nil {
		ck.Prev.Range(bound)
	}
	if err == nil {
		ck.Layers.Range(bound)
	}
	return err
}

// TestMasterLayerAllocs pins what a fork costs the master once warm, at
// the default window at 2 slaves (8), so a window's last fork, where the
// layers start again, is measured too: at most one allocation, the fork's
// layer. Its page entries, values and page index come from the layer
// builder's chunks, and the map that counts NewDiffWords already holds the
// pages the forks write.
func TestMasterLayerAllocs(t *testing.T) {
	w, err := workloads.ByName("mtf")
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
	cfg := DefaultConfig()
	cfg.Slaves = 2
	m, err := New(p, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := m.master
	if !ms.Reseed(m.Arch) {
		t.Fatal("reseed started no master life")
	}
	layered, ended := 0, 0
	var top *mem.Layer
	fork := func() {
		if r := ms.Run(math.MaxUint64); r.Stop != MasterForked {
			t.Fatalf("the master life ended (%d)", r.Stop)
		}
		ck := ms.Checkpoint()
		if ck.Layers != top && ck.Layers != nil {
			layered++
		}
		if ck.Layers == nil {
			ended++
		}
		top = ck.Layers
	}
	for i := 0; i < 300; i++ {
		fork()
	}
	layered, ended = 0, 0
	if allocs := testing.AllocsPerRun(200, fork); allocs > 1 {
		t.Fatalf("a fork allocates %v objects, want at most 1 (its layer)", allocs)
	}
	if layered == 0 || ended == 0 {
		t.Fatalf("the measured forks built %d layers and ended %d windows, want some of each", layered, ended)
	}
	t.Logf("%d of 201 measured forks built a layer, %d ended a window", layered, ended)
}
