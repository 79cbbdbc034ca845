package state

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mssp/internal/mem"
)

// tableModel is what a slave's table must hold after a run of loads and
// stores: the first value read of every word read before written, the last
// value stored of every word written, and the value a load returns.
type tableModel struct {
	in, out, cur map[uint64]uint64
}

// load is the model of a slave load of addr over the view below, else snap.
func (m *tableModel) load(addr uint64, below, snap map[uint64]uint64) uint64 {
	if v, ok := m.cur[addr]; ok {
		return v
	}
	v, ok := below[addr]
	if !ok {
		v = snap[addr]
	}
	m.in[addr], m.cur[addr] = v, v
	return v
}

func (m *tableModel) store(addr, v uint64) { m.out[addr], m.cur[addr] = v, v }

// slaveLoad and slaveStore access the table the way the slave does: the
// inline hit, else the full probe.
func slaveLoad(tab *mem.Table, addr uint64) uint64 {
	if v, ok := tab.Cached(addr); ok {
		return v
	}
	return tab.Load(addr)
}

func slaveStore(tab *mem.Table, addr, v uint64) {
	if !tab.StoreCached(addr, v) {
		tab.Store(addr, v)
	}
}

// checkDelta compares a delta's memory bindings with a model map: Len,
// MemVal on every address the run touched, MemBounds and the ascending
// iteration.
func checkDelta(t *testing.T, name string, d *Delta, want map[uint64]uint64, touched []uint64) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("%s: Len = %d, want %d", name, d.Len(), len(want))
	}
	for _, a := range touched {
		v, ok := d.MemVal(a)
		if wv, wok := want[a]; ok != wok || v != wv {
			t.Fatalf("%s: MemVal(%d) = %d,%v, want %d,%v", name, a, v, ok, wv, wok)
		}
	}
	addrs := make([]uint64, 0, len(want))
	for a := range want {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var got []uint64
	d.RangeMem(func(a, v uint64) bool {
		if v != want[a] {
			t.Fatalf("%s: RangeMem reports m%d=%d, want %d", name, a, v, want[a])
		}
		got = append(got, a)
		return true
	})
	if len(got) != len(addrs) {
		t.Fatalf("%s: RangeMem visits %d words, want %d", name, len(got), len(addrs))
	}
	for i := range got {
		if got[i] != addrs[i] {
			t.Fatalf("%s: RangeMem order %v, want %v", name, got, addrs)
		}
	}
	lo, hi, ok := d.MemBounds()
	if ok != (len(addrs) > 0) || ok && (lo != addrs[0] || hi != addrs[len(addrs)-1]) {
		t.Fatalf("%s: MemBounds = %d,%d,%v, want %v", name, lo, hi, ok, addrs)
	}
}

// TestTableVsModel runs random loads and stores over a few pages through
// one pooled table, the way a slave does, over a checkpoint's view of two
// chains of layers over a base and a snapshot, and checks the live-in and
// live-out deltas over its two views against a map model: the bindings,
// Len, MemVal, MemBounds, the ascending iteration, and what Apply and
// FirstInconsistency do with them. The pages lie far apart, so the page
// cache thrashes; small address ranges make read-then-write,
// write-then-read and re-reads common. Every round reuses the table after
// a Reset, so a stale binding from an earlier round would show.
func TestTableVsModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := mem.NewTable()
	liveIn, liveOut := NewDeltaOver(tab.In()), NewDeltaOver(tab.Out())
	pages := []uint64{0, 1, 7, 1 << 20, 1<<50 + 3}
	addr := func() uint64 {
		return pages[rng.Intn(len(pages))]<<7 | uint64(rng.Intn(24))*5%mem.PageWords
	}
	for round := 0; round < 200; round++ {
		liveIn.Reset()
		liveOut.Reset()
		// The checkpoint view and the snapshot below the table.
		base, snap := mem.NewOverlay(), mem.New()
		below, snapModel := map[uint64]uint64{}, map[uint64]uint64{}
		for i := 0; i < 40; i++ {
			a, v := addr(), rng.Uint64()%8
			base.Set(a, v)
			below[a] = v
			a, v = addr(), rng.Uint64()%8
			snap.Write(a, v)
			snapModel[a] = v
		}
		// Two chains of one-word layers over the base, top over prev.
		var prev, top *mem.Layer
		for _, l := range []**mem.Layer{&prev, &top} {
			for i := 0; i < 10; i++ {
				a, v := addr(), rng.Uint64()%8
				*l = (*l).With(a, v)
				below[a] = v
			}
		}
		tab.Over(base, prev, top, snap)
		m := tableModel{in: map[uint64]uint64{}, out: map[uint64]uint64{}, cur: map[uint64]uint64{}}
		var touched []uint64
		for i, n := 0, rng.Intn(300); i < n; i++ {
			a := addr()
			touched = append(touched, a)
			if rng.Intn(2) == 0 {
				if got, want := slaveLoad(tab, a), m.load(a, below, snapModel); got != want {
					t.Fatalf("round %d: load m%d = %d, want %d", round, a, got, want)
				}
			} else {
				v := rng.Uint64() % 8
				slaveStore(tab, a, v)
				m.store(a, v)
			}
		}
		touched = append(touched, addr(), addr())
		if round%2 == 0 {
			tab.Sort()
		}
		checkDelta(t, "live-in", liveIn, m.in, touched)
		checkDelta(t, "live-out", liveOut, m.out, touched)

		// The live-ins verify against the state they were read from, and
		// the first mismatch is the lowest address a state disagrees at.
		arch := New()
		for a, v := range snapModel {
			arch.Mem.Write(a, v)
		}
		for a, v := range below {
			arch.Mem.Write(a, v)
		}
		if inc := arch.FirstInconsistency(liveIn); inc != nil {
			t.Fatalf("round %d: live-ins inconsistent with their source: %v", round, inc)
		}
		var wrong []uint64
		for a := range m.in {
			if rng.Intn(3) == 0 {
				wrong = append(wrong, a)
				arch.Mem.Write(a, m.in[a]+1)
			}
		}
		if len(wrong) > 0 {
			sort.Slice(wrong, func(i, j int) bool { return wrong[i] < wrong[j] })
			inc := arch.FirstInconsistency(liveIn)
			if inc == nil || inc.Cell != fmt.Sprintf("m%d", wrong[0]) || inc.Delta != m.in[wrong[0]] {
				t.Fatalf("round %d: FirstInconsistency = %v, want m%d", round, inc, wrong[0])
			}
		}
		// Apply writes exactly the live-outs.
		before := arch.Clone()
		arch.Apply(liveOut)
		for a, v := range m.out {
			before.Mem.Write(a, v)
		}
		if !arch.Equal(before) {
			t.Fatalf("round %d: Apply(live-out) differs from the model", round)
		}
	}
}

// TestTableFirstInconsistencyLowest: a task that touched its pages in
// descending order still has its lowest mismatching live-in reported
// first, whether or not anything sorted the table before the check.
func TestTableFirstInconsistencyLowest(t *testing.T) {
	for _, sorted := range []bool{false, true} {
		tab, snap := mem.NewTable(), mem.New()
		tab.Over(nil, nil, nil, snap)
		for pn := uint64(40); pn > 0; pn-- {
			for _, w := range []uint64{90, 3} {
				snap.Write(pn<<7|w, pn+w)
				tab.Load(pn<<7 | w)
			}
		}
		if sorted {
			tab.Sort()
		}
		arch := New()
		arch.Mem = snap.Snapshot()
		arch.Mem.Write(30<<7|90, 0)
		arch.Mem.Write(12<<7|90, 0)
		arch.Mem.Write(25<<7|3, 0)
		inc := arch.FirstInconsistency(NewDeltaOver(tab.In()))
		if want := fmt.Sprintf("m%d", 12<<7|90); inc == nil || inc.Cell != want {
			t.Errorf("sorted=%v: FirstInconsistency = %v, want %s", sorted, inc, want)
		}
	}
}
