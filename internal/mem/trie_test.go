package mem

import (
	"math/rand"
	"testing"
)

// countPages returns the number of materialized pages in t.
func countPages[D any](t *trie[D]) int {
	n := 0
	t.leaves(func(uint64, *leaf[D]) bool { n++; return true })
	return n
}

// Diff and Equal between members of one family whose tries have different
// heights (snapshots taken before the parent grew taller, and siblings that
// grew on their own) must agree with a map model.
func TestDiffEqualAcrossHeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type member struct {
		m     *Memory
		model map[uint64]uint64
	}
	write := func(x member, addr, v uint64) {
		x.m.Write(addr, v)
		if v == 0 {
			delete(x.model, addr)
		} else {
			x.model[addr] = v
		}
	}
	root := member{New(), map[uint64]uint64{}}
	var fam []member
	highs := []uint64{1 << 20, 1 << 40, 1 << 60, ^uint64(0) - 5}
	for round, hi := range highs {
		for i := 0; i < 40; i++ {
			write(root, uint64(rng.Intn(2000)), uint64(rng.Intn(4)))
		}
		fam = append(fam, member{root.m.Snapshot(), copyModel(root.model)})
		write(root, hi+uint64(round), 9)
		// A sibling that grows on its own, past the parent's height.
		sib := member{root.m.Snapshot(), copyModel(root.model)}
		write(sib, ^uint64(0)-uint64(round), 3)
		write(sib, uint64(rng.Intn(2000)), 0)
		fam = append(fam, sib)
	}
	fam = append(fam, root, member{New(), map[uint64]uint64{}})
	for i, a := range fam {
		for j, b := range fam {
			want := map[uint64][2]uint64{}
			for k, v := range a.model {
				if b.model[k] != v {
					want[k] = [2]uint64{v, b.model[k]}
				}
			}
			for k, v := range b.model {
				if _, ok := a.model[k]; !ok {
					want[k] = [2]uint64{0, v}
				}
			}
			got := map[uint64][2]uint64{}
			var prev uint64
			a.m.Diff(b.m, func(addr, av, bv uint64) {
				if len(got) > 0 && addr <= prev {
					t.Errorf("members %d,%d: Diff not in ascending order at %#x", i, j, addr)
				}
				prev = addr
				got[addr] = [2]uint64{av, bv}
			})
			if len(got) != len(want) {
				t.Fatalf("members %d,%d (heights %d,%d): Diff reported %d words, model %d",
					i, j, a.m.t.height, b.m.t.height, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Errorf("members %d,%d: Diff[%#x] = %v, want %v", i, j, k, got[k], v)
				}
			}
			if eq := a.m.Equal(b.m); eq != (len(want) == 0) {
				t.Errorf("members %d,%d: Equal = %v, model differs in %d words", i, j, eq, len(want))
			}
		}
	}
}

// Diff between two siblings that differ in k pages must visit O(k·height)
// nodes, however many pages they share.
func TestDiffVisitsOnlyDifferingPages(t *testing.T) {
	m := New()
	for pn := uint64(0); pn < 4096; pn++ {
		m.Write(pn*PageWords, pn+1)
	}
	m.Write(1<<40, 1) // taller trie: more levels on every path
	a, b := m.Snapshot(), m.Snapshot()
	for _, k := range []int{0, 1, 5, 40} {
		written := map[uint64]bool{}
		for i := 0; i < k; i++ {
			pn := uint64(i*97) % 4096
			b.Write(pn*PageWords+3, 1000+uint64(i))
			written[pn*PageWords+3] = true
		}
		d := differ{f: func(uint64, *page, *page) bool { return true }}
		d.run(&a.t, &b.t)
		h := int(a.t.height)
		if d.visits > k*(h+1)+1 {
			t.Errorf("k=%d: Diff visited %d nodes, want at most %d (height %d)", k, d.visits, k*(h+1)+1, h)
		}
		n := 0
		a.Diff(b, func(addr, _, _ uint64) {
			n++
			if !written[addr] {
				t.Errorf("k=%d: Diff reported unwritten address %#x", k, addr)
			}
		})
		if n != len(written) {
			t.Errorf("k=%d: Diff reported %d words, want %d", k, n, len(written))
		}
		b = m.Snapshot()
	}
}

// Snapshot is O(1): it allocates the same with 16 or 4096 populated pages.
func TestSnapshotAllocsIndependentOfSize(t *testing.T) {
	allocs := func(pages uint64) (float64, float64) {
		m, o := New(), NewOverlay()
		for pn := uint64(0); pn < pages; pn++ {
			m.Write(pn*PageWords, pn+1)
			o.Set(pn*PageWords, pn)
		}
		return testing.AllocsPerRun(50, func() { _ = m.Snapshot() }),
			testing.AllocsPerRun(50, func() { _ = o.Snapshot() })
	}
	m16, o16 := allocs(16)
	m4k, o4k := allocs(4096)
	if m16 != m4k || o16 != o4k {
		t.Errorf("Snapshot allocs/op: Memory %v (16 pages) vs %v (4096), Overlay %v vs %v", m16, m4k, o16, o4k)
	}
}
