package mem

import (
	"math/rand"
	"testing"
)

// TestTableManyPages runs a drain-sized task over 5,000 pages in a scattered
// order, so almost every access misses the page cache and goes through the
// index, which grows several times on the way. Every word must still read
// back, both views must count and bound what they hold, and a lookup must
// stay a few probes long: the index keeps between two and four slots per
// page, and a page sits on average within two slots of its hash.
func TestTableManyPages(t *testing.T) {
	const pages = 5000
	tab := NewTable()
	snap := New()
	perm := rand.New(rand.NewSource(2)).Perm(pages)
	for round := 0; round < 2; round++ {
		View{tab, viewIn}.Reset()
		tab.Over(nil, nil, nil, snap)
		for rep := 0; rep < 4; rep++ {
			for _, p := range perm {
				a := uint64(p)<<pageShift | uint64(p%PageWords)
				if rep == 0 {
					tab.Store(a, a)
				}
				if got := tab.Load(a); got != a {
					t.Fatalf("round %d: m%d = %d, want %d", round, a, got, a)
				}
				if got := tab.Load(a ^ 64); got != 0 {
					t.Fatalf("round %d: m%d = %d, want 0", round, a^64, got)
				}
			}
		}
		if n := tab.Out().Len(); n != pages {
			t.Fatalf("round %d: live-out Len = %d, want %d", round, n, pages)
		}
		if n := tab.In().Len(); n != pages {
			t.Fatalf("round %d: live-in Len = %d, want %d", round, n, pages)
		}
		lo, hi, _ := tab.Out().Bounds()
		if last := uint64(pages-1)<<pageShift | uint64((pages-1)%PageWords); lo != 0 || hi != last {
			t.Fatalf("round %d: live-out bounds %d..%d, want 0..%d", round, lo, hi, last)
		}
		prev, n := uint64(0), 0
		tab.Out().Range(func(a, v uint64) bool {
			if n > 0 && a <= prev || v != a {
				t.Fatalf("round %d: Range reports m%d=%d after m%d", round, a, v, prev)
			}
			prev, n = a, n+1
			return true
		})
	}
	if len(tab.slots) < 2*pages || len(tab.slots) > 4*pages {
		t.Errorf("index has %d slots for %d pages", len(tab.slots), pages)
	}
	probes, m := 0, uint64(len(tab.slots)-1)
	for _, p := range tab.pages[:tab.used] {
		for h := tab.hash(p.pn); tab.slots[h].p != p; h = (h + 1) & m {
			probes++
		}
	}
	if mean := float64(probes) / pages; mean > 2 {
		t.Errorf("a page sits %.2f slots past its hash on average", mean)
	}
}

// TestTableResetSteadyStateAllocs: a table reused across resets allocates
// nothing once it has held as many pages as a run touches, whatever order
// the run touches them in, and whether its first reads find their words
// in the checkpoint's layers, its base or the snapshot.
func TestTableResetSteadyStateAllocs(t *testing.T) {
	var b layerBuilder
	for p := uint64(1); p <= 40; p += 2 {
		b.add(p<<pageShift|9, p)
	}
	prev := b.build(nil)
	for p := uint64(1); p <= 40; p += 4 {
		b.add(p<<pageShift|9, ^p)
	}
	top := b.build(nil)
	base := NewOverlay()
	base.Set(2<<pageShift|9, 7)
	snap := New()
	tab := NewTable()
	run := func() {
		View{tab, viewOut}.Reset()
		tab.Over(base, prev, top, snap)
		for p := uint64(40); p > 0; p-- {
			tab.Store(p<<pageShift|3, p)
			tab.Load(p<<pageShift | 9)
			tab.Load(p<<pageShift | 10)
		}
		tab.Sort()
	}
	run()
	for p, want := range map[uint64]uint64{1: ^uint64(1), 3: 3, 2: 7, 4: 0} {
		if v, _ := tab.In().Get(p<<pageShift | 9); v != want {
			t.Errorf("page %d: first read found %d, want %d", p, v, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
		t.Errorf("reset/load/store/sort cycle allocates %v per run, want 0", allocs)
	}
}
