package mem

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// layerAddrs draws n distinct addresses in ascending order, from a few pages
// whose numbers share their low six bits (so page signatures collide), a
// few neighbours of them, and anywhere in the 64-bit range.
func layerAddrs(rng *rand.Rand, n int) []uint64 {
	set := map[uint64]bool{}
	for len(set) < n {
		var a uint64
		switch rng.Intn(6) {
		case 0:
			a = rng.Uint64()
		case 1, 2:
			a = (uint64(rng.Intn(4))*64+5)<<pageShift | uint64(rng.Intn(PageWords))
		default:
			a = 1<<16 + uint64(rng.Intn(6*PageWords))
		}
		set[a] = true
	}
	as := make([]uint64, 0, n)
	for a := range set {
		as = append(as, a)
	}
	slices.Sort(as)
	return as
}

// Property: the view a Layered hands out at each fork, read through a
// slave's table over a frozen base overlay and a snapshot, reads every word
// as a plain map does that applies the snapshot, the base and then, at
// their current values, the words changed at the forks since the previous
// window began; its two chains' Range report exactly those words, each
// once, in ascending order; NewDiffWords counts the words changed for the
// first time; and a fork that changes nothing builds no layer. A fork runs
// random writes to a journaled memory, some of which store a word's current
// value and so change nothing. Windows run from 1 to 5 forks, and layers
// span chunk boundaries. The seeds of one window length share one Layered,
// Reset between them, so NewDiffWords must stay exact across resets. One
// table reads every view, emptied before each pass: each seed's views as
// they are built, then the same views in random order, after later forks
// have built more layers into the same chunks. The snapshot holds each
// probed word at a value no layer or base gives it, so a read shows where
// its word came from.
func TestLayerViewMatchesModel(t *testing.T) {
	tab := NewTable()
	type probe struct{ a, v uint64 }
	var wants []probe
	lays := map[int]*Layered{}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		window := 1 + rng.Intn(5)
		base := NewOverlay()
		baseWords := map[uint64]uint64{}
		var probes []uint64
		for _, a := range layerAddrs(rng, rng.Intn(40)) {
			v := rng.Uint64()
			base.Set(a, v)
			baseWords[a] = v
			probes = append(probes, a, a+1)
		}
		frozen := base.Snapshot()
		m := New()
		var j Journal
		j.Attach(m)
		lay := lays[window]
		if lay == nil {
			lay = NewLayered(window)
			lays[window] = lay
		} else {
			lay.Reset()
		}
		type view struct {
			prev, top *Layer
			model     map[uint64]uint64 // the view's words alone
		}
		var views []view
		var changed [][]uint64        // the words each fork changed
		atFork := map[uint64]uint64{} // each written word's value at the latest fork
		everChanged := map[uint64]bool{}
		var lastTop *Layer // the current chain's top before this fork
		for k := 1 + rng.Intn(4*window+4); k > 0; k-- {
			n := rng.Intn(30)
			switch rng.Intn(20) {
			case 0:
				n = 2 * chunkLen // one layer larger than a chunk
			case 1, 2:
				n = 0 // a fork that changes nothing
			}
			for _, a := range layerAddrs(rng, n) {
				v := rng.Uint64() % 4 // small values, so some stores change nothing
				m.Write(a, v)
				if _, ok := atFork[a]; !ok {
					atFork[a] = 0
				}
				probes = append(probes, a, a^1)
			}
			var ch []uint64
			newWords := 0
			for a, old := range atFork {
				if v := m.Read(a); v != old {
					ch = append(ch, a)
					atFork[a] = v
					if !everChanged[a] {
						everChanged[a] = true
						newWords++
					}
				}
			}
			changed = append(changed, ch)
			prev, top, got := lay.Fork(&j)
			if got != newWords {
				t.Fatalf("seed %d, fork %d: NewDiffWords %d, want %d", seed, len(changed), got, newWords)
			}
			// The view spans the forks since the previous window began:
			// at a window's last fork, that window alone.
			f := len(changed)
			span := f%window + window
			if f%window == 0 {
				span = window
			}
			model := map[uint64]uint64{}
			for _, as := range changed[max(f-span, 0):] {
				for _, a := range as {
					model[a] = atFork[a]
				}
			}
			if f%window == 0 && top != nil {
				t.Fatalf("seed %d, fork %d: a window's last fork left a current chain", seed, f)
			}
			// A fork that changed nothing builds no layer: the chain's top
			// stays the one below it, which at a window's last fork
			// becomes the previous window's layer.
			if len(ch) == 0 {
				if f%window != 0 && top != lastTop || f%window == 0 && prev != lastTop {
					t.Fatalf("seed %d, fork %d: an empty build made a layer", seed, f)
				}
			}
			lastTop = top
			views = append(views, view{prev, top, model})
		}
		order := make([]int, 0, 2*len(views))
		for i := range views {
			order = append(order, i)
		}
		order = append(order, rng.Perm(len(views))...)
		snap := New()
		for _, a := range probes {
			snap.Write(a, ^a)
		}
		for _, i := range order {
			v := views[i]
			// The probes in address order, then in random order, back and
			// forth between pages the view binds words on and others.
			slices.Sort(probes)
			wants = wants[:0]
			for _, a := range probes {
				w, ok := v.model[a]
				if !ok {
					w, ok = baseWords[a]
				}
				if !ok {
					w = ^a
				}
				wants = append(wants, probe{a, w})
			}
			for pass := 0; pass < 2; pass++ {
				tab.reset()
				tab.Over(frozen, v.prev, v.top, snap)
				for _, p := range wants {
					if got := tab.Load(p.a); got != p.v {
						t.Fatalf("seed %d, view %d: Load(%#x) = %d, want %d", seed, i, p.a, got, p.v)
					}
				}
				rng.Shuffle(len(wants), func(i, j int) { wants[i], wants[j] = wants[j], wants[i] })
			}
			got := map[uint64]uint64{}
			for _, l := range []*Layer{v.prev, v.top} {
				last, first := uint64(0), true
				l.Range(func(a, w uint64) bool {
					if !first && a <= last {
						t.Fatalf("seed %d, view %d: Range reported %#x after %#x", seed, i, a, last)
					}
					last, first = a, false
					got[a] = w
					return true
				})
			}
			if !maps.Equal(got, v.model) {
				t.Fatalf("seed %d, view %d: the chains bind %d words, want %d", seed, i, len(got), len(v.model))
			}
		}
	}
}

// A layer is frozen once built: building many more on the same builder,
// across chunk boundaries, leaves every earlier layer reading as it did.
func TestLayerChunksStayFrozen(t *testing.T) {
	var b layerBuilder
	type built struct {
		l    *Layer
		a, v uint64
	}
	var all []built
	var top *Layer
	for i := uint64(0); i < 3*chunkLen; i++ {
		// Two words on each of two pages per layer, so both chunks fill.
		a := (i % 9) << pageShift
		b.add(a, i)
		b.add(a+1, ^i)
		b.add(a+3*PageWords, i+1)
		b.add(a+3*PageWords+5, i+2)
		top = b.build(top)
		all = append(all, built{top, a, i})
		if i%64 == 63 {
			top = nil // a window's end starts the chain again
		}
	}
	tab, snap := NewTable(), New()
	for _, x := range all {
		tab.reset()
		tab.Over(nil, nil, x.l, snap)
		for _, c := range [][2]uint64{{x.a, x.v}, {x.a + 1, ^x.v}, {x.a + 3*PageWords, x.v + 1}, {x.a + 3*PageWords + 5, x.v + 2}} {
			if v := tab.Load(c[0]); v != c[1] {
				t.Fatalf("layer %d: Load(%#x) = %d, want %d", x.v, c[0], v, c[1])
			}
		}
	}
}

// Many goroutines reading a view of two chains over a frozen base through
// their own tables while its builder goes on building layers into the same
// chunks, as slaves read a checkpoint while the master forks the next
// ones; under -race this test proves the reads race with nothing.
func TestLayerConcurrentReaders(t *testing.T) {
	base := NewOverlay()
	for a := uint64(0); a < 4*PageWords; a += 3 {
		base.Set(a, a+7)
	}
	frozen := base.Snapshot()
	var b layerBuilder
	var prev, top *Layer
	for k := uint64(1); k <= 6; k++ {
		if k == 4 {
			prev, top = top, nil // the window ends
		}
		for a := k; a < 4*PageWords; a += 8 {
			b.add(a, a*k)
		}
		top = b.build(top)
	}
	// want is what a slave reads: the layer k with a%8 == k, else the
	// base, else its snapshot, which holds a+1 at every word.
	want := func(a uint64) uint64 {
		if k := a % 8; k >= 1 && k <= 6 {
			return a * k
		}
		if a%3 == 0 {
			return a + 7
		}
		return a + 1
	}
	arch := New()
	for a := uint64(0); a < 4*PageWords; a++ {
		arch.Write(a, a+1)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		snap := arch.Snapshot()
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := NewTable()
			for rep := 0; rep < 20; rep++ {
				tab.reset()
				tab.Over(frozen, prev, top, snap)
				for a := uint64(0); a < 4*PageWords; a++ {
					if tab.Load(a) != want(a) {
						errs <- "table disagrees with the view"
						return
					}
				}
			}
		}()
	}
	more := top
	for i := uint64(0); i < 2*chunkLen; i++ {
		b.add(i*PageWords, i)
		more = b.build(more)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
