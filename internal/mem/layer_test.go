package mem

import (
	"cmp"
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

// Property: a reader over a base overlay and a chain of layers reads every
// word as a plain map does that applies the base and then the layers,
// oldest first; and Range reports every word the layers bind once, in
// ascending order, at its newest value. One builder makes every chain, so
// layers span chunk boundaries. One reader reads every view, reusing its
// merged-page buffers: each seed's chain as it grows, then the same views
// in random order, then the next seed's views over another base.
func TestLayerViewMatchesModel(t *testing.T) {
	var b layerBuilder
	var rd OverlayReader
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := NewOverlay()
		model := map[uint64]uint64{}
		var probes []uint64
		for _, a := range layerAddrs(rng, rng.Intn(40)) {
			v := rng.Uint64()
			base.Set(a, v)
			model[a] = v
			probes = append(probes, a, a+1)
		}
		frozen := base.Snapshot()
		type view struct {
			top   *Layer
			model map[uint64]uint64
		}
		views := []view{{nil, maps.Clone(model)}}
		var top *Layer
		bound := map[uint64]uint64{} // the layers' words at their newest values
		for k := rng.Intn(12); k > 0; k-- {
			n := rng.Intn(30)
			if rng.Intn(20) == 0 {
				n = 2 * chunkLen // one layer larger than a chunk
			}
			var binds [][2]uint64
			for _, a := range layerAddrs(rng, n) {
				v := rng.Uint64()
				b.add(a, v)
				binds = append(binds, [2]uint64{a, v})
				probes = append(probes, a, a^1)
			}
			below := top
			top = b.build(below)
			if n == 0 {
				if top != below {
					t.Fatalf("seed %d: an empty build made a layer", seed)
				}
				continue
			}
			for _, bv := range binds {
				model[bv[0]] = bv[1]
				bound[bv[0]] = bv[1]
			}
			views = append(views, view{top, maps.Clone(model)})
		}
		order := make([]int, 0, 2*len(views))
		for i := range views {
			order = append(order, i)
		}
		order = append(order, rng.Perm(len(views))...)
		for _, i := range order {
			v := views[i]
			rd.Init(frozen, v.top)
			rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
			for _, a := range probes {
				want, wok := v.model[a]
				if got, ok := rd.Get(a); got != want || ok != wok {
					t.Fatalf("seed %d, view %d: Get(%#x) = %d,%v; want %d,%v", seed, i, a, got, ok, want, wok)
				}
			}
		}
		var got [][2]uint64
		top.Range(func(a, v uint64) bool {
			got = append(got, [2]uint64{a, v})
			return true
		})
		var want [][2]uint64
		for a, v := range bound {
			want = append(want, [2]uint64{a, v})
		}
		slices.SortFunc(want, func(x, y [2]uint64) int { return cmp.Compare(x[0], y[0]) })
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Range reported %d bindings, want %d in address order", seed, len(got), len(want))
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
			top = nil // a compaction starts the chain again
		}
	}
	var rd OverlayReader
	for _, x := range all {
		rd.Init(NewOverlay(), x.l)
		for _, c := range [][2]uint64{{x.a, x.v}, {x.a + 1, ^x.v}, {x.a + 3*PageWords, x.v + 1}, {x.a + 3*PageWords + 5, x.v + 2}} {
			if v, ok := rd.Get(c[0]); !ok || v != c[1] {
				t.Fatalf("layer %d: Get(%#x) = %d,%v; want %d", x.v, c[0], v, ok, c[1])
			}
		}
	}
}

// Many goroutines reading one chain through their own readers while its
// builder goes on building layers into the same chunks, as slaves read a
// checkpoint while the master forks the next ones; under -race this test
// proves the reads race with nothing.
func TestLayerConcurrentReaders(t *testing.T) {
	base := NewOverlay()
	for a := uint64(0); a < 4*PageWords; a += 3 {
		base.Set(a, a+7)
	}
	frozen := base.Snapshot()
	var b layerBuilder
	var top *Layer
	for k := uint64(1); k <= 6; k++ {
		for a := k; a < 4*PageWords; a += 8 {
			b.add(a, a*k)
		}
		top = b.build(top)
	}
	// want is what the chain reads: the newest layer k with a%8 == k, else
	// the base.
	want := func(a uint64) (uint64, bool) {
		if k := a % 8; k >= 1 && k <= 6 {
			return a * k, true
		}
		if a%3 == 0 {
			return a + 7, true
		}
		return 0, false
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r OverlayReader
			for rep := 0; rep < 20; rep++ {
				r.Init(frozen, top)
				for a := uint64(0); a < 4*PageWords; a++ {
					wv, wok := want(a)
					if v, ok := r.Get(a); v != wv || ok != wok {
						errs <- "reader disagrees with the chain"
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
