package mem

import "math/bits"

// Layer is the top of a chain of immutable layers in a layered view: a
// frozen base Overlay under the layers of the forks since the base was
// taken, read newest first, so the newest layer that binds a word gives its
// value and a word no layer binds reads through to the base. A Layer keeps
// the whole chain flattened by page: for every page some layer of the chain
// binds words on, one entry holds every word the chain binds on it, each at
// its newest value. Building a layer copies the entries of the pages the
// new layer writes, merged with their older words, and one pointer per
// other page of the chain; the pages it does not write stay shared with
// the layers below. An OverlayReader reads a view (OverlayReader.Init): a
// page no layer binds words on reads from the base, and a page some layer
// does is merged once per view from the base page and that one entry.
//
// A Layer is never written once built, so any number of goroutines may read
// one at once. A nil *Layer is the empty chain.
type Layer struct {
	// sig has bit pn&63 set for every page number pn in pages, so a reader
	// skips the search for most pages no layer binds on one test.
	sig uint64
	// pages holds the chain's entries in ascending page order.
	pages []*lpage
}

// lpage is one page of a chain: which of its words the chain binds and
// their newest values, in ascending address order.
type lpage struct {
	pn   uint64
	mask [PageWords / 64]uint64 // bit i of word i/64: word i is bound
	vals []uint64
}

// page returns the chain's entry for page pn, or nil.
func (l *Layer) page(pn uint64) *lpage {
	if l.sig&(1<<(pn&63)) == 0 {
		return nil
	}
	lo, hi := 0, len(l.pages)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.pages[m].pn < pn {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(l.pages) && l.pages[lo].pn == pn {
		return l.pages[lo]
	}
	return nil
}

// Range calls f for every word the chain binds, in ascending address order,
// with the value a reader of the chain sees, until f returns false.
func (l *Layer) Range(f func(addr, v uint64) bool) {
	if l == nil {
		return
	}
	for _, p := range l.pages {
		n := 0
		for w, m := range p.mask {
			for ; m != 0; m &= m - 1 {
				if !f(p.pn<<pageShift|uint64(w*64+bits.TrailingZeros64(m)), p.vals[n]) {
					return
				}
				n++
			}
		}
	}
}

// With returns a new layer above l that binds addr to v. It writes nothing
// l or its chain holds, so a holder of one view can change it alone.
func (l *Layer) With(addr, v uint64) *Layer {
	var b layerBuilder
	b.add(addr, v)
	return b.build(l)
}

// layerBuilder builds layers from bindings added in ascending address order,
// such as a Journal.Flush reports. It carves every layer out of page, value
// and index chunks it allocates a few kilobytes at a time, so building a
// layer allocates only the Layer itself once the builder is warm. A build
// writes only the unused tail of a chunk, never where a built layer lies,
// so it races with no reader of earlier layers. The zero value is ready to
// use; a builder is goroutine-confined.
type layerBuilder struct {
	// adds holds the bindings of the layer being built, in address order.
	adds []binding
	// pages, vals and index are the chunks built layers are carved from.
	pages []lpage
	vals  []uint64
	index []*lpage
}

type binding struct{ addr, v uint64 }

// chunkLen is the length a builder's chunks grow to, unless one build
// needs more.
const chunkLen = 1024

// grab returns s with room for n more elements: s itself when it has the
// room, else a new chunk. Elements already in s stay where they are, since
// built layers point into them.
func grab[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	return make([]T, 0, max(min(2*cap(s), chunkLen), n, 4))
}

// add binds addr to v in the layer being built. Addresses must come in
// strictly ascending order within one layer.
func (b *layerBuilder) add(addr, v uint64) {
	b.adds = append(b.adds, binding{addr, v})
}

// build freezes the bindings added since the previous build into a layer
// above below and returns it. With nothing added it returns below: an empty
// layer would change no reader's view.
func (b *layerBuilder) build(below *Layer) *Layer {
	if len(b.adds) == 0 {
		return below
	}
	l := &Layer{}
	var old []*lpage
	if below != nil {
		old, l.sig = below.pages, below.sig
	}
	b.index = grab(b.index, len(old)+len(b.adds))
	idx := b.index[len(b.index):]
	i := 0
	for k := 0; k < len(b.adds); {
		pn := b.adds[k].addr >> pageShift
		e := k + 1
		for e < len(b.adds) && b.adds[e].addr>>pageShift == pn {
			e++
		}
		for i < len(old) && old[i].pn < pn {
			idx = append(idx, old[i])
			i++
		}
		var o *lpage
		if i < len(old) && old[i].pn == pn {
			o = old[i]
			i++
		}
		idx = append(idx, b.page(pn, o, b.adds[k:e]))
		l.sig |= 1 << (pn & 63)
		k = e
	}
	idx = append(idx, old[i:]...)
	l.pages = idx[:len(idx):len(idx)]
	b.index = b.index[:len(b.index)+len(idx)]
	b.adds = b.adds[:0]
	return l
}

// page returns a new entry for page pn: the words of o (nil for none) with
// adds, all on page pn, bound over them.
func (b *layerBuilder) page(pn uint64, o *lpage, adds []binding) *lpage {
	var p lpage
	p.pn = pn
	for _, a := range adds {
		idx := a.addr & pageMask
		p.mask[idx>>6] |= 1 << (idx & 63)
	}
	if o == nil {
		b.vals = grab(b.vals, len(adds))
		for _, a := range adds {
			b.vals = append(b.vals, a.v)
		}
	} else {
		n := 0
		for w := range p.mask {
			n += bits.OnesCount64(p.mask[w] | o.mask[w])
		}
		b.vals = grab(b.vals, n)
		// Walk the union in address order, taking each word from adds
		// when they bind it and from o otherwise.
		ka, ko := 0, 0
		for w := range p.mask {
			for m := p.mask[w] | o.mask[w]; m != 0; m &= m - 1 {
				bit := m & -m
				if o.mask[w]&bit != 0 {
					ko++
				}
				if p.mask[w]&bit != 0 {
					b.vals = append(b.vals, adds[ka].v)
					ka++
				} else {
					b.vals = append(b.vals, o.vals[ko-1])
				}
			}
			p.mask[w] |= o.mask[w]
		}
	}
	n := 0
	for _, m := range p.mask {
		n += bits.OnesCount64(m)
	}
	p.vals = b.vals[len(b.vals)-n : len(b.vals) : len(b.vals)]
	b.pages = grab(b.pages, 1)
	b.pages = append(b.pages, p)
	return &b.pages[len(b.pages)-1]
}

// Layered keeps a writer's cumulative overlay and builds the layered views
// of it that the writer hands out, one per fork: the master's checkpoints
// (core.Master.Checkpoint). The overlay is private and written in place. At
// every window-th fork it is compacted: its O(1) snapshot becomes the base
// of that fork's view and of the views up to the next compaction, and the
// layers start again from none. At the other forks the view is that base
// under one more layer, holding the words the fork changed. So the
// overlay's pages are copied on write once per window forks, not once per
// fork. A Layered is goroutine-confined; the views it returns are frozen.
type Layered struct {
	cum, base, empty *Overlay
	top              *Layer
	b                layerBuilder
	window, forks    int
}

// NewLayered returns a Layered that compacts once every window forks
// (every fork when window is below 2), with nothing accumulated.
func NewLayered(window int) *Layered {
	l := &Layered{cum: NewOverlay(), empty: NewOverlay(), window: window}
	l.base = l.empty
	return l
}

// Reset starts over from nothing accumulated, with an empty base and no
// layers, keeping the overlay's allocations for its next writes: the pages
// an earlier base shares stay with the base.
func (l *Layered) Reset() {
	l.cum.Reset()
	l.base, l.top, l.forks = l.empty, nil, 0
}

// Fork folds j's flush into the cumulative overlay and returns this fork's
// view, top above base, and the number of words the overlay gained: the
// words whose value changed, for the first time since the Reset, since the
// previous fork.
func (l *Layered) Fork(j *Journal) (base *Overlay, top *Layer, newWords int) {
	l.forks++
	compact := l.forks >= l.window
	j.Flush(func(a, v, _ uint64) {
		if _, ok := l.cum.Get(a); !ok {
			newWords++
		}
		l.cum.Set(a, v)
		if !compact {
			l.b.add(a, v)
		}
	})
	if compact {
		l.base, l.top, l.forks = l.cum.Snapshot(), nil, 0
	} else {
		l.top = l.b.build(l.top)
	}
	return l.base, l.top, newWords
}
