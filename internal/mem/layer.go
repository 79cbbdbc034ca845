package mem

import "math/bits"

// Layer is the top of a chain of immutable layers: the layers of the forks
// of one window, read newest first, so the newest layer that binds a word
// gives its value. A Layer keeps the whole chain flattened by page: for
// every page some layer of the chain binds words on, one entry holds every
// word the chain binds on it, each at its newest value. Building a layer
// copies the entries of the pages the new layer writes, merged with their
// older words, and one pointer per other page of the chain; the pages it
// does not write stay shared with the layers below. A slave's Table reads
// a view of at most two chains (Table.Over): it looks up each chain's entry
// for a page once, and finds a word by a mask test in it.
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

// noLPage is the entry of a page no layer binds words on: it binds none.
var noLPage lpage

// get returns the value the entry binds to word i of its page, and whether
// it binds one: the value's index among vals is the number of bound words
// below i.
func (p *lpage) get(i uint64) (uint64, bool) {
	w, bit := i>>6, uint64(1)<<(i&63)
	if p.mask[w]&bit == 0 {
		return 0, false
	}
	n := bits.OnesCount64(p.mask[w] & (bit - 1))
	for _, m := range p.mask[:w] {
		n += bits.OnesCount64(m)
	}
	return p.vals[n], true
}

// page returns the chain's entry for page pn, or noLPage.
func (l *Layer) page(pn uint64) *lpage {
	if l == nil || l.sig&(1<<(pn&63)) == 0 {
		return &noLPage
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
	return &noLPage
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

// Layered keeps a writer's changes since its last Reset and builds the
// layered views of them that the writer hands out, one per fork: the
// master's checkpoints (core.Master.Checkpoint). Each fork adds one layer,
// holding the words the fork changed, to the current window's chain. At
// every window-th fork the chain ends: its final layer becomes the
// previous window's, and the next fork starts a new chain from none. A
// fork's view is the current window's chain over the previous window's
// final layer, so it holds the words changed at the forks since the
// previous window began, at their newest values, and nothing older. A
// reader takes every other word from below the view: a slave, from its
// architected snapshot.
//
// The words changed since the Reset are recorded in seen, one mask of
// them per page; Reset clears it and keeps its room. A Layered is
// goroutine-confined; the views it returns are frozen.
type Layered struct {
	seen          map[uint64][PageWords / 64]uint64
	prev, top     *Layer
	b             layerBuilder
	window, forks int
}

// NewLayered returns a Layered whose windows span window forks (one fork
// when window is below 2), with nothing accumulated.
func NewLayered(window int) *Layered {
	return &Layered{seen: map[uint64][PageWords / 64]uint64{}, window: window}
}

// Reset starts over from nothing accumulated and no layers, keeping seen's
// room for its next writes.
func (l *Layered) Reset() {
	clear(l.seen)
	l.prev, l.top, l.forks = nil, nil, 0
}

// Fork folds j's flush into seen and a new layer, and returns this fork's
// view, top above prev, and the number of words seen gained: the words
// whose value changed, for the first time since the Reset, since the
// previous fork. At the window's last fork top is nil and prev is the
// window's final layer.
func (l *Layered) Fork(j *Journal) (prev, top *Layer, newWords int) {
	// The flush reports its words page by page, so seen is read and
	// written once per page, through m, the mask of page pn.
	pn, m := noPN, [PageWords / 64]uint64{}
	j.Flush(func(a, v, _ uint64) {
		if a>>pageShift != pn {
			if pn != noPN {
				l.seen[pn] = m
			}
			pn = a >> pageShift
			m = l.seen[pn]
		}
		if i := a & pageMask; m[i>>6]&(1<<(i&63)) == 0 {
			m[i>>6] |= 1 << (i & 63)
			newWords++
		}
		l.b.add(a, v)
	})
	if pn != noPN {
		l.seen[pn] = m
	}
	l.top = l.b.build(l.top)
	if l.forks++; l.forks >= l.window {
		l.prev, l.top, l.forks = l.top, nil, 0
	}
	return l.prev, l.top, newWords
}
