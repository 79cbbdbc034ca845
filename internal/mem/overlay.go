package mem

import "math/bits"

// cells is an Overlay page's payload: the words and which of them are
// bound. Binding is recorded twice: ok keeps Get a two-load inlinable hit,
// and mask (bit i of word i/64) lets Range skip unbound words. A word whose
// ok flag is clear always holds zero (pages start zeroed and only a binding
// writes data), and opage is the Overlay trie's leaf.
type (
	cells struct {
		ok   [PageWords]bool
		mask [PageWords / 64]uint64
		data [PageWords]uint64
	}
	opage = leaf[cells]
)

// bind marks word idx bound.
func (c *cells) bind(idx uint64) {
	c.ok[idx] = true
	c.mask[idx>>6] |= 1 << (idx & 63)
}

// zeroOPage is the shared, never-written stand-in for an absent page in the
// get caches, like Memory's zeroPage.
var zeroOPage opage

// Overlay is a sparse word-addressed map from address to value that, unlike
// Memory, distinguishes "written with zero" from "never written". It keeps
// its pages in the same persistent trie and supports the same O(1)
// copy-on-write Snapshot.
//
// An overlay is the master's cumulative overlay, which counts the words it
// changed since the reseed (Layered). A frozen overlay may also be the base
// of a checkpoint's memory view, under its layers (OverlayReader). A
// slave's live-ins and live-outs live in a Table.
//
// Like Memory, an Overlay carries one-entry last-page caches on Get and Set
// (the set cache is dropped on Snapshot, both on Reset), so repeated
// accesses to one page skip the trie walk. The caches make Get a mutating
// operation: an Overlay is not safe for concurrent use, but snapshots are
// independent values and follow the package-level concurrency contract
// (atomic generation counter, so different family members may be used and
// snapshotted from different goroutines).
type Overlay struct {
	t     trie[cells]
	count int // number of present words
	// free holds the nodes and pages the last Reset reclaimed, so a pooled
	// overlay refills itself without allocating.
	free freeList[cells]

	// Last-page caches; same invariants as Memory's. The get cache holds
	// slices of the page at getPN (zeroOPage when absent) rather than the
	// page pointer, which keeps Get within the inlining budget; setPN ==
	// noPN or setPg is the page at setPN with setPg.gen == t.gen.
	getPN   uint64
	getData []uint64
	getOK   []bool
	setPN   uint64
	setPg   *opage
}

// view returns the slices a get cache holds for page p (nil: absent).
func view(p *opage) ([]uint64, []bool) {
	if p == nil {
		p = &zeroOPage
	}
	return p.d.data[:], p.d.ok[:]
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	return &Overlay{t: newTrie[cells](), getPN: noPN, setPN: noPN}
}

// Get returns the value at addr and whether it is present.
func (o *Overlay) Get(addr uint64) (uint64, bool) {
	if addr>>pageShift != o.getPN {
		o.getMiss(addr)
	}
	return o.getData[addr&pageMask], o.getOK[addr&pageMask]
}

// getMiss refills the get cache for addr's page. It is kept out of line so
// Get stays inlinable.
//
//go:noinline
func (o *Overlay) getMiss(addr uint64) {
	o.getPN = addr >> pageShift
	o.getData, o.getOK = view(o.t.lookup(o.getPN))
}

// Set stores v at addr.
func (o *Overlay) Set(addr uint64, v uint64) {
	p := o.setPg
	if addr>>pageShift != o.setPN {
		p = o.setMiss(addr)
	}
	idx := addr & pageMask
	if !p.d.ok[idx] {
		p.d.bind(idx)
		o.count++
	}
	p.d.data[idx] = v
}

// setMiss makes the page holding addr writable (copying it and its trie path
// if shared), caches it, and returns it.
func (o *Overlay) setMiss(addr uint64) *opage {
	pn := addr >> pageShift
	p := o.t.mutable(pn, &o.free)
	o.setPg, o.setPN = p, pn
	// A copy-on-write may have replaced the page the get cache views.
	if o.getPN == pn {
		o.getData, o.getOK = view(p)
	}
	return p
}

// Len returns the number of present words.
func (o *Overlay) Len() int { return o.count }

// Snapshot returns a logically independent copy in O(1), sharing the page
// trie copy-on-write. As with Memory.Snapshot, distinct family members may
// snapshot concurrently.
func (o *Overlay) Snapshot() *Overlay {
	c := &Overlay{t: o.t.fork(), count: o.count, getPN: o.getPN, getData: o.getData, getOK: o.getOK, setPN: noPN}
	o.setPN, o.setPg = noPN, nil
	return c
}

// Range calls f for every present (addr, value) pair, in ascending address
// order, until f returns false.
func (o *Overlay) Range(f func(addr uint64, v uint64) bool) {
	o.t.leaves(func(pn uint64, p *opage) bool {
		for w, m := range p.d.mask {
			for ; m != 0; m &= m - 1 {
				i := uint64(w*64 + bits.TrailingZeros64(m))
				if !f(pn<<pageShift|i, p.d.data[i]) {
					return false
				}
			}
		}
		return true
	})
}

// Reset removes all entries and keeps the overlay's allocations: every node
// and page the overlay exclusively owns (generation tag equal to its own —
// provably unaliased, because every Snapshot retags both sides) moves to
// the overlay's free lists for its next writes. Shared nodes and pages may
// be referenced by snapshots and are dropped instead. This generation check
// is what makes pooled reuse safe: a Reset can never scribble on a page some
// outstanding snapshot still reads. Reset costs O(nodes and pages owned),
// and afterwards Range visits only words bound since.
func (o *Overlay) Reset() {
	o.t.reclaim(&o.free)
	o.count = 0
	o.getPN, o.getData, o.getOK = noPN, nil, nil
	o.setPN, o.setPg = noPN, nil
}

// OverlayReader is a read-only cursor over a layered view: up to two
// chains of Layers, read newest first, above an optional frozen overlay.
// It carries its own one-entry page cache. Overlay.Get caches the last page
// on the overlay itself and is therefore a mutating call; a frozen overlay
// shared between tasks must instead be read through per-reader cursors —
// each goroutine owns its OverlayReader, the shared overlay and layers are
// never written, and the reads race with nothing.
//
// The cursor caches a page view, so it must only be used while the
// underlying overlay is logically frozen: a Set/Reset on the overlay
// invalidates every outstanding reader (docs/MEMORY.md has the aliasing
// table). Layers are immutable by construction.
type OverlayReader struct {
	o         *Overlay
	prev, top *Layer
	// pn is the page Get reads inline from data and ok: the cached page
	// when no layer binds words on it or it is dense's, else noPN, so that
	// every other read of a page some layer binds words on goes through
	// miss.
	pn   uint64
	data []uint64
	ok   []bool
	// lpn is the cached page, tp and pp top's and prev's entries for it
	// (noLPage for none), and base the overlay's page (zeroOPage for
	// none).
	lpn    uint64
	tp, pp *lpage
	base   *cells
	// one holds the word miss last read on a page some layer binds words
	// on, at index last, for Get to return; its other words are zero.
	// Init keeps it, so a reader allocates it once.
	one  *cells
	last uint64
	// hot is the page some layer binds words on that miss read last, and
	// hits the number of its reads in a row among such pages. At denseHits
	// miss merges the page into dense, which then serves page dpn inline
	// for the rest of the view. Init keeps dense.
	hot, dpn uint64
	hits     int
	dense    *cells
}

// denseHits is the number of reads of one page some layer binds words on,
// with no other such page read between, after which a reader merges the
// page into its dense buffer. Merging copies a page; a read through miss
// costs a few nanoseconds.
const denseHits = 16

// Init points the reader at the view of the layers top over the layers
// prev over the overlay o, each nil for none, and drops any cached page. A
// reader is a plain value; Init (re)initializes it without allocating once
// it has read a page some layer binds words on.
func (r *OverlayReader) Init(o *Overlay, prev, top *Layer) {
	*r = OverlayReader{o: o, prev: prev, top: top, pn: noPN, lpn: noPN, one: r.one, last: r.last,
		hot: noPN, dpn: noPN, dense: r.dense}
}

// Get returns the value at addr and whether it is present, without mutating
// the underlying overlay or layers.
func (r *OverlayReader) Get(addr uint64) (uint64, bool) {
	if addr>>pageShift != r.pn {
		r.miss(addr)
	}
	return r.data[addr&pageMask], r.ok[addr&pageMask]
}

// miss points data and ok at addr's word. On a page no layer binds words
// on they view the overlay's page, and Get reads that page inline until it
// moves to another. On a page some layer does, miss finds the word in the
// newest entry that binds it, else in the overlay's page, and they view
// one with the word at its index; once the page is read often (denseHits),
// they view the page merged into dense instead, inline like the first
// case. It is kept out of line so Get stays inlinable.
//
//go:noinline
func (r *OverlayReader) miss(addr uint64) {
	if pn := addr >> pageShift; pn != r.lpn {
		r.lpn = pn
		if pn == r.dpn {
			r.pn, r.data, r.ok = pn, r.dense.data[:], r.dense.ok[:]
			return
		}
		r.tp, r.pp = r.top.page(pn), r.prev.page(pn)
		var p *opage
		if r.o != nil {
			p = r.o.t.lookup(pn)
		}
		if p == nil {
			p = &zeroOPage
		}
		r.base = &p.d
		if r.tp == &noLPage && r.pp == &noLPage {
			r.pn, r.data, r.ok = pn, p.d.data[:], p.d.ok[:]
			return
		}
		r.pn = noPN
	}
	if pn := addr >> pageShift; pn != r.hot {
		r.hot, r.hits = pn, 1
	} else if r.hits++; r.hits >= denseHits {
		r.merge(pn)
		return
	}
	i := addr & pageMask
	v, ok := r.tp.get(i)
	if !ok {
		v, ok = r.pp.get(i)
	}
	if !ok {
		v, ok = r.base.data[i], r.base.ok[i]
	}
	if r.one == nil {
		r.one = new(cells)
	}
	r.one.data[r.last], r.one.ok[r.last] = 0, false
	r.one.data[i], r.one.ok[i], r.last = v, ok, i
	r.data, r.ok = r.one.data[:], r.one.ok[:]
}

// merge fills dense with page pn of the view, the overlay's page with
// prev's entry's words and then top's over it, and makes it the page Get
// reads inline.
func (r *OverlayReader) merge(pn uint64) {
	if r.dense == nil {
		r.dense = new(cells)
	}
	d := r.dense
	*d = *r.base
	for _, e := range [2]*lpage{r.pp, r.tp} {
		n := 0
		for w, m := range e.mask {
			d.mask[w] |= m
			for ; m != 0; m &= m - 1 {
				i := w*64 + bits.TrailingZeros64(m)
				d.data[i], d.ok[i] = e.vals[n], true
				n++
			}
		}
	}
	r.dpn, r.pn, r.data, r.ok = pn, pn, d.data[:], d.ok[:]
}
