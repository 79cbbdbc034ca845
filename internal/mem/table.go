package mem

import (
	"cmp"
	"math/bits"
	"slices"
)

// Table is a task's speculative buffer: one flat page table that holds both
// of the records a slave keeps, the words it read before writing them (its
// live-ins) and the words it wrote (its live-outs). A load or a store makes
// one probe of it. Only the first read of a word goes further, to the
// checkpoint's view the table is over and then to the architected snapshot
// (Over, Load), and that first value stays the word's live-in value
// whatever the task stores there later. The table looks up the view's
// entries for a page once, at the first read of a word on it, and keeps
// them for every later first read on the page.
//
// Each page of the table keeps two masks, the words read first and the
// words written, and two value arrays, the values first read and the
// current values. A word read, then written, then read again is therefore a
// live-in at its first value and a live-out at its written value, and the
// second read returns the written value. A presence byte per word keeps the
// hits of Load and Store, Cached and StoreCached, small enough to inline.
//
// The pages live in touch order, found through a one-entry page cache and,
// on a miss, an open-addressing index by page number, so a lookup stays
// O(1) however many pages a task touches. Sort puts them in ascending page
// order; the two Views walk them in that order. A table's page objects and
// index survive Reset (through View.Reset), so a pooled table allocates
// nothing once it has held as many pages as its tasks touch.
//
// A Table is goroutine-confined. Sort it before handing it to another
// goroutine: the walks of a sorted table write nothing.
type Table struct {
	// pn is the cached page's number (noPN for none), pg the page, and has
	// and cur its presence bytes and current values, which keep Cached and
	// StoreCached within the inlining budget.
	pn  uint64
	pg  *tpage
	has *[PageWords]uint8
	cur *[PageWords]uint64
	// pages[:used] are the pages in use, in touch order until Sort. The
	// rest are spare pages from earlier lives.
	pages []*tpage
	used  int
	// sorted reports that pages[:used] ascend by page number.
	sorted bool
	// slots index the pages in use by page number (hash), with linear
	// probing, and are at most half full. A slot whose gen is not the
	// table's is empty, so a reset empties the index by bumping gen.
	slots []tslot
	shift uint
	gen   uint32
	// n counts each view's words, and lo and hi are the lowest and highest
	// addresses it binds.
	n      [2]int
	lo, hi [2]uint64
	// base, prev and top are the checkpoint's view that first reads take
	// words from, and snap the memory below it (Over). below holds the
	// view's entries for the pages first reads looked up, which a page
	// finds by its index (tpage.below).
	base      *Overlay
	prev, top *Layer
	snap      *Memory
	below     []pageView
}

// pageView is what a checkpoint's view binds on one page: the entries of
// its two chains for the page, and its base's page.
type pageView struct {
	top, prev *lpage
	base      *cells
}

// The two views of a table, as indices into a page's masks and values.
const (
	viewIn  = 0 // read before written, at the first value read
	viewOut = 1 // written, at the current value
)

// Presence bits of a word (tpage.has).
const (
	hasVal     = 1 // vals[viewOut] holds the word's current value
	hasWritten = 2 // the task wrote the word
)

// tpage is one page of a Table. It holds no pointers, so the garbage
// collector never scans it.
type tpage struct {
	pn uint64
	// below is the index in the table's below of the view's entries for
	// the page, noBelow until a first read looks them up.
	below int32
	mask  [2][PageWords / 64]uint64 // per view: bit i of word i/64 is bound
	has   [PageWords]uint8          // per word: hasVal | hasWritten
	vals  [2][PageWords]uint64      // first values read, current values
}

// noBelow is the below index of a page whose view entries are not looked up.
const noBelow = -1

// bound reports whether view k binds word i.
func (p *tpage) bound(k int, i uint64) bool { return p.mask[k][i>>6]&(1<<(i&63)) != 0 }

type tslot struct {
	gen uint32
	p   *tpage
}

// slotBits is log2 of the size of a table's first index.
const slotBits = 5

// NewTable returns an empty table.
func NewTable() *Table {
	t := &Table{}
	t.reset()
	return t
}

// Over makes an empty table's first reads take each word from a
// checkpoint's view: from the chain top, else the chain prev, else the
// frozen overlay base (each nil for none), and a word none of them binds
// from snap. None of them may be written while the table reads them.
func (t *Table) Over(base *Overlay, prev, top *Layer, snap *Memory) {
	t.base, t.prev, t.top, t.snap = base, prev, top, snap
}

// Load returns the task's value at addr: the value it last stored there,
// else the value its first read of addr found. A first read takes the word
// from the view the table is over, else from its memory (Over), and binds
// it in the live-in view.
func (t *Table) Load(addr uint64) uint64 {
	if addr>>pageShift != t.pn {
		t.seek(addr)
	}
	p, i := t.pg, addr&pageMask
	if p.has[i] == 0 {
		v := t.first(p, addr)
		t.bind(p, viewIn, addr)
		p.has[i] = hasVal
		p.vals[viewIn][i], p.vals[viewOut][i] = v, v
	}
	return p.vals[viewOut][i]
}

// first returns the word at addr, on page p, that a first read finds: the
// newest the view binds, else the memory's. It looks up the view's entries
// for p on the page's first call.
func (t *Table) first(p *tpage, addr uint64) uint64 {
	if p.below == noBelow {
		p.below = int32(len(t.below))
		t.below = append(t.below, pageView{t.top.page(p.pn), t.prev.page(p.pn), t.base.page(p.pn)})
	}
	e, i := &t.below[p.below], addr&pageMask
	if v, ok := e.top.get(i); ok {
		return v
	}
	if v, ok := e.prev.get(i); ok {
		return v
	}
	if v, ok := e.base.get(i); ok {
		return v
	}
	return t.snap.Read(addr)
}

// Cached is Load's hit, small enough to inline: when addr lies on the page
// the table last probed and the task already read or wrote it, Cached
// returns its value and true. Otherwise it returns false, and Load finds
// the value.
func (t *Table) Cached(addr uint64) (uint64, bool) {
	if i := addr & pageMask; addr>>pageShift == t.pn && t.has[i] != 0 {
		return t.cur[i], true
	}
	return 0, false
}

// Store binds addr to v in the live-out view.
func (t *Table) Store(addr, v uint64) {
	if addr>>pageShift != t.pn {
		t.seek(addr)
	}
	p, i := t.pg, addr&pageMask
	if p.has[i] < hasWritten {
		t.bind(p, viewOut, addr)
		p.has[i] = hasVal | hasWritten
	}
	p.vals[viewOut][i] = v
}

// StoreCached is Store's hit, small enough to inline: when addr lies on the
// page the table last probed and the task already wrote it, StoreCached
// stores v there and returns true. Otherwise it stores nothing and returns
// false, and Store stores v.
func (t *Table) StoreCached(addr, v uint64) bool {
	if i := addr & pageMask; addr>>pageShift == t.pn && t.has[i] >= hasWritten {
		t.cur[i] = v
		return true
	}
	return false
}

// bind adds addr, on page p, to view k.
func (t *Table) bind(p *tpage, k int, addr uint64) {
	i := addr & pageMask
	p.mask[k][i>>6] |= 1 << (i & 63)
	t.n[k]++
	t.lo[k], t.hi[k] = min(t.lo[k], addr), max(t.hi[k], addr)
}

// seek makes addr's page the cached one, adding it if the table has none.
func (t *Table) seek(addr uint64) {
	pn := addr >> pageShift
	p := t.find(pn)
	if p == nil {
		p = t.add(pn)
	}
	t.pn, t.pg, t.has, t.cur = pn, p, &p.has, &p.vals[viewOut]
}

// hash is Fibonacci hashing: the top log2(len(slots)) bits of pn times
// 2^64/φ.
func (t *Table) hash(pn uint64) uint64 { return (pn * 0x9E3779B97F4A7C15) >> t.shift }

// find returns page pn, or nil if the table has none.
func (t *Table) find(pn uint64) *tpage {
	m := uint64(len(t.slots) - 1)
	for h := t.hash(pn); ; h = (h + 1) & m {
		s := &t.slots[h]
		if s.gen != t.gen {
			return nil
		}
		if s.p.pn == pn {
			return s.p
		}
	}
}

// add puts page pn, with no word bound, in the table and its index.
func (t *Table) add(pn uint64) *tpage {
	var p *tpage
	if t.used < len(t.pages) {
		p = t.pages[t.used]
		p.mask, p.has = [2][PageWords / 64]uint64{}, [PageWords]uint8{}
	} else {
		p = new(tpage)
		t.pages = append(t.pages, p)
	}
	p.pn, p.below = pn, noBelow
	if t.used > 0 && pn < t.pages[t.used-1].pn {
		t.sorted = false
	}
	t.used++
	if 2*t.used > len(t.slots) {
		t.grow()
	} else {
		t.index(p)
	}
	return p
}

// index enters p in the index, which has room for it.
func (t *Table) index(p *tpage) {
	m := uint64(len(t.slots) - 1)
	h := t.hash(p.pn)
	for t.slots[h].gen == t.gen {
		h = (h + 1) & m
	}
	t.slots[h] = tslot{gen: t.gen, p: p}
}

// grow doubles the index and enters every page in use in it.
func (t *Table) grow() {
	t.slots = make([]tslot, 2*len(t.slots))
	t.shift--
	for _, p := range t.pages[:t.used] {
		t.index(p)
	}
}

// Sort puts the table's pages in ascending page order, which the Views walk
// in. It does nothing when no page was added out of order since the last
// Sort, so the walks, which sort first, write nothing to a sorted table.
func (t *Table) Sort() {
	if !t.sorted {
		slices.SortFunc(t.pages[:t.used], func(a, b *tpage) int { return cmp.Compare(a.pn, b.pn) })
		t.sorted = true
	}
}

// reset empties the table, keeping its pages and index for reuse.
func (t *Table) reset() {
	t.pn, t.pg, t.has, t.cur = noPN, nil, nil, nil
	t.used, t.sorted = 0, true
	t.n = [2]int{}
	t.lo, t.hi = [2]uint64{noPN, noPN}, [2]uint64{}
	t.below = t.below[:0]
	if len(t.slots) == 0 {
		t.slots, t.shift = make([]tslot, 1<<slotBits), 64-slotBits
	}
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// In returns the table's live-in view: the words read before written, each
// at the first value read.
func (t *Table) In() View { return View{t, viewIn} }

// Out returns the table's live-out view: the words written, each at its last
// value.
func (t *Table) Out() View { return View{t, viewOut} }

// View is one of a table's two sets of bindings (Table.In, Table.Out). It
// reads like a sparse word map in ascending address order. A delta built by
// hand is the Out view of a table of its own.
type View struct {
	t *Table
	k int
}

// Len returns the number of words v binds.
func (v View) Len() int { return v.t.n[v.k] }

// Bounds returns the lowest and highest addresses v binds, with ok false
// when it binds none.
func (v View) Bounds() (lo, hi uint64, ok bool) {
	return v.t.lo[v.k], v.t.hi[v.k], v.t.n[v.k] > 0
}

// Get returns the value v binds to addr and whether it binds one. It writes
// nothing, not even the page cache.
func (v View) Get(addr uint64) (uint64, bool) {
	p, i := v.t.find(addr>>pageShift), addr&pageMask
	if p == nil || !p.bound(v.k, i) {
		return 0, false
	}
	return p.vals[v.k][i], true
}

// Set binds addr to val in v. It builds a delta by hand; a slave binds
// through Load and Store.
func (v View) Set(addr, val uint64) {
	t := v.t
	if v.k == viewOut {
		t.Store(addr, val)
		return
	}
	if addr>>pageShift != t.pn {
		t.seek(addr)
	}
	p, i := t.pg, addr&pageMask
	if !p.bound(viewIn, i) {
		t.bind(p, viewIn, addr)
	}
	p.vals[viewIn][i] = val
}

// Reset empties the table v views, both of its views, and keeps its pages
// and index for reuse.
func (v View) Reset() { v.t.reset() }

// Range calls f for every word v binds, in ascending address order, until f
// returns false.
func (v View) Range(f func(addr, val uint64) bool) {
	v.t.Sort()
	for _, p := range v.t.pages[:v.t.used] {
		for w, m := range p.mask[v.k] {
			for ; m != 0; m &= m - 1 {
				i := uint64(w*64 + bits.TrailingZeros64(m))
				if !f(p.pn<<pageShift|i, p.vals[v.k][i]) {
					return
				}
			}
		}
	}
}

// WriteTo writes every word v binds into m, in ascending address order.
func (v View) WriteTo(m *Memory) {
	v.t.Sort()
	for _, p := range v.t.pages[:v.t.used] {
		vals := &p.vals[v.k]
		for w, bm := range p.mask[v.k] {
			for ; bm != 0; bm &= bm - 1 {
				i := uint64(w*64 + bits.TrailingZeros64(bm))
				m.Write(p.pn<<pageShift|i, vals[i])
			}
		}
	}
}

// FirstMismatch returns the lowest address at which v binds a value m does
// not hold, with both values; bad is false when m holds every word v binds.
// It looks each page up in m once and touches none of m's caches.
func (v View) FirstMismatch(m *Memory) (addr, want, got uint64, bad bool) {
	v.t.Sort()
	for _, p := range v.t.pages[:v.t.used] {
		q := m.t.lookup(p.pn)
		if q == nil {
			q = &zeroPage
		}
		vals := &p.vals[v.k]
		for w, bm := range p.mask[v.k] {
			for ; bm != 0; bm &= bm - 1 {
				i := w*64 + bits.TrailingZeros64(bm)
				if q.d[i] != vals[i] {
					return p.pn<<pageShift | uint64(i), vals[i], q.d[i], true
				}
			}
		}
	}
	return 0, 0, 0, false
}
