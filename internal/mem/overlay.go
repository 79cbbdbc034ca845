package mem

import "math/bits"

// cells is an Overlay page's payload: which words are bound (bit i of word
// i/64) and their values. A word that is not bound always holds zero
// (pages start zeroed and only a binding writes data), and opage is the
// Overlay trie's leaf.
type (
	cells struct {
		mask [PageWords / 64]uint64
		data [PageWords]uint64
	}
	opage = leaf[cells]
)

// get returns the value the page binds to word i, and whether it binds one.
func (c *cells) get(i uint64) (uint64, bool) {
	return c.data[i], c.mask[i>>6]&(1<<(i&63)) != 0
}

// noCells is the payload of a page an overlay binds no word on.
var noCells cells

// Overlay is a sparse word-addressed map from address to value that, unlike
// Memory, distinguishes "written with zero" from "never written". It keeps
// its pages in the same persistent trie and supports the same O(1)
// copy-on-write Snapshot.
//
// A frozen overlay is the base of a hand-built checkpoint's memory view,
// under its layers, which the slave's Table reads (Table.Over). Neither
// the master nor a slave keeps one: the master's changes go into Layers
// and a slave's live-ins and live-outs into a Table.
//
// Like Memory, an Overlay carries a one-entry last-page cache on Set (dropped
// on Snapshot), so repeated writes to one page skip the trie walk. An
// Overlay is not safe for concurrent use, but snapshots are independent
// values and follow the package-level concurrency contract (atomic
// generation counter, so different family members may be used and
// snapshotted from different goroutines), and a frozen overlay may be read
// by many tables at once.
type Overlay struct {
	t     trie[cells]
	count int // number of present words

	// setPN == noPN, or setPg is the page at setPN with setPg.gen == t.gen,
	// as in Memory's write cache.
	setPN uint64
	setPg *opage
}

// NewOverlay returns an empty overlay.
func NewOverlay() *Overlay {
	return &Overlay{t: newTrie[cells](), setPN: noPN}
}

// Set stores v at addr.
func (o *Overlay) Set(addr uint64, v uint64) {
	p := o.setPg
	if pn := addr >> pageShift; pn != o.setPN {
		p = o.t.mutable(pn)
		o.setPg, o.setPN = p, pn
	}
	idx := addr & pageMask
	if bit := uint64(1) << (idx & 63); p.d.mask[idx>>6]&bit == 0 {
		p.d.mask[idx>>6] |= bit
		o.count++
	}
	p.d.data[idx] = v
}

// page returns the payload of page pn, noCells when o binds no word on it
// or o is nil. It writes nothing, so any number of tables may read a
// frozen overlay at once.
func (o *Overlay) page(pn uint64) *cells {
	if o != nil {
		if p := o.t.lookup(pn); p != nil {
			return &p.d
		}
	}
	return &noCells
}

// Len returns the number of present words.
func (o *Overlay) Len() int { return o.count }

// Snapshot returns a logically independent copy in O(1), sharing the page
// trie copy-on-write. As with Memory.Snapshot, distinct family members may
// snapshot concurrently.
func (o *Overlay) Snapshot() *Overlay {
	c := &Overlay{t: o.t.fork(), count: o.count, setPN: noPN}
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
