package mem

import (
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// The page table shared by Memory and Overlay is a persistent radix trie over
// page numbers (addr >> pageShift). Interior nodes are fanout-way; the bottom
// interior level points at pages. The height grows on demand, so any 64-bit
// address is reachable, and a trie of height h covers page numbers below
// 1<<(fanShift*h).
//
// Ownership is by generation tag, on nodes and pages alike: a trie may write
// in place only into a node or page whose gen equals its own. Snapshot shares
// the root and gives both sides fresh generations, so every node becomes
// shared and the first write after it copies the root-to-page path (path
// copying). Unchanged subtrees stay pointer-equal across a snapshot family,
// which is what lets Memory.Diff and Memory.Equal skip them.

const (
	fanShift = 6
	fanout   = 1 << fanShift
	fanMask  = fanout - 1

	// noPN is the page number of an empty page cache. Real page numbers are
	// addr >> pageShift and never reach it, so a cache hit needs one compare
	// and no nil check.
	noPN = ^uint64(0)
)

// leaf is a trie leaf: one page of payload D plus its ownership tag. Memory
// pages (page) and Overlay pages (opage) carry different payloads, so
// neither pays for the other's fields.
type leaf[D any] struct {
	gen uint64
	d   D
}

// node is an interior trie node. Its kids are *node above level 1 and
// *leaf at level 1; the level is implied by the position in the trie, and
// child, leafAt and the differ are the only places that convert. used has
// bit i set iff kids[i] != nil, so walks over sparse tries skip empty slots.
type node struct {
	gen  uint64
	used uint64
	kids [fanout]unsafe.Pointer
}

func (n *node) child(i uint64) *node { return (*node)(n.kids[i]) }

func (n *node) set(i uint64, p unsafe.Pointer) {
	n.kids[i] = p
	n.used |= 1 << i
}

func leafAt[D any](n *node, i uint64) *leaf[D] { return (*leaf[D])(n.kids[i]) }

// trie is the persistent page table of one Memory or Overlay value.
type trie[D any] struct {
	root   *node
	height uint // interior levels; at least 1
	gen    uint64
	// genCounter is shared across a snapshot family so generations stay
	// unique even when snapshots of snapshots are taken. It is advanced
	// atomically so family members on different goroutines can snapshot
	// concurrently (see the package concurrency contract).
	genCounter *uint64
}

func newTrie[D any]() trie[D] {
	var ctr uint64 = 1
	return trie[D]{height: 1, gen: 1, genCounter: &ctr}
}

// fork gives t and the returned copy fresh generations and one shared root:
// the O(1) snapshot. One atomic bump hands out both generations.
func (t *trie[D]) fork() trie[D] {
	gen := atomic.AddUint64(t.genCounter, 2)
	c := *t
	c.gen = gen - 1
	t.gen = gen
	return c
}

// covers reports whether pn is below the trie's current height. (Go shifts
// of 64 or more yield zero, so a height covering all 64 bits needs no guard.)
func (t *trie[D]) covers(pn uint64) bool {
	return pn>>(t.height*fanShift) == 0
}

// lookup returns the leaf holding pn, or nil if it was never materialized.
func (t *trie[D]) lookup(pn uint64) *leaf[D] {
	if !t.covers(pn) {
		return nil
	}
	n := t.root
	for h := t.height; n != nil && h > 1; h-- {
		n = n.child(pn >> ((h - 1) * fanShift) & fanMask)
	}
	if n == nil {
		return nil
	}
	return leafAt[D](n, pn&fanMask)
}

// newNode returns an owned node holding a copy of src's kids, or no kids
// when src is nil.
func (t *trie[D]) newNode(src *node) *node {
	n := new(node)
	if src != nil {
		*n = *src
	}
	n.gen = t.gen
	return n
}

// newLeaf returns an owned leaf holding a copy of src's payload, or a zero
// payload when src is nil.
func (t *trie[D]) newLeaf(src *leaf[D]) *leaf[D] {
	p := new(leaf[D])
	if src != nil {
		*p = *src
	}
	p.gen = t.gen
	return p
}

// mutable returns the leaf holding pn, owned by t so it may be written in
// place: it grows the trie to cover pn and copies (or creates) every shared
// node on the root-to-leaf path and the leaf itself.
func (t *trie[D]) mutable(pn uint64) *leaf[D] {
	for !t.covers(pn) {
		if t.root != nil {
			r := t.newNode(nil)
			r.set(0, unsafe.Pointer(t.root))
			t.root = r
		}
		t.height++
	}
	n := t.root
	if n == nil || n.gen != t.gen {
		n = t.newNode(n)
		t.root = n
	}
	for h := t.height; h > 1; h-- {
		i := pn >> ((h - 1) * fanShift) & fanMask
		c := n.child(i)
		if c == nil || c.gen != t.gen {
			c = t.newNode(c)
			n.set(i, unsafe.Pointer(c))
		}
		n = c
	}
	i := pn & fanMask
	p := leafAt[D](n, i)
	if p == nil || p.gen != t.gen {
		p = t.newLeaf(p)
		n.set(i, unsafe.Pointer(p))
	}
	return p
}

// leaves calls f with every materialized leaf of t in ascending page-number
// order until f returns false.
func (t *trie[D]) leaves(f func(pn uint64, p *leaf[D]) bool) {
	if t.root != nil {
		walkLeaves(t.root, t.height, 0, f)
	}
}

func walkLeaves[D any](n *node, h uint, base uint64, f func(pn uint64, p *leaf[D]) bool) bool {
	for m := n.used; m != 0; m &= m - 1 {
		i := uint64(bits.TrailingZeros64(m))
		pn := base<<fanShift | i
		if h > 1 {
			if !walkLeaves(n.child(i), h-1, pn, f) {
				return false
			}
		} else if !f(pn, leafAt[D](n, i)) {
			return false
		}
	}
	return true
}

// differ walks two Memory tries in lockstep and calls f for every page
// position at which their pages are not pointer-equal (an absent page is
// passed as zeroPage), in ascending page-number order, until f returns
// false. Subtrees shared by both sides are skipped without being entered,
// so the walk costs O(differing pages × height) node visits; visits counts
// them.
type differ struct {
	f      func(pn uint64, p, q *page) bool
	visits int
}

// run compares a and b, which may have different heights: the shorter trie
// is treated as if padded with single-child roots up to the taller height.
func (d *differ) run(a, b *trie[words]) bool {
	h := max(a.height, b.height)
	return d.walk(unsafe.Pointer(a.root), a.height, unsafe.Pointer(b.root), b.height, h, 0)
}

// walk compares the subtrees at level h: a sits at level al (al < h means a
// is the root of a shorter trie, reached through virtual kids[0] links), and
// likewise b at bl. Level 0 is a page. A node only ever sits at one level,
// so equal pointers are equal subtrees.
func (d *differ) walk(a unsafe.Pointer, al uint, b unsafe.Pointer, bl uint, h uint, base uint64) bool {
	if a == b {
		return true
	}
	d.visits++
	if h == 0 {
		return d.f(base, pageOrZero(a), pageOrZero(b))
	}
	for m := usedAt(a, al, h) | usedAt(b, bl, h); m != 0; m &= m - 1 {
		i := uint64(bits.TrailingZeros64(m))
		ak, akl := kidAt(a, al, h, i)
		bk, bkl := kidAt(b, bl, h, i)
		if !d.walk(ak, akl, bk, bkl, h-1, base<<fanShift|i) {
			return false
		}
	}
	return true
}

// usedAt is the used mask of the level-h position occupied by p (actually at
// level pl): a virtual padding node above a shorter trie's root has only
// child 0.
func usedAt(p unsafe.Pointer, pl, h uint) uint64 {
	switch {
	case p == nil:
		return 0
	case pl < h:
		return 1
	default:
		return (*node)(p).used
	}
}

// kidAt returns child i of the level-h position occupied by p and the level
// that child actually sits at.
func kidAt(p unsafe.Pointer, pl, h uint, i uint64) (unsafe.Pointer, uint) {
	switch {
	case p == nil:
		return nil, h - 1
	case pl < h:
		if i == 0 {
			return p, pl
		}
		return nil, h - 1
	default:
		return (*node)(p).kids[i], h - 1
	}
}

func pageOrZero(p unsafe.Pointer) *page {
	if p == nil {
		return &zeroPage
	}
	return (*page)(p)
}
