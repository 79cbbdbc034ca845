// Package mem provides the memory structures the MSSP simulator is built on:
// a sparse, word-addressed 64-bit memory with O(1) copy-on-write snapshots
// (Memory), the immutable layers of the master's checkpoints (Layer,
// layer.go), and a task's speculative buffer, one flat page table of the
// words its slave read first and the words it wrote (Table, table.go). A
// sparse overlay that distinguishes "written" from "zero" cells (Overlay)
// is the optional frozen base of a hand-built checkpoint.
//
// Snapshots are the workhorse of the simulator. Architected state is
// snapshotted at every task spawn so that slave processors read the state the
// machine was in when the master forked them — exactly the stale-read hazard
// the MSSP verify/commit unit exists to catch. The master learns what it
// changed since the previous fork from a Journal attached to its Memory
// (journal.go) and builds it into a Layer (Layered); a checkpoint's memory
// is the current window's chain of layers over the previous window's final
// layer. A slave's Table reads it: a word's first read takes the word from
// the view's entries for its page, which the table looks up once, else
// from the architected snapshot.
//
// Memory and Overlay keep their pages in a persistent radix trie (trie.go):
// Snapshot shares the root, the first write after it copies one
// root-to-page path, and Diff/Equal skip every subtree the two sides still
// share.
//
// Memory carries one-entry last-page caches on Read and Write, and Overlay
// one on Set (see docs/PERFORMANCE.md): the common sequential / stack-local
// access patterns of MIR programs hit the same page repeatedly, and the
// cache turns those accesses from a trie walk into one compare. Snapshot
// drops the write caches (the cached pages become shared); read caches stay
// valid, because a copy-on-write of the cached page refreshes them.
//
// # Concurrency contract
//
// The true-parallel engine (internal/parallel, see docs/PARALLEL.md) runs
// snapshots of one family on different goroutines, so the sharing rules are
// load-bearing rather than theoretical:
//
//   - A single Memory, Overlay or Table value is goroutine-confined. The
//     page caches make even Read and Load mutating operations, so one value
//     must never be touched by two goroutines, even read-only.
//   - Distinct members of one snapshot family may be used — including
//     Snapshot itself — from different goroutines concurrently, provided
//     each value is handed off with ordinary happens-before edges (channel
//     send, mutex). The shared generation counter is advanced atomically,
//     so generations stay unique family-wide; in-place writes only ever hit
//     nodes and pages whose generation matches the writing value's own
//     (exclusively owned), and shared ones are only ever read.
//   - Layers are never written once built, and a logically frozen Overlay
//     (one nobody will mutate again, such as a checkpoint's base) is only
//     read by a table's page lookup, which writes nothing, so any number of
//     tables on different goroutines may read one view at once.
//
// View.Reset, Layered.Reset and SnapshotInto recycle allocations across
// lives (the pooled task machinery and the master): a table empties its
// index by a generation bump, a Layered clears its map, and SnapshotInto's
// safety rests on the trie's generation tags. The full lifecycle, pooling
// and aliasing contract lives in docs/MEMORY.md.
package mem

// PageWords is the number of 64-bit words per page. Pages are the trie's
// leaves and the unit of copy-on-write sharing.
const PageWords = 128

const (
	pageShift = 7
	pageMask  = PageWords - 1
)

// words is a Memory page's payload, and page the Memory trie's leaf. page is
// pointer-free, so the garbage collector never scans its words.
type (
	words = [PageWords]uint64
	page  = leaf[words]
)

// zeroPage is the shared, never-written stand-in for an absent page. The
// read cache may hold it, which keeps repeated reads of unmapped pages off
// the trie walk; the write cache never does, and a write that materializes
// the page refreshes the read cache.
var zeroPage page

// Memory is a sparse word-addressed memory. Absent words read as zero.
//
// A Memory value and its snapshots share the page trie copy-on-write:
// Snapshot is O(1), and the first write to a page after a snapshot copies
// that page and the trie nodes above it. The zero value is not usable; call
// New.
//
// A Memory is not safe for concurrent use; the page caches make even Read
// a mutating operation. Snapshots are independent values and may be used
// from different goroutines.
type Memory struct {
	t trie[words]

	// Last-page caches. Invariants: readPN == noPN or readPg is the page at
	// readPN; writePN == noPN or writePg is the page at writePN with
	// writePg.gen == t.gen (exclusively owned, so writing through the cache
	// can never clobber a snapshot). Snapshot changes t.gen and therefore
	// drops the write cache.
	readPN  uint64
	readPg  *page
	writePN uint64
	writePg *page

	// j, when non-nil, is the attached Journal (journal.go). Snapshots
	// never copy it.
	j *Journal
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{t: newTrie[words](), readPN: noPN, writePN: noPN}
}

// Read returns the word at addr (zero if never written).
func (m *Memory) Read(addr uint64) uint64 {
	if addr>>pageShift == m.readPN {
		return m.readPg.d[addr&pageMask]
	}
	return m.readMiss(addr)
}

// readMiss is kept out of line so Read stays inlinable.
//
//go:noinline
func (m *Memory) readMiss(addr uint64) uint64 {
	m.readPN = addr >> pageShift
	m.readPg = m.t.lookup(m.readPN)
	if m.readPg == nil {
		m.readPg = &zeroPage
	}
	return m.readPg.d[addr&pageMask]
}

// Write stores v at addr, copying the containing page (and its trie path) if
// it is shared with a snapshot.
func (m *Memory) Write(addr uint64, v uint64) {
	if addr>>pageShift == m.writePN {
		m.writePg.d[addr&pageMask] = v
		return
	}
	m.writeMiss(addr, v)
}

// writeMiss is kept out of line so Write stays inlinable.
//
//go:noinline
func (m *Memory) writeMiss(addr uint64, v uint64) {
	pn := addr >> pageShift
	if v == 0 {
		// Writing zero to an absent page is a no-op. The read cache also
		// remembers absent pages (as zeroPage), so a run of zero writes — a
		// program image's zero-filled data — walks the trie once per page.
		if m.readPN != pn {
			m.readMiss(addr)
		}
		if m.readPg == &zeroPage {
			return
		}
	}
	p := m.t.mutable(pn)
	if m.j != nil {
		// Still the page's prior contents: a copy-on-write copies them.
		m.j.record(pn, &p.d)
	}
	p.d[addr&pageMask] = v
	m.writePg, m.writePN = p, pn
	// Keep the read cache coherent: a copy-on-write just replaced the page
	// the read cache may be holding.
	if m.readPN == pn {
		m.readPg = p
	}
}

// Snapshot returns a logically independent copy of the memory in O(1). The
// copy and the receiver share the page trie until either side writes.
//
// Snapshot may be called concurrently on different members of one family
// (the generation counter is atomic); the receiver itself must still be
// goroutine-confined.
func (m *Memory) Snapshot() *Memory {
	return m.SnapshotInto(new(Memory))
}

// SnapshotInto is Snapshot with the clone written into dst instead of a new
// value. It exists for the task pools (internal/task.Pool), which re-issue
// the same architected-snapshot value life after life; the call allocates
// nothing.
//
// dst must be retired: no goroutine may still use it, and it must not alias
// a value anyone else holds. Its previous contents are dropped (copy-on-write
// siblings keep their own). A nil dst falls back to a plain Snapshot. See
// docs/MEMORY.md for the pooling contract.
func (m *Memory) SnapshotInto(dst *Memory) *Memory {
	if dst == nil || dst == m {
		return m.Snapshot()
	}
	*dst = Memory{t: m.t.fork(), readPN: m.readPN, readPg: m.readPg, writePN: noPN}
	m.writePN, m.writePg = noPN, nil
	return dst
}

// CopyWords bulk-writes words starting at base. Used to load program images.
func (m *Memory) CopyWords(base uint64, words []uint64) {
	for i, w := range words {
		m.Write(base+uint64(i), w)
	}
}

// Equal reports whether two memories hold identical contents. Pages absent
// on one side compare equal to all-zero pages on the other. Subtrees the two
// share are skipped, so comparing members of one snapshot family costs
// O(pages written since they diverged).
func (m *Memory) Equal(o *Memory) bool {
	d := differ{f: func(_ uint64, p, q *page) bool {
		return p.d == q.d
	}}
	return d.run(&m.t, &o.t)
}

// Diff calls f for every address whose value differs between m and o,
// passing the values in each, in ascending address order. Like Equal it
// skips shared subtrees, so its cost is proportional to the pages that
// differ, not to the size of either memory.
func (m *Memory) Diff(o *Memory, f func(addr uint64, mv, ov uint64)) {
	d := differ{f: func(pn uint64, p, q *page) bool {
		if p.d == q.d {
			return true
		}
		for i := range p.d {
			if p.d[i] != q.d[i] {
				f(pn<<pageShift|uint64(i), p.d[i], q.d[i])
			}
		}
		return true
	}}
	d.run(&m.t, &o.t)
}
