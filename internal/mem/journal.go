package mem

import "slices"

// Journal records which pages of one Memory were written since the last
// flush, and what they held then, so a writer can learn what it changed
// without keeping a snapshot to diff against. The master (core.Master)
// builds every checkpoint of both engines from one: a snapshot per fork
// would make the first write to each page afterwards copy the page and its
// trie path, and Diff would then walk both tries to find again what the
// master had just written.
//
// While a journal is attached, the first write to each page since the last
// flush copies the page's prior contents into a buffer the journal keeps
// across flushes. That first write is always a write-cache miss, because
// attaching and flushing drop the memory's write cache, so the inlined
// Write hit path never looks at the journal. Zero writes to absent pages
// change nothing and are not recorded.
//
// A journal belongs to the one Memory it is attached to and is
// goroutine-confined with it. Snapshots never inherit it: Snapshot and
// SnapshotInto give the copy no journal, and a snapshot taken mid-interval
// does not disturb the recorded prior contents. The zero value is ready to
// use, and a journal reused across attachments allocates nothing once its
// buffers have grown to the largest interval it has seen.
type Journal struct {
	m *Memory
	// pns lists the pages recorded since the last flush, and seen maps
	// each of them to the index in before of its contents as of the last
	// flush, so a repeat write miss records nothing. before keeps its
	// high-water length, so its pages are reused.
	pns    []uint64
	before []words
	seen   map[uint64]int
}

// Attach starts journaling m's writes as of its current contents. It
// detaches j from the memory it was attached to before and any other
// journal from m, and forgets everything j recorded. A nil m just detaches.
func (j *Journal) Attach(m *Memory) {
	if j.m != nil {
		j.m.j = nil
	}
	j.restart()
	j.m = m
	if m == nil {
		return
	}
	if m.j != nil {
		m.j.m = nil
	}
	m.j = j
	m.writePN, m.writePg = noPN, nil
	if j.seen == nil {
		j.seen = make(map[uint64]int)
	}
}

// Flush calls f for every word whose value changed since the previous flush
// (or the Attach), passing the memory's current value and the value it held
// then, and restarts the journal. The words are exactly those Memory.Diff
// would report between the memory and a snapshot taken at the previous
// flush, in the same ascending address order, so Layered.Fork can take
// them as they come. A detached journal reports nothing.
func (j *Journal) Flush(f func(addr uint64, mv, ov uint64)) {
	if j.m == nil {
		return
	}
	slices.Sort(j.pns)
	for _, pn := range j.pns {
		// A recorded page was materialized by its first write, so it is
		// present.
		p, b := &j.m.t.lookup(pn).d, &j.before[j.seen[pn]]
		if *p != *b {
			for w := range p {
				if p[w] != b[w] {
					f(pn<<pageShift|uint64(w), p[w], b[w])
				}
			}
		}
	}
	j.restart()
	j.m.writePN, j.m.writePg = noPN, nil
}

// restart forgets the recorded pages and keeps the buffers.
func (j *Journal) restart() {
	for _, pn := range j.pns {
		delete(j.seen, pn)
	}
	j.pns = j.pns[:0]
}

// record notes that page pn, whose current contents are d, is about to be
// written, unless it was already recorded since the last flush.
func (j *Journal) record(pn uint64, d *words) {
	if _, ok := j.seen[pn]; ok {
		return
	}
	n := len(j.pns)
	j.seen[pn] = n
	j.pns = append(j.pns, pn)
	if n == len(j.before) {
		j.before = append(j.before, words{})
	}
	j.before[n] = *d
}
