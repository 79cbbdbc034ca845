package distill

import (
	"sync"

	"mssp/internal/fuse"
	"mssp/internal/isa"
)

// Tables is what an engine runs one original program on under a
// distillation: the predecoded original program, which slaves and
// sequential mode execute, the predecoded distilled program, which the
// master executes, and the anchor set. Tables are immutable and shared by
// every machine built from the same Result and original program, on any
// goroutine.
type Tables struct {
	// Orig is the original program's table. Fused, it keeps every anchor
	// out of a group's interior, so a task can always stop on an
	// end-anchor crossing (the slave run loop guards dynamically too).
	Orig *isa.DecodedProgram
	// Dist is the distilled program's table. Fused, it also elides dead
	// intermediate writes: the master's register file is read only at FORK
	// stops (see the internal/fuse package comment for why no other table
	// may elide).
	Dist *isa.DecodedProgram
	// Anchors is the Result's anchor set (AnchorSet).
	Anchors map[uint64]bool
}

// tableMemo builds each of a Result's tables on first use. Every entry has
// its own sync.Once, so machines built concurrently from one distillation
// wait only for the entry they need: the experiments fan out across
// goroutines, and run Ref programs under Train distillations.
type tableMemo struct {
	anchorsOnce sync.Once
	anchors     map[uint64]bool
	dist        [2]lazyTable // plain, fused

	mu   sync.Mutex
	orig map[origKey]*lazyTable
}

// origKey names an original-program table: the program, by identity, and
// the fusion setting.
type origKey struct {
	prog  *isa.Program
	fused bool
}

// lazyTable is one memo entry, built by the first caller.
type lazyTable struct {
	once sync.Once
	d    *isa.DecodedProgram
}

// get returns p's table, predecoding it on the first call: plain, or fused
// under opts.
func (l *lazyTable) get(p *isa.Program, fused bool, opts fuse.Options) *isa.DecodedProgram {
	l.once.Do(func() {
		if fused {
			l.d = fuse.Predecode(p, opts)
		} else {
			l.d = isa.Predecode(p)
		}
	})
	return l.d
}

// AnchorSet returns the anchors as a set. It is built on the first call
// and shared by every caller, so it must not be modified.
func (r *Result) AnchorSet() map[uint64]bool {
	m := &r.tables
	m.anchorsOnce.Do(func() {
		s := make(map[uint64]bool, len(r.Anchors))
		for _, a := range r.Anchors {
			s[a] = true
		}
		m.anchors = s
	})
	return m.anchors
}

// Tables returns the engine tables for running orig under this
// distillation, fused or plain. Each table is predecoded on the first call
// that needs it; every later call for the same program and setting, from
// any goroutine, returns the same objects. orig is keyed by identity, so it
// must not change once passed here.
func (r *Result) Tables(orig *isa.Program, fused bool) Tables {
	m := &r.tables
	anchors := r.AnchorSet()
	f := 0
	if fused {
		f = 1
	}
	dist := m.dist[f].get(r.Prog, fused, fuse.Options{Elide: true})

	k := origKey{orig, fused}
	m.mu.Lock()
	e := m.orig[k]
	if e == nil {
		if m.orig == nil {
			m.orig = make(map[origKey]*lazyTable)
		}
		e = new(lazyTable)
		m.orig[k] = e
	}
	m.mu.Unlock()
	return Tables{
		Orig:    e.get(orig, fused, fuse.Options{Anchors: anchors}),
		Dist:    dist,
		Anchors: anchors,
	}
}
