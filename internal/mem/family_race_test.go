package mem

import (
	"sync"
	"testing"
)

// TestMemoryFamilyConcurrency exercises the package concurrency contract the
// parallel engine relies on: distinct members of one snapshot family are used
// — and snapshotted — from different goroutines at once, while each value
// stays goroutine-confined. Run under -race this validates that page sharing
// plus the atomic generation counter really is data-race free, and the value
// checks validate that copy-on-write isolation holds under contention.
func TestMemoryFamilyConcurrency(t *testing.T) {
	parent := New()
	for a := uint64(0); a < 8*PageWords; a += 3 {
		parent.Write(a, a)
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		snap := parent.Snapshot() // taken on this goroutine, used on another
		wg.Add(1)
		go func(id uint64, m *Memory) {
			defer wg.Done()
			// Reads must see the frozen image regardless of what the parent
			// does concurrently.
			for a := uint64(0); a < 8*PageWords; a += 3 {
				if got := m.Read(a); got != a {
					errs <- "snapshot read tore"
					return
				}
			}
			// Writes and grandchild snapshots stay private to this member.
			for a := uint64(0); a < 2*PageWords; a++ {
				m.Write(a, id)
			}
			child := m.Snapshot()
			if got := child.Read(1); got != id {
				errs <- "grandchild snapshot lost a write"
			}
		}(uint64(w)+100, snap)
	}
	// The parent keeps mutating and snapshotting concurrently.
	for i := 0; i < 50; i++ {
		for a := uint64(0); a < 4*PageWords; a += 7 {
			parent.Write(a, uint64(i))
		}
		_ = parent.Snapshot()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestOverlayFamilyConcurrency is the Overlay half of the contract: master
// checkpoint diffs are Overlay snapshots handed to slave goroutines while the
// master keeps writing its own overlay.
func TestOverlayFamilyConcurrency(t *testing.T) {
	master := NewOverlay()
	for a := uint64(0); a < 4*PageWords; a += 5 {
		master.Set(a, a+1)
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		ck := master.Snapshot()
		wg.Add(1)
		go func(o *Overlay) {
			defer wg.Done()
			for a := uint64(0); a < 4*PageWords; a += 5 {
				if v, ok := overlayGet(o, a); !ok || v != a+1 {
					errs <- "checkpoint overlay read tore"
					return
				}
			}
			if _, ok := overlayGet(o, 2); ok {
				errs <- "phantom binding"
			}
		}(ck)
	}
	for i := 0; i < 50; i++ {
		for a := uint64(0); a < 2*PageWords; a += 3 {
			master.Set(a, uint64(i))
		}
		_ = master.Snapshot()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestFamilyConcurrencyWhileGrowing has the parent make its trie taller (and
// copy paths through nodes the siblings share) while siblings taken at the
// old height read and write on other goroutines.
func TestFamilyConcurrencyWhileGrowing(t *testing.T) {
	parent, log := New(), NewOverlay()
	for a := uint64(0); a < 4*PageWords; a += 3 {
		parent.Write(a, a)
		log.Set(a, a)
	}

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, 2*workers)
	for w := 0; w < workers; w++ {
		m, o := parent.Snapshot(), log.Snapshot()
		wg.Add(1)
		go func(id uint64, m *Memory, o *Overlay) {
			defer wg.Done()
			tab, empty := NewTable(), New()
			for rep := 0; rep < 20; rep++ {
				tab.reset()
				tab.Over(o, nil, nil, empty)
				for a := uint64(0); a < 4*PageWords; a += 3 {
					if m.Read(a) != a {
						errs <- "sibling memory read tore"
						return
					}
					if tab.Load(a) != a {
						errs <- "sibling overlay read tore"
						return
					}
				}
				if m.Read(^uint64(0)) != 0 {
					errs <- "sibling sees the parent's growth"
					return
				}
				m.Write(^uint64(0)-id, id) // siblings grow too
			}
		}(uint64(w), m, o)
	}
	for shift := uint(20); shift < 64; shift += 4 {
		parent.Write(1<<shift, 1)
		log.Set(1<<shift, 1)
		parent.Write(0, 1) // path copy through the shared low subtree
		log.Set(0, 1)
		_, _ = parent.Snapshot(), log.Snapshot()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
