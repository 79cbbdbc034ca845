package mem

import (
	"sync"
	"testing"
)

// TestTableOverBase reads a frozen overlay as a checkpoint's base through
// a slave's table: its words come from the base, every other word from the
// snapshot, and the reads leave the overlay as it was.
func TestTableOverBase(t *testing.T) {
	o := NewOverlay()
	o.Set(1, 10)
	o.Set(2000, 20)
	o.Set(3, 0)
	snap := New()
	snap.Write(2, 5)
	snap.Write(3, 6)
	snap.Write(1<<30, 7)
	tab := NewTable()
	tab.Over(o, nil, nil, snap)
	for a, want := range map[uint64]uint64{1: 10, 2000: 20, 3: 0, 2: 5, 1 << 30: 7, 4: 0} {
		if v := tab.Load(a); v != want {
			t.Errorf("Load(%d) = %d, want %d", a, v, want)
		}
	}
	if !overlayMatches(o, map[uint64]uint64{1: 10, 2000: 20, 3: 0}) {
		t.Error("overlay changed under its table")
	}
}

// Many goroutines reading one frozen overlay through tables of their own is
// how slaves read a shared checkpoint base; under -race this test proves
// the reads race with nothing.
func TestTableOverBaseConcurrent(t *testing.T) {
	o := NewOverlay()
	for a := uint64(0); a < 4*PageWords; a += 3 {
		o.Set(a, a+7)
	}
	frozen := o.Snapshot()
	snap := New()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		mine := snap.Snapshot() // taken here, read on the worker
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab := NewTable()
			tab.Over(frozen, nil, nil, mine)
			for a := uint64(0); a < 4*PageWords; a++ {
				want := uint64(0)
				if a%3 == 0 {
					want = a + 7
				}
				if tab.Load(a) != want {
					errs <- "table disagrees with the base"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestSnapshotInto(t *testing.T) {
	m := New()
	m.Write(1, 1)
	m.Write(2000, 2)

	if s := m.SnapshotInto(nil); s.Read(1) != 1 {
		t.Error("SnapshotInto(nil) broken")
	}

	dst := New()
	dst.Write(77, 77) // stale content that must vanish
	s := m.SnapshotInto(dst)
	if s != dst {
		t.Error("SnapshotInto did not return dst")
	}
	if s.Read(1) != 1 || s.Read(2000) != 2 || s.Read(77) != 0 {
		t.Error("SnapshotInto contents wrong")
	}
	// Isolation both ways, as with Snapshot.
	m.Write(1, 100)
	if s.Read(1) != 1 {
		t.Error("SnapshotInto copy sees later source writes")
	}
	s.Write(2000, 200)
	if m.Read(2000) != 2 {
		t.Error("source sees SnapshotInto copy writes")
	}
	// The copy joined the family: snapshotting it keeps generations unique.
	ss := s.Snapshot()
	s.Write(1, 5)
	if ss.Read(1) != 1 {
		t.Error("snapshot of recycled copy sees parent writes")
	}
}

func TestSnapshotIntoSteadyStateAllocs(t *testing.T) {
	m := New()
	for a := uint64(0); a < 4*PageWords; a += 9 {
		m.Write(a, a)
	}
	dst := New()
	allocs := testing.AllocsPerRun(100, func() {
		dst = m.SnapshotInto(dst)
	})
	if allocs != 0 {
		t.Errorf("steady-state SnapshotInto allocates %v per run, want 0", allocs)
	}
}
