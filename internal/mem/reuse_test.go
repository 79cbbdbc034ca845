package mem

import (
	"sync"
	"testing"
)

func TestOverlayReset(t *testing.T) {
	o := NewOverlay()
	o.Set(1, 1)
	o.Set(2000, 2)
	s := o.Snapshot()
	o.Set(3, 3) // CoW-copies page 0: owned again after the snapshot

	o.Reset()
	if o.Len() != 0 {
		t.Errorf("Len after Reset = %d, want 0", o.Len())
	}
	for _, a := range []uint64{1, 3, 2000} {
		if _, ok := o.Get(a); ok {
			t.Errorf("Reset left addr %d behind", a)
		}
	}
	// The outstanding snapshot must be untouched.
	if v, ok := s.Get(1); !ok || v != 1 {
		t.Error("Reset damaged snapshot at addr 1")
	}
	if v, ok := s.Get(2000); !ok || v != 2 {
		t.Error("Reset damaged snapshot at addr 2000")
	}
	if _, ok := s.Get(3); ok {
		t.Error("snapshot sees post-snapshot write after Reset")
	}
	// Overlay stays usable and isolated.
	o.Set(1, 9)
	if v, _ := o.Get(1); v != 9 {
		t.Error("overlay unusable after Reset")
	}
	if v, _ := s.Get(1); v != 1 {
		t.Error("post-Reset write leaked into snapshot")
	}
}

// Reset must reuse exclusively owned pages: a Set/Reset cycle over the same
// addresses allocates nothing in steady state.
func TestOverlayResetSteadyStateAllocs(t *testing.T) {
	o := NewOverlay()
	allocs := testing.AllocsPerRun(100, func() {
		for a := uint64(0); a < 64; a++ {
			o.Set(a, a)
			o.Set(5000+a, a)
		}
		o.Reset()
	})
	if allocs != 0 {
		t.Errorf("Set/Reset cycle allocates %v per run, want 0", allocs)
	}
}

func TestOverlayReader(t *testing.T) {
	o := NewOverlay()
	o.Set(1, 10)
	o.Set(2000, 20)
	var r OverlayReader
	r.Init(o, nil, nil)
	if v, ok := r.Get(1); !ok || v != 10 {
		t.Errorf("reader Get(1) = %d,%v; want 10,true", v, ok)
	}
	if v, ok := r.Get(2000); !ok || v != 20 {
		t.Errorf("reader Get(2000) = %d,%v; want 20,true", v, ok)
	}
	if _, ok := r.Get(2); ok {
		t.Error("reader found phantom binding")
	}
	if _, ok := r.Get(1 << 30); ok {
		t.Error("reader found phantom page")
	}
	// Reads must not disturb the overlay's own caches (Get stays coherent).
	if v, ok := o.Get(1); !ok || v != 10 {
		t.Error("overlay broken after reader use")
	}
}

// Many goroutines reading one frozen overlay through per-reader cursors is
// exactly how slaves consult a shared checkpoint diff; under -race this test
// proves the reads race with nothing.
func TestOverlayReaderConcurrent(t *testing.T) {
	o := NewOverlay()
	for a := uint64(0); a < 4*PageWords; a += 3 {
		o.Set(a, a+7)
	}
	frozen := o.Snapshot()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var r OverlayReader
			r.Init(frozen, nil, nil)
			for a := uint64(0); a < 4*PageWords; a++ {
				v, ok := r.Get(a)
				if a%3 == 0 {
					if !ok || v != a+7 {
						errs <- "reader missed a binding"
						return
					}
				} else if ok {
					errs <- "reader found phantom binding"
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
