package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := New()
	if got := m.Read(123); got != 0 {
		t.Fatalf("fresh memory read = %d, want 0", got)
	}
	m.Write(123, 7)
	m.Write(0, 1)
	m.Write(1<<40, 9) // far page
	if m.Read(123) != 7 || m.Read(0) != 1 || m.Read(1<<40) != 9 {
		t.Error("read-after-write broken")
	}
	m.Write(123, 8)
	if m.Read(123) != 8 {
		t.Error("overwrite broken")
	}
}

func TestMemoryZeroWriteToAbsentPage(t *testing.T) {
	m := New()
	m.Write(5000, 0)
	if countPages(&m.t) != 0 {
		t.Error("writing zero materialized a page")
	}
	if m.Read(5000) != 0 {
		t.Error("zero read broken")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	m := New()
	m.Write(10, 1)
	m.Write(2000, 2)

	s := m.Snapshot()
	// Writes to the original must not appear in the snapshot.
	m.Write(10, 100)
	m.Write(3000, 3)
	if s.Read(10) != 1 || s.Read(2000) != 2 || s.Read(3000) != 0 {
		t.Error("snapshot sees writes made after it was taken")
	}
	// Writes to the snapshot must not appear in the original.
	s.Write(2000, 200)
	if m.Read(2000) != 2 {
		t.Error("original sees snapshot writes")
	}
	if m.Read(10) != 100 || m.Read(3000) != 3 {
		t.Error("original lost its own writes")
	}
}

func TestSnapshotChain(t *testing.T) {
	m := New()
	snaps := make([]*Memory, 0, 10)
	for i := uint64(0); i < 10; i++ {
		m.Write(i, i+1)
		snaps = append(snaps, m.Snapshot())
	}
	for i, s := range snaps {
		for j := uint64(0); j < 10; j++ {
			want := uint64(0)
			if j <= uint64(i) {
				want = j + 1
			}
			if got := s.Read(j); got != want {
				t.Fatalf("snap %d read(%d) = %d, want %d", i, j, got, want)
			}
		}
	}
	// Snapshot of a snapshot must also be isolated.
	ss := snaps[5].Snapshot()
	snaps[5].Write(3, 999)
	if ss.Read(3) != 4 {
		t.Error("snapshot-of-snapshot sees parent writes")
	}
}

func TestMemoryEqual(t *testing.T) {
	a, b := New(), New()
	if !a.Equal(b) {
		t.Error("empty memories unequal")
	}
	a.Write(7, 1)
	if a.Equal(b) {
		t.Error("different memories equal")
	}
	b.Write(7, 1)
	if !a.Equal(b) {
		t.Error("same contents unequal")
	}
	// A page of explicit zeros equals an absent page.
	a.Write(9000, 5)
	a.Write(9000, 0)
	if !a.Equal(b) {
		t.Error("explicit zero page should equal absent page")
	}
	b.Write(12345, 1)
	if a.Equal(b) {
		t.Error("extra nonzero word on other side should be unequal")
	}
}

func TestMemoryDiff(t *testing.T) {
	a, b := New(), New()
	a.Write(1, 10)
	b.Write(1, 20)
	b.Write(5000, 7)
	got := map[uint64][2]uint64{}
	a.Diff(b, func(addr uint64, av, bv uint64) { got[addr] = [2]uint64{av, bv} })
	want := map[uint64][2]uint64{1: {10, 20}, 5000: {0, 7}}
	if len(got) != len(want) {
		t.Fatalf("diff = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("diff[%d] = %v, want %v", k, got[k], v)
		}
	}
}

func TestCopyWords(t *testing.T) {
	m := New()
	m.CopyWords(100, []uint64{1, 2, 3})
	for i := uint64(0); i < 3; i++ {
		if m.Read(100+i) != i+1 {
			t.Fatal("CopyWords broken")
		}
	}
}

// modelAddr draws an address for the model tests: mostly a dense low range,
// sometimes near the top of the 64-bit space, so the trie grows taller
// mid-run and snapshots taken earlier keep their shorter height. The first
// quarter of a run stays low.
func modelAddr(rng *rand.Rand, i int, low int) uint64 {
	if i < 75 {
		return uint64(rng.Intn(low))
	}
	switch rng.Intn(8) {
	case 0:
		return 1<<40 + uint64(rng.Intn(300))
	case 1:
		return 1<<60 + uint64(rng.Intn(300))
	case 2:
		return ^uint64(0) - uint64(rng.Intn(300))
	case 3:
		return rng.Uint64()
	default:
		return uint64(rng.Intn(low))
	}
}

func copyModel(m map[uint64]uint64) map[uint64]uint64 {
	c := make(map[uint64]uint64, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// Property: a memory behaves like a map with zero default, across snapshots
// and across the whole 64-bit address range.
func TestMemoryVsModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New()
		model := map[uint64]uint64{}
		type snap struct {
			m     *Memory
			model map[uint64]uint64
		}
		var snaps []snap
		for i := 0; i < 300; i++ {
			addr := modelAddr(rng, i, 5000)
			switch rng.Intn(10) {
			case 0: // snapshot
				snaps = append(snaps, snap{m.Snapshot(), copyModel(model)})
			case 1, 2, 3: // read
				if m.Read(addr) != model[addr] {
					return false
				}
			default: // write
				v := rng.Uint64() % 100
				m.Write(addr, v)
				model[addr] = v
			}
		}
		for _, s := range snaps {
			for k, v := range s.model {
				if s.m.Read(k) != v {
					return false
				}
			}
			for k := range model { // words written after the snapshot
				if s.m.Read(k) != s.model[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOverlayBasics(t *testing.T) {
	o := NewOverlay()
	if _, ok := overlayGet(o, 1); ok {
		t.Error("fresh overlay has entries")
	}
	o.Set(1, 0) // explicit zero must be present
	if v, ok := overlayGet(o, 1); !ok || v != 0 {
		t.Error("explicit zero not distinguishable from absent")
	}
	o.Set(1, 5)
	o.Set(70, 6)
	if o.Len() != 2 {
		t.Errorf("Len = %d, want 2", o.Len())
	}
	if v, _ := overlayGet(o, 1); v != 5 {
		t.Error("overwrite broken")
	}
}

func TestOverlaySnapshotIsolation(t *testing.T) {
	o := NewOverlay()
	o.Set(1, 1)
	s := o.Snapshot()
	o.Set(1, 2)
	o.Set(2, 3)
	if v, _ := overlayGet(s, 1); v != 1 {
		t.Error("overlay snapshot sees later writes")
	}
	if _, ok := overlayGet(s, 2); ok {
		t.Error("overlay snapshot sees later additions")
	}
	s.Set(9, 9)
	if _, ok := overlayGet(o, 9); ok {
		t.Error("original sees snapshot writes")
	}
	if s.Len() != 2 || o.Len() != 2 {
		t.Errorf("Len after snapshot writes: s=%d o=%d, want 2,2", s.Len(), o.Len())
	}
}

func TestOverlayRange(t *testing.T) {
	o := NewOverlay()
	want := map[uint64]uint64{0: 5, 63: 1, 64: 2, 1023: 3, 1024: 4, 99999: 6, 1 << 60: 7, ^uint64(0): 8}
	for k, v := range want {
		o.Set(k, v)
	}
	if !overlayMatches(o, want) {
		t.Fatal("Range does not visit exactly the bindings in ascending address order")
	}
	// Early stop.
	n := 0
	o.Range(func(a, v uint64) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop visited %d, want 3", n)
	}
}

func TestOverlayVsModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		o := NewOverlay()
		model := map[uint64]uint64{}
		type snap struct {
			o     *Overlay
			model map[uint64]uint64
		}
		var snaps []snap
		for i := 0; i < 400; i++ {
			addr := modelAddr(rng, i, 3000)
			switch rng.Intn(12) {
			case 0:
				snaps = append(snaps, snap{o.Snapshot(), copyModel(model)})
			case 1, 2, 3:
				v, ok := overlayGet(o, addr)
				mv, mok := model[addr]
				if ok != mok || v != mv {
					return false
				}
			default:
				v := rng.Uint64() % 50
				o.Set(addr, v)
				model[addr] = v
			}
		}
		snaps = append(snaps, snap{o, model})
		for _, s := range snaps {
			if !overlayMatches(s.o, s.model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// overlayGet returns the value o binds to addr and whether it binds one,
// read as a table reads a checkpoint's base.
func overlayGet(o *Overlay, addr uint64) (uint64, bool) {
	return o.page(addr >> pageShift).get(addr & pageMask)
}

// overlayMatches checks o against a model: same length, and Range visits
// exactly the model's bindings in ascending address order.
func overlayMatches(o *Overlay, model map[uint64]uint64) bool {
	if o.Len() != len(model) {
		return false
	}
	n, ok := 0, true
	var prev uint64
	o.Range(func(a, v uint64) bool {
		if mv, present := model[a]; !present || mv != v || (n > 0 && a <= prev) {
			ok = false
		}
		n, prev = n+1, a
		return true
	})
	return ok && n == len(model)
}

func BenchmarkMemoryWrite(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		m.Write(uint64(i)&0xffff, uint64(i))
	}
}

func BenchmarkMemorySnapshotAndWrite(b *testing.B) {
	m := New()
	for i := uint64(0); i < 1<<16; i++ {
		m.Write(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := m.Snapshot()
		s.Write(uint64(i)&0xffff, 1)
	}
}
