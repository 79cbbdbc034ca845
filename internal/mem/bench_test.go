package mem

import (
	"fmt"
	"testing"
)

// Benchmarks for the memory layer's hot paths: cached reads and writes,
// snapshot churn (the per-spawn cost in the machine), and whole-image
// comparison. cmd/msspbench reruns these to produce BENCH_core.json.

// BenchmarkReadHit measures a read that hits the one-entry page cache — the
// dominant case in sequential MIR execution.
func BenchmarkReadHit(b *testing.B) {
	m := New()
	m.Write(4096, 7)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Read(4096 + uint64(i&pageMask))
	}
	_ = sink
}

// BenchmarkReadSpread strides across 64 pages, defeating the cache, to keep
// the map-lookup slow path measured.
func BenchmarkReadSpread(b *testing.B) {
	m := New()
	for pn := uint64(0); pn < 64; pn++ {
		m.Write(pn*PageWords, pn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += m.Read(uint64(i&63) * PageWords)
	}
	_ = sink
}

// BenchmarkWriteHit measures a write into the exclusively-owned cached page.
func BenchmarkWriteHit(b *testing.B) {
	m := New()
	m.Write(4096, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Write(4096+uint64(i&pageMask), uint64(i))
	}
}

// BenchmarkSnapshotChurn measures the machine's per-spawn pattern: snapshot
// the image, then write it (forcing one path copy-on-write). This is the
// cost the task-spawn path pays per architected snapshot. It runs at 16 and
// 4096 populated pages: snapshots are O(1), so the two must match.
func BenchmarkSnapshotChurn(b *testing.B) {
	for _, pages := range []uint64{16, 4096} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			m := New()
			for pn := uint64(0); pn < pages; pn++ {
				m.Write(pn*PageWords, pn+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := m.Snapshot()
				snap.Write(0, uint64(i))
			}
		})
	}
}

// BenchmarkEqualShared compares a snapshot against its parent — the
// pointer-equality fast path the verifiers lean on.
func BenchmarkEqualShared(b *testing.B) {
	m := New()
	for pn := uint64(0); pn < 16; pn++ {
		m.Write(pn*PageWords, pn+1)
	}
	snap := m.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Equal(snap) {
			b.Fatal("snapshot differs from parent")
		}
	}
}

// BenchmarkTableHit measures a slave's load and store of a word its task
// already wrote, on the page its table last probed: the inlined hits
// Table.Cached and Table.StoreCached.
func BenchmarkTableHit(b *testing.B) {
	tab := NewTable()
	for a := uint64(0); a < PageWords; a++ {
		tab.Store(a, a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := uint64(i & pageMask)
		v, ok := tab.Cached(a)
		if !ok || !tab.StoreCached(a, v+1) {
			b.Fatal("missed a word the table holds")
		}
	}
}

// TestMemOpsZeroAlloc pins the allocation-free property of the cached
// access paths after warm-up.
func TestMemOpsZeroAlloc(t *testing.T) {
	m := New()
	m.Write(4096, 7)
	if allocs := testing.AllocsPerRun(100, func() {
		m.Write(4100, m.Read(4096)+1)
	}); allocs != 0 {
		t.Fatalf("cached read/write allocates: %v allocs/op, want 0", allocs)
	}
	tab := NewTable()
	tab.Store(1, 1)
	if allocs := testing.AllocsPerRun(100, func() {
		v, _ := tab.Cached(1)
		tab.StoreCached(1, v+1)
	}); allocs != 0 {
		t.Fatalf("table hits allocate: %v allocs/op, want 0", allocs)
	}
}
