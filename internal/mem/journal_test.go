package mem

import (
	"math/rand"
	"testing"
)

// journalAddr draws a master-shaped address: mostly a few heap pages and the
// stack just below 1<<28 (four trie levels deep), sometimes anywhere in the
// 64-bit range, which grows the trie mid-interval and mostly lands on absent
// pages.
func journalAddr(rng *rand.Rand) uint64 {
	switch rng.Intn(8) {
	case 0:
		return rng.Uint64()
	case 1, 2, 3:
		return 1<<28 - 1 - uint64(rng.Intn(3*PageWords))
	default:
		return 1<<16 + uint64(rng.Intn(16*PageWords))
	}
}

// flushSet collects one flush as an address → (new, old) set, failing on an
// address reported twice or out of ascending order.
func flushSet(t *testing.T, j *Journal) map[uint64][2]uint64 {
	t.Helper()
	got := map[uint64][2]uint64{}
	var last uint64
	j.Flush(func(a, mv, ov uint64) {
		if _, dup := got[a]; dup {
			t.Fatalf("flush reported %#x twice", a)
		}
		if len(got) != 0 && a < last {
			t.Fatalf("flush reported %#x after %#x", a, last)
		}
		got[a], last = [2]uint64{mv, ov}, a
	})
	return got
}

// diffSet is the reference: Memory.Diff of m against base as the same set.
func diffSet(m, base *Memory) map[uint64][2]uint64 {
	want := map[uint64][2]uint64{}
	m.Diff(base, func(a, mv, ov uint64) { want[a] = [2]uint64{mv, ov} })
	return want
}

func sameSet(got, want map[uint64][2]uint64) bool {
	if len(got) != len(want) {
		return false
	}
	for a, w := range want {
		if g, ok := got[a]; !ok || g != w {
			return false
		}
	}
	return true
}

// Property: every flush reports exactly what Memory.Diff reports against a
// snapshot taken at the previous flush, in ascending address order. The journaled memory m is only ever
// snapshotted mid-interval, which must not disturb the recorded prior
// contents; the reference diffs a plain mirror that receives the same
// writes, so both the in-place and the copy-on-write first-write paths are
// covered.
// Writes of small values produce zero writes to absent pages (which change
// nothing) and rewrites of a word's old value (which the diff cannot see
// either). Some rounds write nothing, so flushes also come back to back, and
// some detach the journal, move it to another memory or attach another
// journal to m for a while.
func TestJournalMatchesDiff(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, mirror := New(), New()
		for i := 0; i < 64; i++ { // a populated start image
			a, v := journalAddr(rng), rng.Uint64()
			m.Write(a, v)
			mirror.Write(a, v)
		}
		var j Journal
		j.Attach(m)
		base := mirror.Snapshot()
		for round := 0; round < 20; round++ {
			writes := rng.Intn(48)
			if round%5 == 4 {
				writes = 0
			}
			detach := rng.Intn(10) == 0
			if detach {
				switch rng.Intn(3) {
				case 0:
					j.Attach(nil)
				case 1:
					j.Attach(New()) // moving j detaches it from m
				default:
					var k Journal
					k.Attach(m) // so does attaching another journal to m
				}
			}
			for i := 0; i < writes; i++ {
				a, v := journalAddr(rng), uint64(rng.Intn(3))
				m.Write(a, v)
				mirror.Write(a, v)
				if i == writes/2 && rng.Intn(2) == 0 {
					// A mid-interval snapshot shares every page again, so
					// later writes copy pages the journal has already
					// recorded; writes to the snapshot must not reach it.
					snap := m.Snapshot()
					if snap.j != nil {
						t.Fatalf("seed %d round %d: snapshot inherited the journal", seed, round)
					}
					snap.Write(a, v+1)
					snap.Write(journalAddr(rng), 7)
				}
			}
			if detach {
				if got := flushSet(t, &j); len(got) != 0 {
					t.Fatalf("seed %d round %d: detached journal reported %d words", seed, round, len(got))
				}
				if m.j == &j || j.m == m {
					t.Fatalf("seed %d round %d: detached journal still linked to its memory", seed, round)
				}
				j.Attach(m) // journals from the current contents on
				base = mirror.Snapshot()
				continue
			}
			got, want := flushSet(t, &j), diffSet(mirror, base)
			if !sameSet(got, want) {
				t.Fatalf("seed %d round %d: flush %v, Diff %v", seed, round, got, want)
			}
			if !m.Equal(mirror) {
				t.Fatalf("seed %d round %d: journaled memory diverged from its mirror", seed, round)
			}
			base = mirror.Snapshot()
		}
	}
}

// TestJournalZeroWriteToAbsentPage: a zero write to an absent page changes
// nothing, so the journal records and reports nothing.
func TestJournalZeroWriteToAbsentPage(t *testing.T) {
	m := New()
	var j Journal
	j.Attach(m)
	m.Write(1<<40, 0)
	if len(j.pns) != 0 {
		t.Fatalf("zero write to an absent page recorded %d pages", len(j.pns))
	}
	if got := flushSet(t, &j); len(got) != 0 {
		t.Fatalf("flush after a zero write reported %v", got)
	}
	m.Write(1<<40, 5)
	m.Write(1<<40, 0)
	if got := flushSet(t, &j); len(got) != 0 {
		t.Fatalf("a word written and reset to its old value was reported: %v", got)
	}
}

// TestJournalSteadyStateZeroAlloc: once its buffers have grown, a journal's
// write-then-flush cycle allocates nothing, including when it moves between
// memories the way one engine-owned journal moves between master lives.
func TestJournalSteadyStateZeroAlloc(t *testing.T) {
	lives := [2]*Memory{New(), New()}
	var j Journal
	var sink uint64
	n := uint64(0)
	cycle := func() {
		for _, m := range lives {
			j.Attach(m)
			for k := 0; k < 3; k++ {
				n++
				m.Write(1<<28-1-uint64(k), n)       // stack
				for pg := uint64(0); pg < 6; pg++ { // scattered heap pages
					m.Write(1<<16+pg*7*PageWords+n%PageWords, n)
				}
				j.Flush(func(a, mv, _ uint64) { sink += a ^ mv })
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("journal write/flush cycle allocates %v per run, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("flushes reported nothing")
	}
}
