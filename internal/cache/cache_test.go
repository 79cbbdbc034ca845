package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestGetOrComputeBasics(t *testing.T) {
	c := New[string, int]()
	calls := 0
	get := func(k string, v int) int {
		got, err := c.GetOrCompute(k, func() (int, error) { calls++; return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := get("a", 1); got != 1 {
		t.Fatalf("a = %d", got)
	}
	if got := get("a", 99); got != 1 {
		t.Fatalf("cached a = %d, want original 1", got)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Size != 1 {
		t.Errorf("metrics = %+v", m)
	}
	if m.HitRate() != 0.5 {
		t.Errorf("hit rate = %v", m.HitRate())
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New[string, int]()
	boom := errors.New("boom")
	calls := 0
	_, err := c.GetOrCompute("k", func() (int, error) { calls++; return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	v, err := c.GetOrCompute("k", func() (int, error) { calls++; return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry = %d, %v", v, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (failure must not be cached)", calls)
	}
	if m := c.Metrics(); m.Size != 1 {
		t.Errorf("size = %d", m.Size)
	}
}

// TestSingleFlightSharesPointer exercises the issue's key edge case: many
// goroutines demanding the same artifact must trigger exactly one compute
// and all receive the identical pointer.
func TestSingleFlightSharesPointer(t *testing.T) {
	type artifact struct{ n int }
	c := New[string, *artifact]()
	var computes atomic.Int64
	gate := make(chan struct{})

	const goroutines = 32
	results := make([]*artifact, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.GetOrCompute("k", func() (*artifact, error) {
				computes.Add(1)
				<-gate // hold the flight open until all goroutines have queued or hit
				return &artifact{n: 42}, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let the waiters pile up, then release the one compute.
	for {
		m := c.Metrics()
		if m.Misses == 1 && m.Shared >= 1 {
			break
		}
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r == nil || r != results[0] {
			t.Fatalf("goroutine %d got a different artifact pointer", i)
		}
	}
}

// TestConcurrentDistinctKeys hammers one cache from many goroutines over a
// shared keyspace: every lookup must return the value for its own key (no
// cross-key contamination), and each key is computed exactly once.
func TestConcurrentDistinctKeys(t *testing.T) {
	c := New[int, int]()
	const goroutines, iters, keys = 16, 200, 64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*31 + i) % keys
				v, err := c.GetOrCompute(k, func() (int, error) { return k * 1000, nil })
				if err != nil {
					errc <- err
					return
				}
				if v != k*1000 {
					errc <- fmt.Errorf("key %d returned %d", k, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	m := c.Metrics()
	if m.Size != keys || m.Misses != keys {
		t.Errorf("metrics = %+v, want %d resident entries each computed once", m, keys)
	}
	if total := m.Hits + m.Misses + m.Shared; total != goroutines*iters {
		t.Errorf("lookups = %d, want %d", total, goroutines*iters)
	}
}

// TestKeyOfCollisionResistance checks that keys built from adjacent field
// boundaries and differing option values do not collide.
func TestKeyOfCollisionResistance(t *testing.T) {
	pairs := [][2]string{
		{KeyOf("ab", "c"), KeyOf("a", "bc")},
		{KeyOf("prog", "compress", 1), KeyOf("prog", "compress", 2)},
		{KeyOf("distill", "mtf", 100, 0.99), KeyOf("distill", "mtf", 100, 0.995)},
		{KeyOf("distill", "mtf", 1000, 0.99), KeyOf("distill", "mtf", 100, 00.99)},
		{KeyOf("profile", "interp", uint64(25)), KeyOf("baseline", "interp", uint64(25))},
	}
	for i, p := range pairs {
		if p[0] == p[1] {
			t.Errorf("pair %d collides: %q", i, p[0])
		}
	}
	if KeyOf("a", 1) != KeyOf("a", 1) {
		t.Error("KeyOf not deterministic")
	}
}
