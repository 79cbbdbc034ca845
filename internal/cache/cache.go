// Package cache provides content-keyed memoization of expensive pipeline
// artifacts (assembled programs, profiles, distilled programs, baseline
// runs). A Cache is a map with hit/miss counters and single-flight
// semantics: concurrent callers that need the same artifact compute it
// exactly once and all receive the same value — for pointer types, the
// identical pointer — so a parallel sweep never duplicates a distillation
// the way independent goroutines otherwise would. Entries live as long as
// the cache: one experiment run needs only a few hundred artifacts.
package cache

import (
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
)

// Metrics is a point-in-time snapshot of a cache's activity counters.
type Metrics struct {
	// Hits counts lookups served from a resident entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to run their compute function.
	Misses uint64 `json:"misses"`
	// Shared counts callers that waited on another goroutine's in-flight
	// compute instead of starting their own (single-flight coalescing).
	Shared uint64 `json:"shared"`
	// Size is the current number of resident entries.
	Size int `json:"size"`
}

// HitRate returns hits over total lookups (0 when the cache is unused).
func (m Metrics) HitRate() float64 {
	total := m.Hits + m.Misses
	if total == 0 {
		return 0
	}
	return float64(m.Hits) / float64(total)
}

// flight is one in-progress compute; waiters block on done and then read
// val/err, which are written exactly once before done is closed.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a concurrency-safe, single-flight memoization map. The zero
// value is not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	entries  map[K]V
	inflight map[K]*flight[V]

	hits, misses, shared uint64
}

// New returns an empty cache.
func New[K comparable, V any]() *Cache[K, V] {
	return &Cache[K, V]{
		entries:  make(map[K]V),
		inflight: make(map[K]*flight[V]),
	}
}

// GetOrCompute returns the value for key, running compute on a miss.
// Concurrent calls for the same key share one compute call: the first
// caller computes while the rest wait and receive the same value. Errors
// are not cached — a failed compute leaves the key absent and the next
// caller retries. compute runs without the cache lock held, so it may
// itself use this or other caches.
func (c *Cache[K, V]) GetOrCompute(key K, compute func() (V, error)) (V, error) {
	c.mu.Lock()
	for {
		if v, ok := c.entries[key]; ok {
			c.hits++
			c.mu.Unlock()
			return v, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			break
		}
		c.shared++
		c.mu.Unlock()
		<-fl.done
		if fl.err == nil {
			return fl.val, nil
		}
		// The flight we joined failed; retry — we may become the computer.
		c.mu.Lock()
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.mu.Unlock()

	v, err := compute()
	fl.val, fl.err = v, err
	c.mu.Lock()
	delete(c.inflight, key)
	if err == nil {
		c.entries[key] = v
	}
	c.mu.Unlock()
	close(fl.done)
	return v, err
}

// Metrics returns a snapshot of the counters.
func (c *Cache[K, V]) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Metrics{
		Hits:   c.hits,
		Misses: c.misses,
		Shared: c.shared,
		Size:   len(c.entries),
	}
}

// KeyOf builds a content key from the printed representation of its parts
// (workload name, input class, distiller options, ...), prefixed with an
// FNV-1a hash of the same bytes. Keeping the full rendering in the key
// makes distinct inputs collide only if they print identically, while the
// hash prefix keeps map comparisons cheap for long keys.
func KeyOf(parts ...any) string {
	var b strings.Builder
	for i, p := range parts {
		if i > 0 {
			b.WriteByte(0x1f) // unit separator: "ab","c" ≠ "a","bc"
		}
		fmt.Fprintf(&b, "%v", p)
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x\x1e%s", h.Sum64(), b.String())
}
