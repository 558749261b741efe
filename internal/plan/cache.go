package plan

import (
	"context"
	"fmt"
	"sync"

	"apujoin/internal/core"
)

// DefaultCacheCapacity bounds the plan cache when the caller passes no
// capacity. Each entry is a few KB of profiles and ratios, so the default
// is generous for any realistic mix of workload shapes.
const DefaultCacheCapacity = 128

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Capacity  int   `json:"capacity"`
	Entries   int   `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// entry is one fingerprint's slot: first the in-flight record of its
// build, which concurrent requests for the fingerprint wait on instead of
// running their own pilot, then, built, a node of the LRU ring. One object
// serves both, so a miss allocates the entry and, only when another request
// waits on it, its done channel.
type entry struct {
	fp   Fingerprint
	plan *core.Plan
	err  error
	// done is closed when the build ends; made by the first waiter.
	done chan struct{}
	// prev and next link the LRU ring through the cache's sentinel; both
	// are nil while the build runs.
	prev, next *entry
}

// Cache is a bounded LRU of execution plans, safe for concurrent use.
// Concurrent misses on one fingerprint are coalesced: exactly one caller
// runs the build (the pilot plus the candidate searches) while the rest
// wait for its result, so a burst of identical queries onto a cold cache
// pays for one pilot, not N. A miss nobody waits on makes two objects: its
// entry, the in-flight record that becomes the LRU node, and the map's copy
// of its fingerprint.
type Cache struct {
	mu       sync.Mutex
	capacity int
	// entries holds every resident entry and every build in flight;
	// resident counts the former, which lru rings, front (lru.next) the
	// most recently used.
	entries   map[Fingerprint]*entry
	lru       entry
	resident  int
	hits      int64
	misses    int64
	evictions int64
}

// NewCache returns an empty cache holding at most capacity plans;
// capacity <= 0 selects DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	c := &Cache{capacity: capacity, entries: make(map[Fingerprint]*entry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// unlink takes e out of the LRU ring.
func (c *Cache) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// pushFront links e in as the most recently used entry.
func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

// GetOrBuild returns the plan for fp, building and caching it on a miss.
// hit reports whether the caller was served without running build itself —
// true both for a resident entry and for a request coalesced onto another
// caller's in-flight build (either way this caller paid no pilot). Build
// errors are returned to every coalesced caller and nothing is cached, so
// a transient failure does not poison the fingerprint.
//
// ctx bounds the wait, not the work: a coalesced caller stops waiting
// when ctx is cancelled, and a cancelled caller never starts a build, but
// a build already running completes and is cached — its result serves
// every later query of the shape regardless of who first asked for it.
func (c *Cache) GetOrBuild(ctx context.Context, fp Fingerprint, build func() (*core.Plan, error)) (pl *core.Plan, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[fp]; ok {
		if e.next != nil {
			c.unlink(e)
			c.pushFront(e)
			c.hits++
			c.mu.Unlock()
			return e.plan, true, nil
		}
		if e.done == nil {
			e.done = make(chan struct{})
		}
		done := e.done
		c.mu.Unlock()
		select {
		case <-done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if e.err != nil {
			return nil, false, e.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return e.plan, true, nil
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	e := &entry{fp: fp}
	c.entries[fp] = e
	c.misses++
	c.mu.Unlock()

	defer func() {
		if e.plan == nil && e.err == nil {
			// build panicked; unblock waiters with an error.
			e.err = fmt.Errorf("plan: build for %v aborted", fp)
		}
		c.mu.Lock()
		if e.err != nil {
			delete(c.entries, fp)
		} else {
			c.pushFront(e)
			c.resident++
			for c.resident > c.capacity {
				back := c.lru.prev
				c.unlink(back)
				delete(c.entries, back.fp)
				c.resident--
				c.evictions++
			}
		}
		if e.done != nil {
			close(e.done)
		}
		c.mu.Unlock()
	}()
	e.plan, e.err = build()
	return e.plan, false, e.err
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Entries:   c.resident,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
