package plan

import (
	"context"
	"fmt"
	"hash/maphash"
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

// fpHash is the cache's index of a fingerprint under a seed. A test makes
// it constant to chain every fingerprint.
var fpHash = maphash.Comparable[Fingerprint]

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
	// same is the next entry of the chain whose fingerprints hash alike.
	same *entry
}

// Cache is a bounded LRU of execution plans, safe for concurrent use.
// Concurrent misses on one fingerprint are coalesced: exactly one caller
// runs the build (the pilot plus the candidate searches) while the rest
// wait for its result, so a burst of identical queries onto a cold cache
// pays for one pilot, not N. A miss nobody waits on makes one object: its
// entry, the in-flight record that becomes the LRU node.
type Cache struct {
	mu       sync.Mutex
	capacity int
	// entries holds every resident entry and every build in flight, keyed
	// by a 64-bit hash of the fingerprint under seed (a map keyed by the
	// wide Fingerprint itself would copy each key out of line), entries
	// whose fingerprints hash alike chained through same. resident counts
	// the resident ones, which lru rings, front (lru.next) the most
	// recently used.
	seed      maphash.Seed
	entries   map[uint64]*entry
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
	c := &Cache{capacity: capacity, seed: maphash.MakeSeed(), entries: make(map[uint64]*entry)}
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

// remove takes e out of the entries and its chain.
func (c *Cache) remove(e *entry) {
	h := fpHash(c.seed, e.fp)
	if p := c.entries[h]; p != e {
		for p.same != e {
			p = p.same
		}
		p.same = e.same
	} else if e.same != nil {
		c.entries[h] = e.same
	} else {
		delete(c.entries, h)
	}
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
	h := fpHash(c.seed, fp)
	c.mu.Lock()
	e := c.entries[h]
	for e != nil && e.fp != fp {
		e = e.same
	}
	if e != nil {
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
	e = &entry{fp: fp, same: c.entries[h]}
	c.entries[h] = e
	c.misses++
	c.mu.Unlock()

	defer func() {
		if e.plan == nil && e.err == nil {
			// build panicked; unblock waiters with an error.
			e.err = fmt.Errorf("plan: build for %v aborted", fp)
		}
		c.mu.Lock()
		if e.err != nil {
			c.remove(e)
		} else {
			c.pushFront(e)
			c.resident++
			for c.resident > c.capacity {
				back := c.lru.prev
				c.unlink(back)
				c.remove(back)
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
