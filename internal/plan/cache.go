package plan

import (
	"container/list"
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

// entry is one cached plan keyed by its fingerprint.
type entry struct {
	fp   Fingerprint
	plan *core.Plan
}

// flight is one in-progress plan build; concurrent requests for the same
// fingerprint wait on done instead of running their own pilot.
type flight struct {
	done chan struct{}
	plan *core.Plan
	err  error
}

// Cache is a bounded LRU of execution plans, safe for concurrent use.
// Concurrent misses on one fingerprint are coalesced: exactly one caller
// runs the build (the pilot plus the candidate searches) while the rest
// wait for its result, so a burst of identical queries onto a cold cache
// pays for one pilot, not N.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	entries   map[Fingerprint]*list.Element
	lru       *list.List // front = most recently used
	inflight  map[Fingerprint]*flight
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
	return &Cache{
		capacity: capacity,
		entries:  make(map[Fingerprint]*list.Element),
		lru:      list.New(),
		inflight: make(map[Fingerprint]*flight),
	}
}

// putLocked inserts (or refreshes) a plan, evicting the least recently
// used entries beyond capacity.
func (c *Cache) putLocked(fp Fingerprint, pl *core.Plan) {
	if el, ok := c.entries[fp]; ok {
		el.Value.(*entry).plan = pl
		c.lru.MoveToFront(el)
		return
	}
	c.entries[fp] = c.lru.PushFront(&entry{fp: fp, plan: pl})
	for len(c.entries) > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*entry).fp)
		c.evictions++
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
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		pl = el.Value.(*entry).plan
		c.mu.Unlock()
		return pl, true, nil
	}
	if fl, ok := c.inflight[fp]; ok {
		c.mu.Unlock()
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if fl.err != nil {
			return nil, false, fl.err
		}
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
		return fl.plan, true, nil
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[fp] = fl
	c.misses++
	c.mu.Unlock()

	defer func() {
		if fl.plan == nil && fl.err == nil {
			// build panicked; unblock waiters with an error.
			fl.err = fmt.Errorf("plan: build for %v aborted", fp)
		}
		c.mu.Lock()
		delete(c.inflight, fp)
		if fl.err == nil {
			c.putLocked(fp, fl.plan)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.plan, fl.err = build()
	return fl.plan, false, fl.err
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:  c.capacity,
		Entries:   len(c.entries),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
