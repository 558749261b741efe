// Package catalog is the resident store under the service's router: a
// budgeted, pinned, named set of relation slices. The router owns every
// logical fact about a relation — its name, provenance, ingest statistics
// and pair workloads — and hands a backend the slices to keep; a Catalog
// keeps them, charged against a resident zero-copy buffer (the paper's
// schemes assume the relations already live in the region both devices
// address, Sec. 4), and lends the same budget to a pipeline's transient
// intermediates (ReserveTransient, Unreserve). Slices are stored as given,
// each beside the count table its relation was measured into at ingest
// (Load): nothing is copied, measured or indexed here.
//
// Deletion is refcounted: Drop unbinds the name immediately (no new query
// can resolve it) while in-flight queries keep their pins; the zero-copy
// bytes are released when the last pin drains, and with them the build
// record a join left on the entry (Entry.Join): the built hash table the
// next join over the same build side probes instead of building its own —
// and the pilot a plan left (Entry.BuildPlan): the build half of the
// planner's profiling run, which the next cold plan probes. The catalog
// alone decides what stays resident: records and pilots are charged to the
// same budget and only kept when they fit, and relations and transient
// reservations come first, evicting the records and pilots no query reads
// when that makes them fit. One mutex guards the pins, the drop state, the
// records and the pilots.
//
// The package also holds what the router records about a relation — Info,
// Source, and the ingest statistics (Measure, IngestStats) the planner's
// fingerprint would otherwise measure per query: a strided key sample, its
// heavy-hitter (skew) bucket, and the key → multiplicity table (rel.Counts)
// a build over the relation would create. plan.PairWorkload folds a probe's
// sample against a build's table, so a registered pair fingerprints without
// reading either relation — and lands in the same plan-cache slot as the
// identical inline query, because the sampling arithmetic is shared
// (plan.WorkloadSample, rel.Relation.KeySample). A pipeline's first step
// reads the same table, through the pin on its slice, instead of counting
// its build side per query.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"apujoin/internal/core"
	"apujoin/internal/mem"
	"apujoin/internal/plan"
	"apujoin/internal/rel"
)

// Registration and lookup errors. HTTP layers map ErrNotFound to 404,
// ErrExists to 409 and ErrNoSpace to 507.
var (
	ErrExists   = errors.New("catalog: relation already registered")
	ErrNotFound = errors.New("catalog: no such relation")
	ErrNoSpace  = errors.New("catalog: relation does not fit the resident zero-copy buffer")
)

// Source identifies how a relation was registered.
type Source string

const (
	// Generated relations come from a rel.Gen build spec.
	Generated Source = "generated"
	// Probe relations were generated against a registered build relation
	// with a target selectivity.
	Probe Source = "probe"
	// Loaded relations were bulk-loaded by the caller.
	Loaded Source = "loaded"
)

// Info is the JSON-friendly snapshot of one registered relation, as the
// service's router records it.
type Info struct {
	Name   string `json:"name"`
	Tuples int    `json:"tuples"`
	Bytes  int64  `json:"bytes"`
	Source Source `json:"source"`

	// Generation provenance, when the service built the data itself.
	Dist        string  `json:"dist,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	KeyRange    int     `json:"key_range,omitempty"`
	ProbeOf     string  `json:"probe_of,omitempty"`
	Selectivity float64 `json:"selectivity,omitempty"`

	// Ingest-time statistics the planner fingerprints reuse.
	SkewBucket int     `json:"skew_bucket"`
	HeavyShare float64 `json:"heavy_share"`

	// Pins counts in-flight queries referencing the relation; Joins counts
	// every query that resolved it over its lifetime.
	Pins  int   `json:"pins"`
	Joins int64 `json:"joins"`

	Created time.Time `json:"created"`
}

// IngestStats are the workload statistics measured once when a relation
// is registered: the strided key sample, its skew bucket and heaviest key's
// share, and the key → multiplicity table — always of the whole relation,
// whatever grid its slices are stored on, so every engine shape lands a
// pair workload in the same plan-cache bucket. Because grid partitions and
// spill levels split by key, the whole relation's count of any key a
// partition holds is that partition's own count: the table serves every
// partition's chain exactly.
//
// Counts is fitted to the relation's distinct keys (rel.Counts.Fit): 16–32 B
// per distinct key, two 4-byte words per slot at a load between one quarter
// and one half. A relation of distinct keys — every generated build side —
// therefore keeps 16–32 B per tuple beside its own 4-byte key, where the
// sorted key index this table replaced kept 4; a probe side with repeated
// keys keeps less. The table is not charged to the catalog budget, so the
// budget bounds the relations' bytes, not the memory their registration
// holds — on a router with no local backend too, which keeps the table only
// for membership tests. It is never handed back to the recycler: the router
// record, the relation's catalog entries and every query that pinned them
// share the table, which the GC frees once the last of them is gone — so a
// Drop during a running query needs no refcount beyond the entry pins.
type IngestStats struct {
	Sample     []int32
	Counts     rel.Counts
	SkewBucket int
	HeavyShare float64
}

// Measure computes a relation's ingest statistics: one strided sample and
// one pass over the key column into the count table, then fitted to the
// distinct keys.
func Measure(r rel.Relation) IngestStats {
	sample := r.KeySample(plan.WorkloadSample)
	share := plan.HeavyShare(sample)
	counts := rel.CountKeys(r.Keys)
	counts.Fit()
	return IngestStats{
		Sample:     sample,
		Counts:     counts,
		SkewBucket: plan.SkewBucketOf(share),
		HeavyShare: share,
	}
}

// Entry is one resident slice. Entries are immutable after Load; only the
// pin count, the drop flag, the build record and the pilot change, all
// guarded by the owning catalog's mutex.
type Entry struct {
	c      *Catalog
	rel    rel.Relation
	counts rel.Counts

	// Mutable, guarded by c.mu.
	pins    int
	dropped bool
	rec     *core.BuildRecord
	pilot   *core.Pilot
}

// Relation returns the resident slice. Its key column is shared, not
// copied; callers must treat it as read-only.
func (e *Entry) Relation() rel.Relation { return e.rel }

// Counts returns the count table stored beside the slice (Load): shared,
// read-only, and never released through the entry.
func (e *Entry) Counts() rel.Counts { return e.counts }

// Join runs the join of r, the entry's slice, with s. On a catalog's entry
// it probes the table the entry keeps when that was built under the join's
// configuration and ratios (core.RunKept), and counts the hit or the miss.
// An entry that holds no table gets the join's own, sealed, when the budget
// takes its bytes, and the table is freed otherwise; a join under another
// key than the kept table's runs uncached. The caller holds a pin on the
// entry for the whole join, so no table a join reads is freed under it. A
// nil or scratch entry runs uncached (core.RunCtx).
func (e *Entry) Join(ctx context.Context, r, s rel.Relation, opt core.Options) (*core.Result, error) {
	if e == nil || e.c == nil {
		return core.RunCtx(ctx, r, s, opt)
	}
	c := e.c
	c.mu.Lock()
	kept := e.rec
	c.mu.Unlock()
	res, rec, err := core.RunKept(ctx, r, s, opt, kept)
	if err != nil || res.Scheme == core.CoarsePL {
		return res, err // a failed join, or PHJ-PL', which keeps no table
	}
	c.mu.Lock()
	hit := rec != nil && rec == kept
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	keep := rec != nil && !hit && c.charge(rec.Bytes(), e.rec == nil)
	if keep {
		e.rec = rec
	}
	c.mu.Unlock()
	if rec != nil && !hit && !keep {
		rec.Release()
	}
	return res, nil
}

// BuildPlan plans the join of r, the entry's slice, with s. On a catalog's
// entry it probes the pilot the entry keeps when that was built under the
// plan's pilot key (core.BuildPlanKept); an entry that holds no pilot gets
// the plan's own, sealed, when the budget takes its bytes, and the pilot is
// freed otherwise. The plan is core.BuildPlan's either way, and counts
// neither as a hit nor as a miss of the build records. The caller holds a
// pin on the entry. A nil or scratch entry plans uncached (core.BuildPlan).
func (e *Entry) BuildPlan(r, s rel.Relation, opt core.Options) (*core.Plan, error) {
	if e == nil || e.c == nil {
		return core.BuildPlan(r, s, opt)
	}
	c := e.c
	c.mu.Lock()
	kept := e.pilot
	c.mu.Unlock()
	pl, p, err := core.BuildPlanKept(r, s, opt, kept)
	if err != nil || p == nil || p == kept {
		return pl, err
	}
	c.mu.Lock()
	keep := c.charge(p.Bytes(), e.pilot == nil)
	if keep {
		e.pilot = p
	}
	c.mu.Unlock()
	if !keep {
		p.Release()
	}
	return pl, nil
}

// Scratch pins a relation no catalog holds: one query's split of an inline
// relation, whose key column is a recycler slab. Its one Release hands it
// back, as the last pin on a dropped entry frees its bytes.
func Scratch(r rel.Relation) *Entry { return &Entry{rel: r, pins: 1} }

// Release drops one pin taken by Catalog.Acquire. When the entry was
// dropped and this was the last pin, the resident zero-copy bytes are
// released. Release is safe to call from query-completion paths running
// concurrently with Drop.
func (e *Entry) Release() {
	if e.c == nil {
		e.rel.Release()
		e.rel = rel.Relation{}
		return
	}
	e.c.mu.Lock()
	defer e.c.mu.Unlock()
	if e.pins > 0 {
		e.pins--
	}
	if e.dropped && e.pins == 0 {
		e.c.zc.Free(e.rel.Bytes())
		e.c.freeKept(e)
		e.dropped = false // free exactly once
	}
}

// Stats is the catalog metrics surface of the service: a store fills the
// physical gauges, the router the logical ones (relations counted once,
// WorkloadReuses).
type Stats struct {
	Relations int `json:"relations"`
	// Bytes is what the registered relations and transient pipeline
	// reservations hold of the resident budget; BuildRecordBytes the rest.
	Bytes    int64 `json:"bytes"`
	Capacity int64 `json:"capacity_bytes"`

	// PeakBytes is the high-water mark of the resident zero-copy buffer
	// over the catalog's lifetime — registered relations, transient
	// pipeline reservations and build records. It is what a real
	// coupled-architecture deployment would have to provision.
	PeakBytes int64 `json:"peak_bytes"`

	Registered int64 `json:"registered"`
	Dropped    int64 `json:"dropped"`
	// WorkloadReuses counts pair-workload lookups served from the
	// ingest-time statistics without re-measuring either relation.
	WorkloadReuses int64 `json:"workload_reuses"`

	// BuildRecordBytes is what the build records and pilots on the entries
	// keep resident — each a sealed hash table's bucket counts and flat
	// layout, freed with its entry or evicted for a relation or reservation
	// that would not fit otherwise — charged to the capacity beside Bytes.
	// BuildRecordHits counts the joins over a registered build side that
	// probed a kept table; BuildRecordMisses those that built their own.
	BuildRecordBytes  int64 `json:"build_record_bytes"`
	BuildRecordHits   int64 `json:"build_record_hits"`
	BuildRecordMisses int64 `json:"build_record_misses"`
}

// Catalog is a named set of resident slices, safe for concurrent use.
type Catalog struct {
	mu sync.Mutex
	// zc accounts the resident slices against the zero-copy capacity;
	// queries still run their own per-run footprint accounting (the
	// transient join structures), see DESIGN.md.
	zc      *mem.ZeroCopy
	entries map[string]*Entry

	registered, dropped int64
	peakBytes           int64
	// records is the share of zc.Used() the entries' build records and
	// pilots hold; hits and misses count the joins that found a record
	// under their key and those that built their own.
	records, hits, misses int64
}

// DefaultCapacity is the zero-copy capacity New selects when none is
// configured: the A8-3870K's 512 MB device-addressable region. Exported so
// the service can derive its partitions' spill budgets from the same
// default.
const DefaultCapacity int64 = 512 << 20

// New returns an empty catalog whose resident slices may occupy up to
// capacityBytes of zero-copy space; capacity <= 0 selects DefaultCapacity.
func New(capacityBytes int64) *Catalog {
	zc := mem.NewZeroCopy()
	if capacityBytes > 0 {
		zc.Capacity = capacityBytes
	}
	return &Catalog{zc: zc, entries: make(map[string]*Entry)}
}

// makeRoom evicts the build records and pilots no query reads — their
// entries are unpinned — when n more bytes would not fit the budget; with
// whole set, only when that makes all n bytes fit. c.mu is held.
func (c *Catalog) makeRoom(n int64, whole bool) {
	over := c.zc.Used() + n - c.zc.Capacity
	if over <= 0 {
		return
	}
	var idle []*Entry
	//apulint:ignore detmaporder(every unpinned entry's record and pilot is evicted, or none is; the freed bytes and what is left are the same whatever order the entries are visited in)
	for _, e := range c.entries {
		if b := e.keptBytes(); e.pins == 0 && b > 0 {
			idle = append(idle, e)
			over -= b
		}
	}
	if !whole || over <= 0 {
		for _, e := range idle {
			c.freeKept(e)
		}
	}
}

// charge takes bytes of the budget for the record or pilot an entry's
// empty slot keeps, when the budget takes them, and reports whether it did.
// c.mu is held.
func (c *Catalog) charge(bytes int64, empty bool) bool {
	if !empty || c.zc.Alloc(bytes) != nil {
		return false
	}
	c.records += bytes
	c.peakBytes = max(c.peakBytes, c.zc.Used())
	return true
}

// keptBytes is what e's build record and pilot hold of the budget. c.mu is
// held.
func (e *Entry) keptBytes() int64 {
	var b int64
	if e.rec != nil {
		b += e.rec.Bytes()
	}
	if e.pilot != nil {
		b += e.pilot.Bytes()
	}
	return b
}

// freeKept releases e's build record and pilot, if it holds them, and
// hands their bytes back to the budget. c.mu is held, and no query reads
// either.
func (c *Catalog) freeKept(e *Entry) {
	b := e.keptBytes()
	c.zc.Free(b)
	c.records -= b
	if e.rec != nil {
		e.rec.Release()
	}
	if e.pilot != nil {
		e.pilot.Release()
	}
	e.rec, e.pilot = nil, nil
}

// Load stores a slice under name, beside counts: the key → multiplicity
// table of the relation the slice was split from (IngestStats.Counts), or
// the empty table. A split by key keeps every key's tuples together, so the
// table is exact for every key the slice holds, and a query that pins the
// slice reads the table of exactly these tuples, whatever registers under
// the name later. The key column and the table are retained, not copied;
// the caller must not mutate them afterwards. When the slice does not fit,
// the build records no query reads are evicted if that makes it fit; a load
// that cannot fit evicts nothing.
func (c *Catalog) Load(name string, r rel.Relation, counts rel.Counts) error {
	if name == "" {
		return fmt.Errorf("catalog: empty relation name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	c.makeRoom(r.Bytes(), true)
	if err := c.zc.Alloc(r.Bytes()); err != nil {
		return fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrNoSpace, name, r.Bytes(), c.zc.Used(), c.zc.Capacity)
	}
	c.entries[name] = &Entry{c: c, rel: r, counts: counts}
	c.registered++
	c.peakBytes = max(c.peakBytes, c.zc.Used())
	return nil
}

// ReserveTransient charges up to bytes of a pipeline intermediate against
// the resident zero-copy budget without storing anything, and returns the
// amount actually charged — possibly zero. It never fails: whether an
// intermediate is held or spilled was decided before it was produced,
// against the pipeline's budget share, so what does not fit right now
// (another pipeline holds the rest, or the spill path's irreducible working
// set overdraws) is an overdraft reported through the caller's own demand
// gauge, never an error. Build records no query reads are evicted first
// when the bytes would not fit. The caller must hand the returned amount —
// not its demand — back to Unreserve.
func (c *Catalog) ReserveTransient(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.makeRoom(bytes, false)
	if free := c.zc.Capacity - c.zc.Used(); free < bytes {
		bytes = free
	}
	if bytes <= 0 || c.zc.Alloc(bytes) != nil {
		return 0
	}
	c.peakBytes = max(c.peakBytes, c.zc.Used())
	return bytes
}

// Unreserve returns bytes charged by ReserveTransient to the resident
// budget.
func (c *Catalog) Unreserve(bytes int64) {
	if bytes <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.zc.Free(bytes)
}

// Acquire resolves a name to its entry and takes one pin; the caller must
// Release when the query finishes. Pins keep a dropped entry's data alive
// until the last in-flight query completes.
func (c *Catalog) Acquire(name string) (*Entry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e.pins++
	return e, nil
}

// Pins returns the pins currently held on name's entry (0 when absent).
func (c *Catalog) Pins(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[name]; ok {
		return e.pins
	}
	return 0
}

// Drop removes a slice: the name is unbound immediately, so new queries
// cannot resolve it, while queries already pinning the entry keep their
// data; the zero-copy bytes are released when the last pin drains
// (immediately when none are held). It returns the slice's bytes.
func (c *Catalog) Drop(name string) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.entries, name)
	c.dropped++
	if e.pins == 0 {
		c.zc.Free(e.rel.Bytes())
		c.freeKept(e)
	} else {
		e.dropped = true
	}
	return e.rel.Bytes(), nil
}

// Stats snapshots the store's gauges.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Relations:  len(c.entries),
		Bytes:      c.zc.Used() - c.records,
		Capacity:   c.zc.Capacity,
		PeakBytes:  c.peakBytes,
		Registered: c.registered,
		Dropped:    c.dropped,

		BuildRecordBytes:  c.records,
		BuildRecordHits:   c.hits,
		BuildRecordMisses: c.misses,
	}
}
