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
// bytes are released when the last pin drains.
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
	"errors"
	"fmt"
	"sync"
	"time"

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
// therefore keeps 16–32 B per tuple beside its own 8, where the sorted key
// index this table replaced kept 4; a probe side with repeated keys keeps
// less. The table is not charged to the catalog budget, so the budget
// bounds the relations' columns, not the memory their registration holds —
// on a router with no local backend too, which keeps the table only for
// membership tests. It is never handed back to the recycler: the router
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
// pin count and drop flag change, both guarded by the owning catalog's
// mutex.
type Entry struct {
	c      *Catalog
	rel    rel.Relation
	counts rel.Counts

	// Mutable, guarded by c.mu.
	pins    int
	dropped bool
}

// Relation returns the resident slice. The columns are shared, not copied;
// callers must treat them as read-only.
func (e *Entry) Relation() rel.Relation { return e.rel }

// Counts returns the count table stored beside the slice (Load): shared,
// read-only, and never released through the entry.
func (e *Entry) Counts() rel.Counts { return e.counts }

// Scratch pins a relation no catalog holds: one query's split of an inline
// relation, whose columns are recycler slabs. Its one Release hands them
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
		e.dropped = false // free exactly once
	}
}

// Stats is the catalog metrics surface of the service: a store fills the
// physical gauges, the router the logical ones (relations counted once,
// WorkloadReuses).
type Stats struct {
	Relations int   `json:"relations"`
	Bytes     int64 `json:"bytes"`
	Capacity  int64 `json:"capacity_bytes"`

	// PeakBytes is the high-water mark of the resident zero-copy buffer
	// over the catalog's lifetime — registered relations plus transient
	// pipeline reservations. It is what a real coupled-architecture
	// deployment would have to provision.
	PeakBytes int64 `json:"peak_bytes"`

	Registered int64 `json:"registered"`
	Dropped    int64 `json:"dropped"`
	// WorkloadReuses counts pair-workload lookups served from the
	// ingest-time statistics without re-measuring either relation.
	WorkloadReuses int64 `json:"workload_reuses"`
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
}

// DefaultCapacity is the zero-copy capacity New selects when none is
// configured: the A8-3870K's 512 MB device-addressable region. Exported so
// the service can split the same default across per-shard budgets.
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

// Load stores a slice under name, beside counts: the key → multiplicity
// table of the relation the slice was split from (IngestStats.Counts), or
// the empty table. A split by key keeps every key's tuples together, so the
// table is exact for every key the slice holds, and a query that pins the
// slice reads the table of exactly these tuples, whatever registers under
// the name later. The columns and the table are retained, not copied; the
// caller must not mutate them afterwards.
func (c *Catalog) Load(name string, r rel.Relation, counts rel.Counts) error {
	if name == "" {
		return fmt.Errorf("catalog: empty relation name")
	}
	if err := r.Validate(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if err := c.zc.Alloc(r.Bytes()); err != nil {
		return fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrNoSpace, name, r.Bytes(), c.zc.Used(), c.zc.Capacity)
	}
	c.entries[name] = &Entry{c: c, rel: r, counts: counts}
	c.registered++
	if c.zc.Used() > c.peakBytes {
		c.peakBytes = c.zc.Used()
	}
	return nil
}

// ReserveTransient charges up to bytes of a pipeline intermediate against
// the resident zero-copy budget without storing anything, and returns the
// amount actually charged — possibly zero. It never fails: whether an
// intermediate is held or spilled was decided before it was produced,
// against the pipeline's budget share, so what does not fit right now
// (another pipeline holds the rest, or the spill path's irreducible working
// set overdraws) is an overdraft reported through the caller's own demand
// gauge, never an error. The caller must hand the returned amount — not its
// demand — back to Unreserve.
func (c *Catalog) ReserveTransient(bytes int64) int64 {
	if bytes <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if free := c.zc.Capacity - c.zc.Used(); free < bytes {
		bytes = free
	}
	if bytes <= 0 || c.zc.Alloc(bytes) != nil {
		return 0
	}
	if c.zc.Used() > c.peakBytes {
		c.peakBytes = c.zc.Used()
	}
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
		Bytes:      c.zc.Used(),
		Capacity:   c.zc.Capacity,
		PeakBytes:  c.peakBytes,
		Registered: c.registered,
		Dropped:    c.dropped,
	}
}
