// Package catalog is the resident store under the service's router: a
// budgeted, pinned, named set of relation slices. The router owns every
// logical fact about a relation — its name, provenance, ingest statistics
// and pair workloads — and hands a backend the slices to keep; a Catalog
// keeps them, charged against a resident zero-copy buffer (the paper's
// schemes assume the relations already live in the region both devices
// address, Sec. 4), and lends the same budget to a pipeline's transient
// intermediates (ReserveTransient, Unreserve). Slices are stored as given:
// nothing is copied, measured or indexed here.
//
// Deletion is refcounted: Drop unbinds the name immediately (no new query
// can resolve it) while in-flight queries keep their pins; the zero-copy
// bytes are released when the last pin drains.
//
// The package also holds what the router records about a relation — Info,
// Source, and the ingest statistics (Measure, IngestStats) the planner's
// fingerprint would otherwise measure per query: a strided key sample, its
// heavy-hitter (skew) bucket, and a sorted key index for O(log n)
// membership. plan.PairWorkload folds a probe's sample against a build's
// index, so a registered pair fingerprints without reading either relation
// — and lands in the same plan-cache slot as the identical inline query,
// because the sampling arithmetic is shared (plan.WorkloadSample,
// rel.Relation.KeySample).
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
// share, and the sorted key index for membership tests — always of the
// whole relation, whatever grid its slices are stored on, so every engine
// shape lands a pair workload in the same plan-cache bucket.
type IngestStats struct {
	Sample     []int32
	Index      rel.KeyIndex
	SkewBucket int
	HeavyShare float64
}

// Measure computes a relation's ingest statistics. Sampling is cheap; the
// key index sort is O(n log n).
func Measure(r rel.Relation) IngestStats {
	sample := r.KeySample(plan.WorkloadSample)
	share := plan.HeavyShare(sample)
	return IngestStats{
		Sample:     sample,
		Index:      r.Index(),
		SkewBucket: plan.SkewBucketOf(share),
		HeavyShare: share,
	}
}

// Entry is one resident slice. Entries are immutable after Load; only the
// pin count and drop flag change, both guarded by the owning catalog's
// mutex.
type Entry struct {
	c   *Catalog
	rel rel.Relation

	// Mutable, guarded by c.mu.
	pins    int
	dropped bool
}

// Relation returns the resident slice. The columns are shared, not copied;
// callers must treat them as read-only.
func (e *Entry) Relation() rel.Relation { return e.rel }

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

// Load stores a slice under name. The columns are retained, not copied;
// the caller must not mutate them afterwards.
func (c *Catalog) Load(name string, r rel.Relation) error {
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
	c.entries[name] = &Entry{c: c, rel: r}
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
