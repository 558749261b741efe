// Package catalog is the relation catalog of the engine and service
// layers: relations are registered once — generated from a spec or
// bulk-loaded — charged against a resident zero-copy buffer (the paper's
// schemes assume the relations already live in the region both devices
// address, Sec. 4), measured for their workload statistics at ingest, and
// referenced by name from any number of queries afterwards.
//
// Ingest measures what the planner's fingerprint would otherwise measure
// per query: a strided key sample, its heavy-hitter (skew) bucket, and a
// sorted key index for O(log n) membership. Catalog.Workload folds the
// probe's stored sample against the build's stored index, so a
// catalog-referenced auto query fingerprints without reading either
// relation — and lands in the same plan-cache slot as the identical
// inline query, because the sampling arithmetic is shared (plan.
// WorkloadSample, rel.Relation.KeySample).
//
// Deletion is refcounted: Drop unbinds the name immediately (no new query
// can resolve it) while in-flight queries keep their pins; the zero-copy
// bytes are released when the last pin drains.
package catalog

import (
	"errors"
	"fmt"
	"sort"
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

// Source identifies how a relation entered the catalog.
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

// Entry is one resident relation. Entries are immutable after
// registration; only the pin count and drop flag change, both guarded by
// the owning catalog's mutex.
type Entry struct {
	c   *Catalog
	rel rel.Relation

	name    string
	source  Source
	created time.Time

	// Generation provenance (Generated and Probe sources).
	gen     rel.Gen
	probeOf string
	sel     float64

	// stats are the ingest-time statistics, measured once at registration.
	stats IngestStats

	// Mutable, guarded by c.mu.
	pins    int
	dropped bool
	joins   int64
}

// Name returns the registered name.
func (e *Entry) Name() string { return e.name }

// Relation returns the resident relation. The columns are shared, not
// copied; callers must treat them as read-only.
func (e *Entry) Relation() rel.Relation { return e.rel }

// SkewBucket returns the ingest-time skew bucket (0 uniform, 1 ≈ s=10,
// 2 ≈ s=25), identical to what plan.MeasureWorkload would classify.
func (e *Entry) SkewBucket() int { return e.stats.SkewBucket }

// HeavyShare returns the heaviest key's share of the ingest-time sample —
// the raw number behind SkewBucket, which the pipeline orderer uses to
// estimate heavy-key collision blowup between two skewed relations.
func (e *Entry) HeavyShare() float64 { return e.stats.HeavyShare }

// Release drops one pin taken by Catalog.Acquire. When the entry was
// dropped and this was the last pin, the resident zero-copy bytes are
// released. Release is safe to call from query-completion paths running
// concurrently with Drop.
func (e *Entry) Release() {
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

// Info is the JSON-friendly snapshot of one catalog entry.
type Info struct {
	Name   string `json:"name"`
	Tuples int    `json:"tuples"`
	Bytes  int64  `json:"bytes"`
	Source Source `json:"source"`

	// Generation provenance, when the catalog built the data itself.
	Dist        string  `json:"dist,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
	KeyRange    int     `json:"key_range,omitempty"`
	ProbeOf     string  `json:"probe_of,omitempty"`
	Selectivity float64 `json:"selectivity,omitempty"`

	// Ingest-time statistics the planner fingerprints reuse.
	SkewBucket int     `json:"skew_bucket"`
	HeavyShare float64 `json:"heavy_share"`

	// Pins counts in-flight queries referencing the relation; Joins counts
	// every acquisition over the entry's lifetime.
	Pins  int   `json:"pins"`
	Joins int64 `json:"joins"`

	Created time.Time `json:"created"`
}

func (e *Entry) infoLocked() Info {
	info := Info{
		Name:       e.name,
		Tuples:     e.rel.Len(),
		Bytes:      e.rel.Bytes(),
		Source:     e.source,
		SkewBucket: e.stats.SkewBucket,
		HeavyShare: e.stats.HeavyShare,
		Pins:       e.pins,
		Joins:      e.joins,
		Created:    e.created,
	}
	if e.source != Loaded {
		info.Dist = e.gen.Dist.String()
		info.Seed = e.gen.Seed
		info.KeyRange = e.gen.KeyRange
	}
	if e.source == Probe {
		info.ProbeOf = e.probeOf
		info.Selectivity = e.sel
	}
	return info
}

// Stats is the catalog's metrics surface.
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

// pairKey identifies a memoized (build, probe) workload.
type pairKey struct{ r, s string }

// Catalog is a named set of resident relations, safe for concurrent use.
type Catalog struct {
	mu sync.Mutex
	// zc accounts the resident relations against the zero-copy capacity;
	// queries still run their own per-run footprint accounting (the
	// transient join structures), see DESIGN.md.
	zc        *mem.ZeroCopy
	entries   map[string]*Entry
	workloads map[pairKey]plan.Workload

	registered, dropped, reuses int64
	peakBytes                   int64
}

// DefaultCapacity is the zero-copy capacity New selects when none is
// configured: the A8-3870K's 512 MB device-addressable region. Exported so
// the sharded service can split the same default across per-shard budgets.
const DefaultCapacity int64 = 512 << 20

// New returns an empty catalog whose resident relations may occupy up to
// capacityBytes of zero-copy space; capacity <= 0 selects DefaultCapacity.
func New(capacityBytes int64) *Catalog {
	zc := mem.NewZeroCopy()
	if capacityBytes > 0 {
		zc.Capacity = capacityBytes
	}
	return &Catalog{
		zc:        zc,
		entries:   make(map[string]*Entry),
		workloads: make(map[pairKey]plan.Workload),
	}
}

// RegisterGen generates and registers a build relation from a spec (keys a
// permutation of [1, KeyRange] — the primary-key side of a join).
func (c *Catalog) RegisterGen(name string, g rel.Gen) (Info, error) {
	if err := c.precheck(name, g.N); err != nil {
		return Info{}, err
	}
	e := &Entry{name: name, source: Generated, gen: g, rel: g.Build()}
	return c.insert(e)
}

// RegisterProbe generates and registers a probe relation against the
// registered build relation of — the fraction selectivity of its tuples
// carry a key present in the build side. The generation is exactly
// g.Probe(build, selectivity), so a catalog probe is bit-identical to the
// inline generation with the same spec.
func (c *Catalog) RegisterProbe(name, of string, g rel.Gen, selectivity float64) (Info, error) {
	if err := c.precheck(name, g.N); err != nil {
		return Info{}, err
	}
	if selectivity < 0 || selectivity > 1 {
		return Info{}, fmt.Errorf("catalog: selectivity %v out of [0,1]", selectivity)
	}
	build, err := c.Acquire(of)
	if err != nil {
		return Info{}, fmt.Errorf("catalog: probe_of %q: %w", of, err)
	}
	defer build.Release()
	e := &Entry{
		name: name, source: Probe, gen: g, probeOf: of, sel: selectivity,
		rel: g.Probe(build.Relation(), selectivity),
	}
	return c.insert(e)
}

// Load registers an existing relation (bulk load). The columns are
// retained, not copied; the caller must not mutate them afterwards.
func (c *Catalog) Load(name string, r rel.Relation) (Info, error) {
	if err := c.precheck(name, r.Len()); err != nil {
		return Info{}, err
	}
	if err := r.Validate(); err != nil {
		return Info{}, fmt.Errorf("catalog: %w", err)
	}
	e := &Entry{name: name, source: Loaded, rel: r}
	return c.insert(e)
}

// precheck fails fast on an obviously invalid registration before the
// generation or measurement work; insert re-checks under the lock.
func (c *Catalog) precheck(name string, n int) error {
	if name == "" {
		return fmt.Errorf("catalog: empty relation name")
	}
	if n < 0 {
		return fmt.Errorf("catalog: negative relation size %d", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	if !c.zc.Fits(int64(n) * 8) {
		return fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrNoSpace, name, int64(n)*8, c.zc.Used(), c.zc.Capacity)
	}
	return nil
}

// insert measures the ingest-time statistics and publishes the entry.
func (c *Catalog) insert(e *Entry) (Info, error) {
	// Measurement runs outside the lock.
	e.stats = Measure(e.rel)
	//apulint:ignore wallclock(registration wall-time is reporting metadata surfaced in Info; it never enters a simulated quantity)
	e.created = time.Now()
	e.c = c

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[e.name]; ok {
		return Info{}, fmt.Errorf("%w: %q", ErrExists, e.name)
	}
	if err := c.zc.Alloc(e.rel.Bytes()); err != nil {
		return Info{}, fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrNoSpace, e.name, e.rel.Bytes(), c.zc.Used(), c.zc.Capacity)
	}
	c.entries[e.name] = e
	c.registered++
	if c.zc.Used() > c.peakBytes {
		c.peakBytes = c.zc.Used()
	}
	return e.infoLocked(), nil
}

// IngestStats are the workload statistics measured once when a relation
// is registered: the strided key sample, its skew bucket and heaviest key's
// share, and the sorted key index for membership tests. The sharded router
// keeps the same statistics for the relations it splits across shard
// catalogs, so sharded and unsharded pair workloads land in the same
// plan-cache buckets.
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

// Reserve charges bytes of transient pipeline data against the resident
// zero-copy budget without registering anything: the streamed pipeline
// path holds its one in-flight intermediate through Reserve instead of
// Load, so an intermediate the budget cannot hold is detected (ErrNoSpace)
// before anything is allocated, measured, indexed, named or pinned — the
// pipeline then spills. The caller returns the bytes with Unreserve
// when the consumer step has finished with them.
func (c *Catalog) Reserve(bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("catalog: negative reservation of %d bytes", bytes)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.zc.Alloc(bytes); err != nil {
		return fmt.Errorf("%w: %d transient bytes, %d of %d in use",
			ErrNoSpace, bytes, c.zc.Used(), c.zc.Capacity)
	}
	if c.zc.Used() > c.peakBytes {
		c.peakBytes = c.zc.Used()
	}
	return nil
}

// ReserveTransient charges up to bytes of transient spill working memory
// and returns the amount actually charged — possibly zero. Unlike Reserve
// it never fails: the spill path's irreducible working set (a single
// probe chunk's intermediate, or one heavy key's matches) must
// materialize even when it exceeds the remaining headroom, so the excess
// becomes an overdraft reported through the spiller's own peak gauge
// rather than an error. The caller must hand the returned amount — not
// its demand — back to Unreserve.
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

// Headroom returns the unused resident budget — the largest reservation
// that could succeed right now. The hybrid-hash spill path sizes its
// residency budget with it when a Reserve has just failed: whatever fits
// stays resident, the rest goes through the simulated spill store.
func (c *Catalog) Headroom() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.zc.Capacity - c.zc.Used()
}

// Unreserve returns bytes taken by Reserve to the resident budget.
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
	e.joins++
	return e, nil
}

// Get snapshots one entry's Info.
func (c *Catalog) Get(name string) (Info, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return Info{}, false
	}
	return e.infoLocked(), true
}

// Relation returns the resident relation registered under name.
func (c *Catalog) Relation(name string) (rel.Relation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return rel.Relation{}, false
	}
	return e.rel, true
}

// List snapshots every entry, sorted by name.
func (c *Catalog) List() []Info {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Info, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e.infoLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Drop unregisters a relation: the name is unbound immediately, so new
// queries cannot resolve it, while queries already pinning the entry keep
// their data; the zero-copy bytes are released when the last pin drains
// (immediately when none are held). The returned Info reports the pins
// still outstanding.
func (c *Catalog) Drop(name string) (Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(c.entries, name)
	c.dropped++
	// A later registration under the same name must not inherit this
	// entry's memoized pair workloads.
	//apulint:ignore detmaporder(invalidation deletes a key set; the surviving map contents are the same whatever order the keys are visited in)
	for k := range c.workloads {
		if k.r == name || k.s == name {
			delete(c.workloads, k)
		}
	}
	info := e.infoLocked()
	if e.pins == 0 {
		c.zc.Free(e.rel.Bytes())
	} else {
		e.dropped = true
	}
	return info, nil
}

// Workload returns the planner workload buckets of the pair (build r,
// probe s) from the ingest-time statistics — the probe's stored key sample
// against the build's sorted key index — without scanning either relation.
// The result is memoized per pair and equals plan.MeasureWorkload on the
// same relations, so catalog-referenced and inline queries share
// plan-cache entries.
func (c *Catalog) Workload(r, s *Entry) plan.Workload {
	if r.rel.Len() == 0 || s.rel.Len() == 0 {
		return plan.Workload{}
	}
	key := pairKey{r: r.name, s: s.name}
	c.mu.Lock()
	if w, ok := c.workloads[key]; ok {
		c.reuses++
		c.mu.Unlock()
		return w
	}
	c.mu.Unlock()

	w := plan.PairWorkload(s.stats.Sample, s.stats.SkewBucket, r.stats.Index.Contains)

	c.mu.Lock()
	// Only memoize while both names still resolve to these entries: a
	// concurrent Drop must not be overwritten by a stale pair.
	if c.entries[r.name] == r && c.entries[s.name] == s {
		c.workloads[key] = w
	}
	c.mu.Unlock()
	return w
}

// Stats snapshots the catalog counters.
func (c *Catalog) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Relations:      len(c.entries),
		Bytes:          c.zc.Used(),
		Capacity:       c.zc.Capacity,
		PeakBytes:      c.peakBytes,
		Registered:     c.registered,
		Dropped:        c.dropped,
		WorkloadReuses: c.reuses,
	}
}
