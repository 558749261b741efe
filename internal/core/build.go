package core

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"apujoin/internal/alloc"
	"apujoin/internal/device"
	"apujoin/internal/htab"
	"apujoin/internal/mem"
	"apujoin/internal/rel"
	"apujoin/internal/sched"
)

// choice is one series' ratios, chosen before it runs, with the model's
// estimate at them; BasicUnit chooses nothing (its shares come out of the
// run).
type choice struct {
	ratios sched.Ratios
	est    float64
}

// buildConfig is everything the build side reads besides r and the ratios
// applied to it: a record built under one config serves only runs under
// the same one.
type buildConfig struct {
	algo                       Algo
	scheme                     Scheme
	arch                       Arch
	separate, grouping         bool
	groups, cpuChunk, gpuChunk int
	alloc                      alloc.Config
	hashShift                  uint
	radixTargetBytes           int64
	cpu, gpu                   device.Profile
	cache                      mem.CacheModel
}

func configOf(opt *Options) buildConfig {
	return buildConfig{algo: opt.Algo, scheme: opt.Scheme, arch: opt.Arch, separate: opt.SeparateTables,
		grouping: opt.Grouping, groups: opt.Groups, cpuChunk: opt.CPUChunk, gpuChunk: opt.GPUChunk,
		alloc: opt.Alloc, hashShift: opt.hashShift, radixTargetBytes: opt.RadixTargetBytes,
		cpu: opt.CPU, gpu: opt.GPU, cache: opt.Cache}
}

// buildKey is what a record serves: the configuration and the ratios
// applied to r's passes and to the build.
type buildKey struct {
	cfg    buildConfig
	passes []choice
	build  sched.Ratios
}

func (k *buildKey) equal(o *buildKey) bool {
	return k.cfg == o.cfg && slices.Equal(k.build, o.build) &&
		slices.EqualFunc(k.passes, o.passes, func(a, b choice) bool { return slices.Equal(a.ratios, b.ratios) })
}

// buildRecord is one executed build side: r's radix passes, the build
// phase, the merge of separate tables (or the swap to a GPU-built one) and
// the discrete build transfer. It holds the table the probe reads, with its
// arena, and every value those steps add to a Result, in the order they add
// it: part holds r's partition terms (folded into a Result before s's
// passes), terms the build terms (folded after them), then pcie, the
// discrete transfer that follows the build phase. A run folds a record the
// same way whether it just built it or found it in a slot, so a warm run's
// Result is the cold run's, bit for bit.
type buildRecord struct {
	key buildKey

	table *htab.Table
	arena *alloc.Arena

	part, terms Result
	pcie        float64
	tableBytes  int64 // the table's resident size, the probe's working set
	alloc       alloc.Stats
}

// fold adds the partial result p to res term by term. Every field of res it
// touches is either still zero, so the sum is p's own, or receives a single
// addend here, exactly as the steps that produced p would have added it.
func fold(res, p *Result) {
	res.PartitionNS += p.PartitionNS
	res.BuildNS += p.BuildNS
	res.MergeNS += p.MergeNS
	res.TransferNS += p.TransferNS
	res.Steps = append(res.Steps, p.Steps...)
	res.Cache.Accesses += p.Cache.Accesses
	res.Cache.Misses += p.Cache.Misses
	res.Ratios.Partition = append(res.Ratios.Partition, p.Ratios.Partition...)
	if p.Ratios.Build != nil {
		res.Ratios.Build = p.Ratios.Build
	}
	res.BasicUnitShares = append(res.BasicUnitShares, p.BasicUnitShares...)
}

// bytes is what the record keeps resident: the table's bucket headers and
// its node arena.
func (rec *buildRecord) bytes() int64 {
	return int64(len(rec.table.Count)+len(rec.table.Head)+len(rec.arena.Words())) * alloc.WordBytes
}

// release hands the table's slabs back to the recycler. A record in no
// slot is released by the run that built it.
func (rec *buildRecord) release() {
	rec.table.Release()
	rec.arena.Release()
}

// buildSide runs the build side under the ratios its key holds: r's radix
// passes (PHJ), then — but for PHJ-PL', which builds no shared table — the
// table(s), the build phase, the discrete build transfer, and the swap to
// a GPU-built table or the merge of separate ones. It records into rec,
// empty, what a run adds to its Result, in order. r's partitioned columns
// stay on the runner (PHJ-PL' joins from them); the probe's table and its
// arena move to the record, and the runner frees the rest.
func (rn *runner) buildSide(rec *buildRecord, exec *sched.Exec) error {
	opt := rn.opt
	if opt.Algo == PHJ {
		if err := rn.partitionSide(&rec.part, exec, rec.key.passes, true); err != nil {
			return err
		}
	}
	if opt.Scheme == CoarsePL {
		return nil
	}
	rn.makeTables()
	defer rn.releaseTables()
	// Grouped execution reorders tuples by workload hint, and both the hint
	// values and the grouped processing order are only meaningful on a
	// single stream; the build and probe series therefore run serially when
	// the grouping optimization is enabled (the partition passes still
	// parallelize).
	bexec := *exec
	if opt.Grouping {
		bexec.Pool = nil
	}
	b := &rec.terms
	var err error
	if b.BuildNS, b.Ratios.Build, err = rn.runPhase(b, &bexec, rn.buildSeries(), rec.key.build, "build"); err != nil {
		return err
	}
	if opt.Scheme == BasicUnit {
		b.BasicUnitShares = append(b.BasicUnitShares, b.Ratios.Build[0])
	}

	// Phase-granular PCI-e traffic on the discrete architecture: ship the
	// GPU's input share over and its partial hash table back.
	if opt.Arch == Discrete {
		pcie := mem.NewPCIe()
		gpuShare := 1 - avgRatio(b.Ratios.Build)
		in := pcie.TransferNS(int64(gpuShare * float64(rn.r.Bytes())))
		back := pcie.TransferNS(int64(gpuShare * float64(rn.env.tableBytes)))
		rec.pcie = in + back
	}

	// A build that ran entirely on the GPU leaves the complete table on
	// the GPU side; probing continues there and no merge is needed (OL on
	// the discrete architecture has only the transfer overhead, Sec. 5.2).
	if rn.tableGPU != nil && avgRatio(b.Ratios.Build) == 0 {
		rn.table.Release()
		rn.table, rn.tableGPU = rn.tableGPU, nil
	}
	// Merge the per-device tables (inherent to DD with separate tables).
	if rn.tableGPU != nil && rn.tableGPU.NumKeys() > 0 {
		acct := rn.table.Merge(rn.tableGPU)
		b.MergeNS = rn.cpu.TimeNS(acct, rn.env.envFor(sched.B3, rn.cpu))
	}
	rec.tableBytes = rn.table.BytesResident()
	rec.alloc = rn.arena.Stats()
	if rn.arenaGPU != nil {
		rec.alloc.Add(rn.arenaGPU.Stats())
	}
	rec.table, rec.arena = rn.table, rn.table.Arena()
	rn.table = nil
	if rec.arena == rn.arena {
		rn.arena = nil
	} else {
		rn.arenaGPU = nil
	}
	return nil
}

// Records is what the build slots of one owner — a catalog — share: the
// budget their records are charged to, and the counts of their lookups.
type Records struct {
	// Charge reserves a record's bytes, all or nothing: a record that does
	// not fit is not kept, and its run frees it. Uncharge hands back a
	// charge the slot did not keep. Neither is called under a slot's lock.
	Charge   func(bytes int64) bool
	Uncharge func(bytes int64)
	// Hits counts the runs that probed a kept table; Misses those that
	// found none under their key and built their own.
	Hits, Misses atomic.Int64
}

// BuildSlot keeps at most one build record for a registered build side:
// the catalog entry of a relation slice holds one, and a run handed it
// (BuildSlot.Run) probes a table built under the same configuration and
// ratios instead of building its own. The first record published — and
// charged to the owner's budget — wins; a run under another key builds and
// frees its own. Free releases the record when the entry's last pin drains
// — the pins that protect the columns protect the table too — and refuses
// any later one; Evict releases it only. Concurrent runs only read a
// published table.
type BuildSlot struct {
	owner *Records

	mu       sync.Mutex
	rec      *buildRecord
	charging bool // a run is charging its record; the others keep theirs
	freed    bool
}

// NewBuildSlot returns an empty slot of owner's.
func NewBuildSlot(owner *Records) *BuildSlot { return &BuildSlot{owner: owner} }

// Run is RunCtx over the build side the slot belongs to; a nil slot runs
// uncached.
func (slot *BuildSlot) Run(ctx context.Context, r, s rel.Relation, opt Options) (*Result, error) {
	return runCtx(ctx, r, s, opt, slot)
}

// lookup returns the published record when it serves key.
func (s *BuildSlot) lookup(key *buildKey) *buildRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	rec := s.rec
	s.mu.Unlock()
	if rec == nil || !rec.key.equal(key) {
		s.owner.Misses.Add(1)
		return nil
	}
	s.owner.Hits.Add(1)
	return rec
}

// publish offers the slot a copy of rec. The slot takes it when it holds
// no record, no other run is charging one, it was not freed and the owner's
// budget takes the record's bytes; the caller keeps — and releases — a
// record the slot refuses.
func (s *BuildSlot) publish(rec *buildRecord) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	claim := s.rec == nil && !s.charging && !s.freed
	s.charging = claim
	s.mu.Unlock()
	if !claim {
		return false
	}
	n := rec.bytes()
	charged := s.owner.Charge(n)
	s.mu.Lock()
	s.charging = false
	kept := charged && !s.freed
	if kept {
		own := *rec
		s.rec = &own
	}
	s.mu.Unlock()
	if charged && !kept {
		s.owner.Uncharge(n)
	}
	return kept
}

// Free releases the slot's record and refuses every later one; Evict
// releases it only. Both return the bytes the record kept, for the caller
// to hand back to the owner's budget, and the caller guarantees no run
// still reads it.
func (s *BuildSlot) Free() int64  { return s.take(true) }
func (s *BuildSlot) Evict() int64 { return s.take(false) }

func (s *BuildSlot) take(free bool) int64 {
	s.mu.Lock()
	rec := s.rec
	s.rec = nil
	s.freed = s.freed || free
	s.mu.Unlock()
	if rec == nil {
		return 0
	}
	n := rec.bytes()
	rec.release()
	return n
}
