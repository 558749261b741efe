// Command apujoin runs a single co-processed hash join and reports the
// result: exact matches, simulated phase breakdown, chosen ratios, cost
// model estimate, cache and allocator statistics.
//
// The CLI drives the library the way an application would: it starts an
// Engine, registers the generated relations in its catalog, and joins
// them by handle.
//
// Example:
//
//	apujoin -algo phj -scheme pl -r 1048576 -s 4194304 -sel 0.5 -skew high
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"apujoin"
	"apujoin/internal/alloc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apujoin:", err)
		os.Exit(1)
	}
}

// run parses args, runs the join or pipeline they describe and writes the
// report to stdout. Usage and parse errors go to stdout too.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("apujoin", flag.ContinueOnError)
	fs.SetOutput(stdout)
	algoF := fs.String("algo", "shj", "join algorithm: shj | phj | auto (planner picks algo and scheme)")
	schemeF := fs.String("scheme", "pl", "scheme: cpu | gpu | ol | dd | pl | basicunit | coarsepl; ignored with -algo auto")
	archF := fs.String("arch", "coupled", "architecture: coupled | discrete")
	nr := fs.Int("r", 1<<20, "build relation tuples")
	ns := fs.Int("s", 1<<20, "probe relation tuples")
	sel := fs.Float64("sel", 1.0, "join selectivity [0,1]")
	skew := fs.String("skew", "uniform", "data skew: uniform | low | high")
	seed := fs.Int64("seed", 42, "data generation seed")
	separate := fs.Bool("separate", false, "separate per-device hash tables")
	grouping := fs.Bool("grouping", false, "workload-divergence grouping")
	delta := fs.Float64("delta", 0.02, "ratio grid granularity δ")
	basic := fs.Bool("basic-alloc", false, "use the basic (contended) memory allocator")
	block := fs.Int("block", alloc.DefaultBlockBytes, "allocator block size (bytes)")
	workers := fs.Int("workers", 0, "host worker goroutines for the morsel runtime (0 = GOMAXPROCS); changes wall-clock only, never results or simulated times")
	pipelineF := fs.String("pipeline", "", "multi-way join pipeline: comma-separated tuple counts (e.g. 1048576,2097152,524288); the first is the build relation, the rest are probes of it with -sel and -skew; overrides -r/-s")
	declared := fs.Bool("declared-order", false, "with -pipeline, skip the cost-based join orderer and run sources as declared")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *workers < 0 {
		return fmt.Errorf("-workers %d is negative; use 0 to select GOMAXPROCS (%d on this host)",
			*workers, runtime.GOMAXPROCS(0))
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *nr <= 0 || *ns <= 0 {
		return fmt.Errorf("relation sizes must be positive (-r %d, -s %d)", *nr, *ns)
	}
	if *sel < 0 || *sel > 1 {
		return fmt.Errorf("-sel %v out of [0,1]", *sel)
	}

	opt := apujoin.Options{Delta: *delta, SeparateTables: *separate, Grouping: *grouping}
	opt.Alloc.BlockBytes = *block
	if *basic {
		opt.Alloc.Strategy = alloc.Basic
	}

	var err error
	auto := strings.EqualFold(*algoF, "auto")
	if !auto {
		if opt.Algo, err = apujoin.ParseAlgo(*algoF); err != nil {
			return err
		}
		if opt.Scheme, err = apujoin.ParseScheme(*schemeF); err != nil {
			return err
		}
	}
	if opt.Arch, err = apujoin.ParseArch(*archF); err != nil {
		return err
	}
	dist, err := apujoin.ParseDistribution(*skew)
	if err != nil {
		return err
	}

	// One engine owns the worker pool, the plan cache and the relation
	// catalog; the generated pair registers once and the join references
	// it by handle. Relations too large for the catalog's zero-copy
	// budget fall back to inline sources (the join itself then reports
	// whether it needs the external path).
	eng := apujoin.NewEngine(apujoin.Workers(*workers))
	defer eng.Close()
	ctx := context.Background()

	if *pipelineF != "" {
		return runPipeline(ctx, stdout, eng, *pipelineF, *declared, dist, *seed, *sel, opt, auto, *workers)
	}

	rg := apujoin.Gen{N: *nr, Dist: dist, Seed: *seed}
	sg := apujoin.Gen{N: *ns, Dist: dist, Seed: *seed + 1}
	rSrc, sSrc := apujoin.Ref("R"), apujoin.Ref("S")
	registered := false
	if _, err := eng.Register("R", rg); err == nil {
		if _, err := eng.RegisterProbe("S", "R", sg, *sel); err == nil {
			registered = true
		} else {
			_ = eng.Drop("R")
		}
	}
	if !registered {
		// Either side over the catalog's zero-copy budget: generate
		// inline (the join itself then reports whether it needs the
		// external path).
		r := rg.Build()
		rSrc, sSrc = apujoin.Inline(r), apujoin.Inline(sg.Probe(r, *sel))
	}

	opts := []apujoin.JoinOption{apujoin.WithOptions(opt)}
	if auto {
		opts = append(opts, apujoin.WithAuto())
	}

	hostLine := func(wall time.Duration) {
		fmt.Fprintf(stdout, "host: %v wall-clock with %d worker(s)\n", wall.Round(time.Microsecond), *workers)
	}

	start := time.Now()
	res, err := eng.Join(ctx, rSrc, sSrc, opts...)
	wall := time.Since(start)
	if errors.Is(err, apujoin.ErrExceedsZeroCopy) {
		extStart := time.Now()
		ext, eerr := eng.JoinExternal(ctx, rSrc, sSrc, opts...)
		if eerr != nil {
			return eerr
		}
		fmt.Fprintf(stdout, "external join (data > zero-copy buffer): %d matches\n", ext.Matches)
		fmt.Fprintf(stdout, "partition %.2f ms, join %.2f ms, data copy %.2f ms, total %.2f ms (%d pairs)\n",
			ext.PartitionNS/1e6, ext.JoinNS/1e6, ext.DataCopyNS/1e6, ext.TotalNS/1e6, ext.Pairs)
		hostLine(time.Since(extStart))
		return nil
	}
	if err != nil {
		return err
	}
	if auto {
		fmt.Fprintf(stdout, "auto plan: %s-%s (chosen by the planner via the shared plan cache)\n",
			res.Algo, res.Scheme)
	}

	fmt.Fprintf(stdout, "%s-%s on %s: %d ⋈ %d tuples → %d matches\n",
		res.Algo, res.Scheme, res.Arch, *nr, *ns, res.Matches)
	fmt.Fprintf(stdout, "total      %10.3f ms (estimated %.3f, lock overhead %.3f)\n",
		res.TotalNS/1e6, res.EstimatedNS/1e6, res.LockOverheadNS/1e6)
	fmt.Fprintf(stdout, "partition  %10.3f ms\nbuild      %10.3f ms\nprobe      %10.3f ms\n",
		res.PartitionNS/1e6, res.BuildNS/1e6, res.ProbeNS/1e6)
	if res.MergeNS > 0 {
		fmt.Fprintf(stdout, "merge      %10.3f ms\n", res.MergeNS/1e6)
	}
	if res.TransferNS > 0 {
		fmt.Fprintf(stdout, "PCI-e      %10.3f ms\n", res.TransferNS/1e6)
	}
	if len(res.Ratios.Partition) > 0 {
		fmt.Fprintf(stdout, "partition ratios: %v\n", res.Ratios.Partition[0])
	}
	if res.Ratios.Build != nil {
		fmt.Fprintf(stdout, "build ratios:     %v\n", res.Ratios.Build)
	}
	if res.Ratios.Probe != nil {
		fmt.Fprintf(stdout, "probe ratios:     %v\n", res.Ratios.Probe)
	}
	fmt.Fprintf(stdout, "L2: %d accesses, %d misses (%.0f%%)\n",
		res.Cache.Accesses, res.Cache.Misses, res.Cache.MissRatio()*100)
	fmt.Fprintf(stdout, "allocator: %d allocs, %d global atomics, %d local ops\n",
		res.AllocStats.Allocs, res.AllocStats.GlobalAtomics, res.AllocStats.LocalOps)
	hostLine(wall)
	return nil
}

// runPipeline drives a multi-way join pipeline: the first size generates
// the build relation, every later size a probe of it, all registered in
// the engine's catalog (so the cost-based orderer has ingest statistics)
// with an inline fallback when the catalog budget is too small.
func runPipeline(ctx context.Context, stdout io.Writer, eng *apujoin.Engine, sizes string, declared bool,
	dist apujoin.Distribution, seed int64, sel float64, opt apujoin.Options, auto bool, workers int) error {
	var gens []apujoin.Gen
	for i, f := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return fmt.Errorf("-pipeline element %d (%q) is not a positive tuple count", i+1, f)
		}
		gens = append(gens, apujoin.Gen{N: n, Dist: dist, Seed: seed + int64(i)})
	}
	if len(gens) < 2 {
		return fmt.Errorf("-pipeline needs at least 2 comma-separated sizes (got %d)", len(gens))
	}

	sources := make([]apujoin.Source, len(gens))
	registered := true
	for i, g := range gens {
		name := fmt.Sprintf("rel%d", i)
		var err error
		if i == 0 {
			_, err = eng.Register(name, g)
		} else {
			_, err = eng.RegisterProbe(name, "rel0", g, sel)
		}
		if err != nil {
			// Free the partial registrations: the fallback pipeline still
			// charges its streamed intermediates against
			// the same catalog budget, which orphaned registrations would
			// eat into.
			for j := range gens[:i] {
				_ = eng.Drop(fmt.Sprintf("rel%d", j))
			}
			registered = false
			break
		}
		sources[i] = apujoin.Ref(name)
	}
	if !registered {
		// Over the catalog budget: inline sources (declaration order — the
		// orderer has no statistics for inline data).
		r := gens[0].Build()
		sources[0] = apujoin.Inline(r)
		for i, g := range gens[1:] {
			sources[i+1] = apujoin.Inline(g.Probe(r, sel))
		}
		fmt.Fprintln(stdout, "catalog budget exceeded; running with inline sources (declaration order)")
	}

	opts := []apujoin.JoinOption{apujoin.WithOptions(opt)}
	if auto {
		opts = append(opts, apujoin.WithAuto())
	}
	start := time.Now()
	pr, err := eng.JoinPipeline(ctx, apujoin.Pipeline{Sources: sources, DeclaredOrder: declared}, opts...)
	wall := time.Since(start)
	if err != nil {
		return err
	}

	how := "declaration order"
	if pr.Ordered {
		how = "cost-based order"
	}
	fmt.Fprintf(stdout, "pipeline over %d sources (%s): order %v\n", len(sources), how, pr.Order)
	for i, st := range pr.Steps {
		line := fmt.Sprintf("step %d: %s ⋈ %s (%d ⋈ %d) → %d tuples, %.3f ms",
			i+1, st.Build, st.Probe, st.BuildTuples, st.ProbeTuples, st.OutTuples, st.Result.TotalNS/1e6)
		if st.Plan != nil {
			line += fmt.Sprintf(" [%s-%s, cache %s]", st.Plan.Algo, st.Plan.Scheme, cacheWord(st.Plan.CacheHit))
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintf(stdout, "final: %d matches, %.3f ms simulated across the chain\n", pr.Final.Matches, pr.TotalNS/1e6)
	fmt.Fprintf(stdout, "intermediates (streamed): %d tuples, %d bytes, peak %d resident\n",
		pr.IntermediateTuples, pr.IntermediateBytes, pr.PeakIntermediateBytes)
	fmt.Fprintf(stdout, "host: %v wall-clock with %d worker(s)\n", wall.Round(time.Microsecond), workers)
	return nil
}

func cacheWord(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
