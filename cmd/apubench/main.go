// Command apubench is the repository's host-time benchmark: four fixed
// workloads driven closed-loop against the engine and the /v1 HTTP surface,
// every result checked against internal/oracle, seven end-to-end metrics
// per workload (host times scaled to a reference machine speed by an
// interleaved calibration kernel) and, in a separate traced run, per-layer
// metrics from a CPU profile, harness-side spans, counters at layer
// boundaries and timed probes. BENCHMARK.json at the repository root names
// the command, the workloads and the metrics with their bounds; README.md
// beside this file explains each of them.
//
//	go run ./cmd/apubench                              # all workloads, end-to-end metrics
//	go run ./cmd/apubench -trace 1 -workload plan_cold # per-layer metrics of one workload
//	go run ./cmd/apubench -record a.jsonl              # append the results to a run set
//	go run ./cmd/apubench -compare a.jsonl b.jsonl     # judge run set b against a
//
// The last line of each workload's output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names; main_test.go keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"mtuples_per_s", "Mtuples/s"},
	{"alloc_mb_per_op", "MB"},
	{"allocs_per_op", "count"},
	{"sim_ms_per_op", "ms"},
}

var perLayerMetrics = func() []metricDef {
	var defs []metricDef
	for _, names := range [][]string{repoLayers, goLayers, kernelClasses} {
		for _, l := range names {
			defs = append(defs, metricDef{l + ".cpu_ms_per_op", "ms"})
		}
	}
	defs = append(defs,
		// spans
		metricDef{"httpapi.overhead_ms", "ms"}, metricDef{"service.exec_wall_ms", "ms"},
		metricDef{"bench.client_codec_us", "us"}, metricDef{"catalog.ingest_ns_per_tuple", "ns"},
		metricDef{"rel.gen_ns_per_tuple", "ns"},
		// counts at layer boundaries
		metricDef{"plan.miss_ratio", "ratio"}, metricDef{"plan.evictions_per_op", "count"},
		metricDef{"catalog.workload_reuses_per_op", "count"}, metricDef{"cluster.requests_per_op", "count"},
		metricDef{"cluster.retries_per_op", "count"}, metricDef{"service.spilled_partitions_per_op", "count"},
		metricDef{"service.spill_kb_per_op", "KB"}, metricDef{"service.spill_depth", "count"},
		metricDef{"service.peak_intermediate_kb", "KB"}, metricDef{"service.intermediate_tuples_per_op", "count"},
		metricDef{"service.replans_per_op", "count"}, metricDef{"mem.sim_l2_miss_ratio", "ratio"},
		metricDef{"core.sim_partition_ms", "ms"}, metricDef{"core.sim_build_ms", "ms"},
		metricDef{"core.sim_probe_ms", "ms"}, metricDef{"core.host_ns_per_sim_ns", "ratio"},
		// layer probes
		metricDef{"rel.keycounts_ns_per_tuple", "ns"}, metricDef{"core.stream_materialize_ns_per_tuple", "ns"},
		metricDef{"shard.split_ns_per_tuple", "ns"}, metricDef{"shard.merge_us", "us"},
		metricDef{"api.partition_vector_codec_us", "us"}, metricDef{"sched.dispatch_ns_per_morsel", "ns"},
		metricDef{"service.scaleout_ratio", "ratio"}, metricDef{"service.sharded_pipeline_ms", "ms"},
		metricDef{"service.cluster_pipeline_ms", "ms"}, metricDef{"service.batch_ms_per_query", "ms"},
		metricDef{"core.high_skew_join_ms", "ms"},
	)
	// paper fidelity
	for _, algo := range []string{"shj", "phj"} {
		for _, scheme := range []string{"cpu", "gpu", "dd", "pl"} {
			defs = append(defs, metricDef{fmt.Sprintf("core.sim_ms.%s_%s", algo, scheme), "ms"})
		}
	}
	for _, algo := range []string{"shj", "phj"} {
		for _, base := range []string{"cpu", "gpu", "dd"} {
			defs = append(defs, metricDef{fmt.Sprintf("core.%s_pl_gain_vs_%s_pct", algo, base), "%"})
		}
	}
	// process
	return append(defs,
		metricDef{"bench.cpu_util_cores", "cores"}, metricDef{"bench.peak_rss_mb", "MB"},
		metricDef{"go.gc_cycles_per_op", "count"}, metricDef{"bench.trace_overhead_pct", "%"},
		metricDef{"bench.profile_cpu_ratio", "ratio"}, metricDef{"bench.speed_factor", "ratio"},
	)
}()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one workload's metrics while a run computes them.
type report struct {
	workload  string
	values    map[string]float64
	notes     []string
	attempted int
	failed    int
	err       error // the first failed op or violated regime
}

func newReport(w workload, win window) *report {
	return &report{workload: w.name, values: map[string]float64{}, attempted: win.attempted, failed: win.failed, err: win.err}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect without an op having failed: the workload
// left the regime it exists to measure.
func (r *report) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// result checks that exactly the metrics in defs were computed, each
// finite, and packs them.
func (r *report) result(defs []metricDef) (result, error) {
	res := result{Correct: r.err == nil && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s has no finite value (%v)", r.workload, d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(r.values) != len(defs) {
		return res, fmt.Errorf("%s: computed %d metrics, the run defines %d", r.workload, len(r.values), len(defs))
	}
	return res, nil
}

// print writes every metric by name with its unit, the notes, and the JSON
// result as the last line.
func (r *report) print(w io.Writer, defs []metricDef, res result) error {
	for _, d := range defs {
		fmt.Fprintf(w, "%-18s %-40s %16.6f %s\n", r.workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s: %s\n", r.workload, n)
	}
	if r.err != nil {
		fmt.Fprintf(w, "# %s: FAILED %d of %d ops: %v\n", r.workload, r.failed, r.attempted, r.err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// record is one line of a run-set file: a result with what produced it.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu_model"`
	result
}

func appendRecord(path string, rec record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	return errors.Join(err, f.Close())
}

func writeFile(dir, name string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apubench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("apubench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: join_large, pipeline_spill, cluster_small_auto, plan_cold or all")
	seed := fs.Int64("seed", 1, "seed every generated relation derives from")
	seconds := fs.Float64("seconds", 15, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics under a CPU profile, spans and probes")
	smoke := fs.Bool("smoke", false, "run at about 1% scale with a handful of ops, to test the harness itself")
	out := fs.String("out", "", "directory for the traced run's trace.json and CPU profile (nothing is written when empty)")
	rec := fs.String("record", "", "append each workload's result to this run-set file")
	compare := fs.Bool("compare", false, "compare two run-set files given as arguments, against the bounds in -spec")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition -compare takes its bounds from")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two run-set files")
		}
		return compareRunSets(stdout, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds %v: want a positive length", *seconds)
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	} else if procs := runtime.GOMAXPROCS(0); procs < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: the host-time numbers need at least 2 cores (use -smoke to test the harness)", procs)
	}
	run := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		run = []workload{w}
	}

	ctx := context.Background()
	window := time.Duration(*seconds * float64(time.Second))
	var failed error
	for _, w := range run {
		var rep *report
		var err error
		defs := endToEndMetrics
		if *trace == 1 {
			defs = perLayerMetrics
			rep, err = runTraced(ctx, w, sc, *seed, window, *out)
		} else {
			rep, err = runUntraced(ctx, w, sc, *seed, window)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		res, err := rep.result(defs)
		if err != nil {
			return err
		}
		if err := rep.print(stdout, defs, res); err != nil {
			return err
		}
		if *rec != "" {
			r := record{Workload: w.name, Seed: *seed, Trace: *trace, GoMaxProcs: runtime.GOMAXPROCS(0),
				NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), CPUModel: cpuModel(), result: res}
			if err := appendRecord(*rec, r); err != nil {
				return err
			}
		}
		if !res.Correct {
			failed = errors.Join(failed, fmt.Errorf("%s: %d of %d ops failed: %w", w.name, res.Failed, res.Attempted, rep.err))
		}
	}
	return failed
}
