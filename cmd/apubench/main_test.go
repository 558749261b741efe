package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

const specPath = "../../BENCHMARK.json"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runSmoke runs the harness at smoke scale and returns its output.
func runSmoke(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-smoke"}, args...), &out); err != nil {
		t.Fatalf("apubench -smoke %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

// results splits the harness output into the JSON result that ends each
// workload's section and the metric names its table printed before it.
func results(t *testing.T, out string) (res []result, printed []map[string]int) {
	t.Helper()
	names := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "{"):
			var r result
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&r); err != nil {
				t.Fatalf("result line %q: %v", line, err)
			}
			res, printed, names = append(res, r), append(printed, names), map[string]int{}
		case strings.HasPrefix(line, "#"):
		default:
			if f := strings.Fields(line); len(f) == 4 {
				names[f[1]]++
			}
		}
	}
	return res, printed
}

// TestSmokeEmitsEveryMetric is the contract between the harness and
// BENCHMARK.json: every workload emits every end-to-end metric untraced and
// every per-layer metric traced, once, finite, under the declared unit.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
	units := [2]map[string]string{{}, {}}
	for _, m := range spec.EndToEnd {
		units[0][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[1][m.Name] = m.Unit
	}

	dir := t.TempDir()
	sets := [2]string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for trace, want := range units {
		for name := range want {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q is outside the benchmark contract", name)
			}
		}
		out := runSmoke(t, "-trace", []string{"0", "1"}[trace], "-record", sets[0], "-out", filepath.Join(dir, "out"))
		res, printed := results(t, out)
		if len(res) != len(workloads) {
			t.Fatalf("trace %d: %d result lines, want one per workload\n%s", trace, len(res), out)
		}
		for i, r := range res {
			w := workloads[i].name
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("trace %d %s: correct=%v attempted=%d failed=%d", trace, w, r.Correct, r.Attempted, r.Failed)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("trace %d %s: %d metrics, BENCHMARK.json lists %d", trace, w, len(r.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := r.Metrics[name]
				switch {
				case !ok:
					t.Errorf("trace %d %s: metric %s missing", trace, w, name)
				case m.Unit != unit:
					t.Errorf("trace %d %s: %s has unit %q, BENCHMARK.json says %q", trace, w, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("trace %d %s: %s = %v", trace, w, name, m.Value)
				case printed[i][name] != 1:
					t.Errorf("trace %d %s: %s printed %d times", trace, w, name, printed[i][name])
				}
			}
		}
	}
	for _, f := range []string{"trace.json", "plan_cold.cpu.pprof"} {
		if _, err := os.Stat(filepath.Join(dir, "out", f)); err != nil {
			t.Errorf("-out: %v", err)
		}
	}

	// The recorded run set compared with a copy of itself has nothing to report.
	data, err := os.ReadFile(sets[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sets[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-compare", "-spec", specPath, sets[0], sets[1]}, &out); err != nil {
		t.Fatalf("-compare of a run set with itself: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 regressions, 0 unresolved") {
		t.Errorf("-compare of a run set with itself:\n%s", out.String())
	}
}

func TestRunRejectsBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-smoke", "-workload", "nope"},
		{"-smoke", "-trace", "2"},
		{"-smoke", "-seconds", "0"},
		{"-smoke", "stray"},
		{"-compare", "one.json"},
		{"-compare", "-spec", "missing.json", "a", "b"},
		{"-no-such-flag"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
	// Full-scale numbers from one core are refused rather than recorded.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if err := run(nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("run on GOMAXPROCS=1: %v", err)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want, pct int }{
		{100, 90, 90}, {99, 90, 89}, {40, 75, 75}, {39, 75, 74}, {1000, 99, 99}, {200, 95, 95},
		{25, 90, 60}, {20, 90, 50}, {4, 99, 50}, {0, 90, 50},
	} {
		if got := pickTail(c.n, c.want); got != c.pct {
			t.Errorf("pickTail(%d, %d) = %d, want %d", c.n, c.want, got, c.pct)
		}
	}
	for _, w := range workloads {
		n := minOpsFor(w.tailPct)
		if pickTail(n, w.tailPct) != w.tailPct || pickTail(n-1, w.tailPct) == w.tailPct {
			t.Errorf("%s: %d ops is not the least that supports p%d", w.name, n, w.tailPct)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, beyond := percentile(sorted, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("p90 of nothing = %v, %d", v, beyond)
	}
}

func TestQuartilesFollowPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles(1,2,4) = %v, %v", q1, q3)
	}
	if got := spread(ten); got != 1 {
		t.Errorf("spread(1..10) = %v, want 5.5/5.5", got)
	}
	if spread([]float64{3}) != 0 || spread([]float64{0, 0}) != 0 || median(nil) != 0 {
		t.Error("spread and median of degenerate inputs are not 0")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 30..50 is new
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: 90..100
		{Name: "a1", Start: 12, End: 20, Parent: 1},
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 8, 30, 30, 8}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}

	tr := newTracer()
	root := tr.begin("op", -1, 7)
	time.Sleep(2 * time.Millisecond)
	tr.endTuples(root, 5)
	tr.within("server", root, time.Hour) // longer than its parent: clipped to it
	st := summarize(tr.snapshot())
	if st.tuples["op"] != 5 || st.selfNS["op"][0] != 0 || st.durNS["server"][0] != st.durNS["op"][0] {
		t.Errorf("summary of a fully covered span: %+v", st)
	}
	var none *tracer
	none.end(none.begin("x", -1, 0))
	none.within("x", 0, time.Second)
	if none.snapshot() != nil {
		t.Error("a nil tracer recorded spans")
	}
}

func gzipped(data []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	zw.Close()
	return buf.Bytes()
}

// spin burns CPU until the deadline so the captured profile has samples
// with this function on the stack.
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestProfileReader(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("a CPU profile is already running: %v", err)
	}
	spin(time.Now().Add(300 * time.Millisecond))
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, total := attribute(samples)
	if total <= 0 {
		t.Fatalf("no CPU time in %d samples", len(samples))
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, "apubench.spin")
		}
	}
	if !found {
		t.Error("no sample has spin on its stack")
	}
	if byLayer["bench"] < total/2 {
		t.Errorf("bench got %d of %d sampled ns; spin is the harness's own code", byLayer["bench"], total)
	}

	if _, err := parseProfile([]byte("not gzip")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
	if _, err := parseProfile(gzipped([]byte{0x0a, 0x05, 0x01})); !errors.Is(err, errTruncated) {
		t.Errorf("truncated profile: %v", err)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack        []string
		layer, class string
	}{
		{[]string{"runtime.memmove", "apujoin/internal/cost.(*Model).stepTime", "apujoin/internal/core.BuildPlan"}, "cost", ""},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice", "apujoin/internal/radix.NewPass"}, "go.malloc", ""},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "go.gc", ""},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "encoding/json.Marshal"}, "go.gc", ""},
		{[]string{"apujoin/internal/htab.hashBucket", "apujoin/internal/htab.(*Table).B3Shard", "apujoin/internal/core.(*runner).build.func1"}, "htab", "htab.b3"},
		{[]string{"apujoin/internal/htab.(*Table).P4", "apujoin/internal/sched.(*Pool).MapRange"}, "htab", "htab.p4"},
		{[]string{"apujoin/internal/radix.(*Pass).N2Atomic"}, "radix", "radix.n2"},
		{[]string{"apujoin/internal/radix.(*Pass).Gather"}, "radix", "radix.gather"},
		{[]string{"apujoin/internal/radix.PlanFor"}, "radix", ""},
		{[]string{"strconv.ParseFloat", "encoding/json.(*decodeState).literalStore", "apujoin/internal/httpapi.readJSON"}, "go.json", ""},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net.(*conn).Write"}, "go.net", ""},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "go.sched", ""},
		{[]string{"internal/runtime/maps.(*Map).getWithoutKey", "runtime.mapaccess1_fast32", "apujoin/internal/rel.KeyCounts"}, "go.maps", ""},
		{[]string{"sync/atomic.(*Int64).Add", "apujoin/internal/service.(*Service).finish"}, "service", ""},
		{[]string{"apujoin/internal/sched.Collect[go.shape.*uint8]", "apujoin/internal/service.(*router).join"}, "sched", ""},
		{[]string{"apujoin/internal/service/api.FromResult"}, "api", ""},
		{[]string{"bytes.(*Buffer).Write", "apujoin/internal/cluster.(*Pool).attempt", "apujoin/internal/service.(*clusterRouter).join"}, "cluster", ""},
		{[]string{"apujoin.(*Engine).Join", "main.(*engineJoin).op"}, "apujoin", ""},
		{[]string{"main.drive.func1"}, "bench", ""},
		{[]string{"runtime.mstart"}, "go.sched", ""},
		{[]string{"os.(*File).Read"}, "go.other", ""},
		{nil, "go.other", ""},
	} {
		if layer, class := classify(c.stack); layer != c.layer || class != c.class {
			t.Errorf("classify(%v) = %q, %q; want %q, %q", c.stack, layer, class, c.layer, c.class)
		}
	}
}

// TestProfileWireForms feeds the reader a hand-built profile whose repeated
// integers are unpacked and which carries fixed-width fields to skip.
func TestProfileWireForms(t *testing.T) {
	str := func(s string) []byte { return append([]byte{0x32, byte(len(s))}, s...) }
	var p []byte
	p = append(p, 0x0a, 0x04, 0x08, 0x01, 0x10, 0x02) // sample_type{type:1 unit:2}
	p = append(p, 0x12, 0x04, 0x08, 0x07, 0x10, 0x2a) // sample{location_id:7 value:42}, unpacked
	p = append(p, 0x22, 0x06, 0x08, 0x07, 0x22, 0x02, 0x08, 0x09)
	p = append(p, 0x2a, 0x04, 0x08, 0x09, 0x10, 0x03)      // function{id:9 name:3}
	p = append(p, 0x4d, 0, 0, 0, 0)                        // a fixed32 field, skipped
	p = append(p, 0x51, 0, 0, 0, 0, 0, 0, 0, 0)            // a fixed64 field, skipped
	p = append(p, str("")...)                              // string_table
	p = append(p, str("cpu")...)                           //
	p = append(p, str("nanoseconds")...)                   //
	p = append(p, str("apujoin/internal/hash.Murmur2")...) //
	samples, err := parseProfile(gzipped(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].cpuNS != 42 || len(samples[0].stack) != 1 || samples[0].stack[0] != "apujoin/internal/hash.Murmur2" {
		t.Fatalf("samples = %+v", samples)
	}
	if byLayer, _ := attribute(samples); byLayer["hash"] != 42 {
		t.Errorf("attribution = %v", byLayer)
	}
	if _, err := parseProfile(gzipped([]byte{0x0b})); err == nil { // wire type 3
		t.Error("accepted a group field")
	}
	if _, err := parseProfile(gzipped(str("x"))); err == nil {
		t.Error("accepted a profile with no nanoseconds column")
	}
}

func TestVerifier(t *testing.T) {
	w, _ := findWorkload("pipeline_spill")
	in := &inputs{want: []int64{10}, tuples: []int64{4}}
	v := newVerifier(w, in)
	good := observation{matches: 10, simMS: 1.5, spilledPartitions: 6}
	if err := v.verify(good); err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]observation{
		"wrong count":  {matches: 9, simMS: 1.5, spilledPartitions: 6},
		"drifted sim":  {matches: 10, simMS: 1.5000001, spilledPartitions: 6},
		"not spilling": {matches: 10, simMS: 1.5},
		"too deep":     {matches: 10, simMS: 1.5, spilledPartitions: 6, spillDepth: 1},
		"bad input":    {input: 3, matches: 10},
	} {
		if err := v.verify(o); err == nil {
			t.Errorf("%s: verified", name)
		}
	}
	if got := v.mean(func(o observation) float64 { return o.simMS }); got != 1.5 {
		t.Errorf("mean sim = %v", got)
	}
	if got := newVerifier(w, in).mean(func(observation) float64 { return 1 }); got != 0 {
		t.Errorf("mean over no inputs = %v", got)
	}
}

// failing is an instance whose every op fails.
type failing struct{}

func (failing) op(context.Context, int, *tracer, int) (observation, error) {
	return observation{}, errors.New("boom")
}
func (failing) counts(context.Context) (layerCounts, error) { return layerCounts{}, nil }
func (failing) close() error                                { return nil }

func TestFailedOpsAreCounted(t *testing.T) {
	w := workload{name: "failing", clients: 2, tailPct: 90}
	in := &inputs{want: []int64{0}, tuples: []int64{0}}
	win := drive(context.Background(), w, failing{}, newVerifier(w, in), nil, nil, 0, afterOps(6))
	if win.attempted != 6 || win.failed != 6 || win.err == nil {
		t.Fatalf("window = %+v", win)
	}
	rep := newReport(w, win)
	rep.set("only", 1)
	res, err := rep.result([]metricDef{{"only", "count"}})
	if err != nil || res.Correct || res.Failed != 6 {
		t.Errorf("result = %+v, %v", res, err)
	}
	var out bytes.Buffer
	if err := rep.print(&out, []metricDef{{"only", "count"}}, res); err != nil || !strings.Contains(out.String(), "FAILED 6 of 6") {
		t.Errorf("print: %v\n%s", err, out.String())
	}
	if _, err := rep.result([]metricDef{{"only", "count"}, {"absent", "ms"}}); err == nil {
		t.Error("a missing metric went unnoticed")
	}
	rep.set("extra", math.NaN())
	if _, err := rep.result([]metricDef{{"only", "count"}}); err == nil {
		t.Error("an undeclared metric went unnoticed")
	}
	if _, err := rep.result([]metricDef{{"only", "count"}, {"extra", "ms"}}); err == nil {
		t.Error("a NaN went unnoticed")
	}
	if _, _, err := setUp(context.Background(), workload{clients: 1, warmup: 1,
		setup: func(scale, int64, *inputs, *tracer) (instance, error) { return failing{}, nil }}, fullScale, 1, in, newVerifier(w, in), nil); err == nil {
		t.Error("a failed warm-up op went unnoticed")
	}
}

// instant is an instance whose op answers at once with what the verifier
// expects of input 0.
type instant struct{ failing }

func (instant) op(context.Context, int, *tracer, int) (observation, error) {
	return observation{matches: 7, simMS: 1}, nil
}

func TestTimedWindowStretchesToTheTail(t *testing.T) {
	w := workload{name: "instant", clients: 2, tailPct: 90}
	in := &inputs{want: []int64{7}, tuples: []int64{3}}
	cal, err := newCalibrator(smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	const d = 100 * time.Millisecond
	win := measure(context.Background(), w, instant{}, newVerifier(w, in), nil, cal, 5, measuredStop(fullScale, d, 1<<12))
	if win.failed != 0 || win.attempted < 1<<12 || win.wall < d || win.tuples != 3*int64(win.attempted) {
		t.Errorf("window = %d attempted, %d failed, %d tuples in %v: %v", win.attempted, win.failed, win.tuples, win.wall, win.err)
	}
	if cal.mark() < 3 {
		t.Errorf("%d calibration rounds in a %v window with one due every %v", cal.mark(), win.wall, cal.every)
	}
	if f := cal.factorSince(0); f <= 0 || math.IsNaN(f) {
		t.Errorf("speed factor %v", f)
	}
	if f := (&calibrator{}).factorSince(0); f != 1 {
		t.Errorf("speed factor with no rounds = %v, want 1", f)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(name string, p50 []float64, failed int) string {
		path := filepath.Join(dir, name)
		for _, wl := range workloads {
			for _, v := range p50 {
				rec := record{Workload: wl.name, result: result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]metric{}}}
				for _, d := range endToEndMetrics {
					rec.Metrics[d.name] = metric{Value: 100, Unit: d.unit}
				}
				rec.Metrics["latency_p50_ms"] = metric{Value: v, Unit: "ms"}
				rec.Metrics["mtuples_per_s"] = metric{Value: 1000 / v, Unit: "Mtuples/s"}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		// A traced record carries no end-to-end metric and must be skipped.
		if err := appendRecord(path, record{Workload: "join_large", Trace: 1}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := set("base.json", []float64{10, 10.1, 10.2}, 0)
	for _, c := range []struct {
		name    string
		other   string
		fails   bool
		verdict string
	}{
		{"same", set("same.json", []float64{10.1, 10.2, 10.3}, 0), false, "0 regressions, 0 unresolved"},
		{"faster", set("faster.json", []float64{5, 5.01, 5.02}, 0), false, "0 regressions, 0 unresolved"},
		{"slower", set("slower.json", []float64{13, 13.1, 13.2}, 0), true, "REGRESSION"},
		{"noisy", set("noisy.json", []float64{8, 10, 12}, 0), false, "unresolved"},
		{"failing", set("failing.json", []float64{10, 10.1, 10.2}, 1), true, "error_rate"},
	} {
		var out bytes.Buffer
		err := run([]string{"-compare", "-spec", specPath, base, c.other}, &out)
		if (err != nil) != c.fails || (err != nil && !errors.Is(err, errRegression)) {
			t.Errorf("%s: err = %v\n%s", c.name, err, out.String())
		}
		if !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: no %q in\n%s", c.name, c.verdict, out.String())
		}
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", "-spec", specPath, base, empty}, &bytes.Buffer{}); err == nil {
		t.Error("compared against an empty run set")
	}
	if err := os.WriteFile(empty, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-compare", "-spec", specPath, empty, base}, &bytes.Buffer{}); err == nil {
		t.Error("read a malformed run set")
	}
}
