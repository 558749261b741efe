package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runSet is the untraced records of one file, by workload.
type runSet struct {
	values            map[string]map[string][]float64 // workload → metric → one value per invocation
	attempted, failed map[string]int
}

func readRunSet(path string) (runSet, error) {
	rs := runSet{values: map[string]map[string][]float64{}, attempted: map[string]int{}, failed: map[string]int{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return rs, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue // bounds apply to the end-to-end metrics only
		}
		if rs.values[rec.Workload] == nil {
			rs.values[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			rs.values[rec.Workload][name] = append(rs.values[rec.Workload][name], m.Value)
		}
		rs.attempted[rec.Workload] += rec.Attempted
		rs.failed[rec.Workload] += rec.Failed
	}
	return rs, sc.Err()
}

func (rs runSet) errorRate(workload string) float64 {
	return ratio(float64(rs.failed[workload]), float64(rs.attempted[workload]))
}

// errRegression is what -compare fails with; the rows are already printed.
var errRegression = errors.New("regression")

// compareRunSets judges run set b against run set a, one row per workload
// and end-to-end metric: b regresses when its median is worse than a's by
// more than the metric's bound; a row neither side can decide, because the
// run-to-run spread is wider than the bound, is reported as unresolved
// rather than as unchanged. It fails on any regression and on a larger
// error rate.
func compareRunSets(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %-16s %14s %8s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "a median", "a iqr", "b median", "b iqr", "change", "bound", "verdict")
	regressions, unresolved := 0, 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values[wl.Name][m.Name], b.values[wl.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				return fmt.Errorf("%s %s: missing from a run set (%d and %d values)", wl.Name, m.Name, len(va), len(vb))
			}
			ma, mb := median(va), median(vb)
			// worse is how far b moved in the bad direction, as a share of a.
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case max(spread(va), spread(vb)) > m.Bound:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %7.1f%% %14.6g %7.1f%% %+7.1f%% %6.0f%%  %s\n",
				wl.Name, m.Name, ma, 100*spread(va), mb, 100*spread(vb), 100*ratio(mb-ma, ma), 100*m.Bound, verdict)
		}
		if ea, eb := a.errorRate(wl.Name), b.errorRate(wl.Name); eb > ea {
			fmt.Fprintf(w, "%-18s %-16s %14.6g %8s %14.6g %8s %8s %7s  REGRESSION\n", wl.Name, "error_rate", ea, "", eb, "", "", "0%")
			regressions++
		}
	}
	fmt.Fprintf(w, "%d regressions, %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return errRegression
	}
	return nil
}

// cpuModel names the processor for the recorded baseline; empty where
// /proc/cpuinfo does not say.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
