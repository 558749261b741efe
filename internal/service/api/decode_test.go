package api

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"apujoin/internal/shard"
)

// replies are join responses shaped like the shard servers' replies: an
// explicit join's per-partition vector, an auto join's (with its plan and
// phases sections) and a pipeline's, with float edge cases in the raw
// nanoseconds and non-zero spill fields.
func replies() []JoinResponse {
	parts := func(edge bool) []PartitionResult {
		ps := make([]PartitionResult, shard.Partitions)
		for p := range ps {
			ps[p] = FromResult(sampleResult(p + 1))
		}
		if edge {
			ps[0].PartitionNS = math.Copysign(0, -1)
			ps[1].BuildNS = 5e-324
			ps[2].ProbeNS = 1e21
			ps[3].MergeNS = 1e-7
			ps[4].TotalNS = math.MaxFloat64
			ps[5].SpilledPartitions, ps[5].SpillBytes, ps[5].SpillNS = 3, 1<<40, 123.456
			ps[6].Matches = math.MaxInt64
			ps[7].CacheMisses = math.MinInt64
		}
		return ps
	}
	explicit := JoinResponse{ID: 7, State: "done", Matches: 36036, TotalMS: 1.25,
		Phases: &PhaseReport{PartitionMS: 0.5, BuildMS: 0.25, ProbeMS: 0.5}, WallMS: 3.5, Partitions: parts(false)}
	auto := explicit
	auto.ID, auto.Partitions = 8, parts(true)
	auto.Plan = &PlanReport{Algo: "phj", Scheme: "pl", Cache: "hit", PredictedMS: 0.1}
	pipe := JoinResponse{ID: 9, State: "done", Matches: 12, TotalMS: 2, Pipeline: &PipelineReport{
		Sources: 3, Order: []int{0, 1, 2}, Steps: []PipelineStepReport{{Build: "r", Probe: "s", Matches: 5}},
		SpilledPartitions: 2, SpillBytes: 4096,
		Partitions: &PipelineParts{
			Steps:                 [][]PartitionStep{{{Result: parts(true)[0], Plan: &PartitionPlan{Algo: "shj", PredictedNS: 1e-7}}}},
			PeakIntermediateBytes: []int64{1}, SpillDepth: []int{2},
		},
	}}
	failed := JoinResponse{ID: 10, State: "failed", Error: "core: no space"}
	empty := JoinResponse{State: "done", Partitions: []PartitionResult{}}
	return []JoinResponse{explicit, auto, pipe, failed, empty}
}

// written is r as a shard server writes it: writeResult's compact envelope
// with the encoder's trailing newline, or the indented form of the
// servers before it.
func written(t testing.TB, r JoinResponse, indent bool) []byte {
	env := struct {
		Result JoinResponse `json:"result"`
	}{r}
	var raw []byte
	var err error
	if indent {
		raw, err = json.MarshalIndent(env, "", "  ")
	} else {
		raw, err = json.Marshal(env)
	}
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

// checkDecode asserts the reader's contract on one body: it either
// declines and leaves r zero, or accepts and returns exactly what
// encoding/json decodes. It reports whether the reader accepted.
func checkDecode(t *testing.T, raw []byte) bool {
	t.Helper()
	var got JoinResponse
	if !got.DecodeEnvelope(raw) {
		if !reflect.DeepEqual(got, JoinResponse{}) {
			t.Fatalf("declined %q but left %+v", raw, got)
		}
		return false
	}
	var want JoinResponse
	if err := json.Unmarshal(raw, &struct {
		Result *JoinResponse `json:"result"`
	}{&want}); err != nil {
		t.Fatalf("accepted %q, which encoding/json rejects: %v", raw, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q:\nreader        %+v\nencoding/json %+v", raw, got, want)
	}
	return true
}

// declined are bodies outside the subset the reader accepts: encoding/json
// rejects some, decodes others, and the reader must leave all of them to it.
var declined = []string{
	`{"result":{"Matches":1}}`,
	`{"result":{"matches":1e2}}`,
	`{"result":{"matches":1.0}}`,
	`{"result":{"matches":9223372036854775808}}`,
	`{"result":{"partitions":[{"algo":99999999999999999999}]}}`,
	`{"result":{"total_ms":1e999}}`,
	`{"result":{"partitions":[{"total_ns":-1e999}]}}`,
	`{"result":{"matches":null}}`,
	`{"result":{"matches":"5"}}`,
	`{"result":null}`,
	`null`,
	`{"result":{"partitions":null}}`,
	`{"result":{"partitions":[null]}}`,
	`{"result":{"phases":null}}`,
	`{"result":{"id":1,"id":2}}`,
	`{"result":{}, "result":{}}`,
	`{"result":{"partitions":[{"algo":1,"algo":2}]}}`,
	`{"res\u0075lt":{}}`,
	`{"result":{"st\u0061te":"done"}}`,
	`{"result":{"state":"d\u006fne"}}`,
	`{"result":{"error":"caf` + "\xc3\xa9" + `"}}`,
	`{"result":{"plan":{"algo":"p\"hj"}}}`,
	`{"result":{"state":"done"}} x`,
	`{"result":{}}{}`,
	`{"result":{"matches":01}}`,
	`{"result":{"matches":-}}`,
	`{"result":{"total_ms":1.}}`,
	`{"result":{"total_ms":.5}}`,
	`{"result":{"total_ms":1e}}`,
	`{"result":{"id":1,}}`,
	`{"result":{},"error":{"code":"internal","message":"x"}}`,
	``,
}

// FuzzDecodeJoinEnvelope: the reader is encoding/json or nothing. Whatever
// it accepts, json.Unmarshal into {"result": *JoinResponse} decodes too,
// to a DeepEqual value; whatever it declines, it leaves r zero. Beside the
// seeds added here, testdata/fuzz holds real shard-server replies (an auto
// and an explicit join, an auto pipeline), compact and indented.
func FuzzDecodeJoinEnvelope(f *testing.F) {
	for _, r := range replies() {
		f.Add(written(f, r, false))
		f.Add(written(f, r, true))
	}
	for _, s := range declined {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) { checkDecode(t, raw) })
}

// TestDecodeEnvelopeAcceptsReplies: the reader takes every reply shape,
// compact or indented — a silent fallback to encoding/json would keep the
// results right and lose the gain — and declines every body of declined.
func TestDecodeEnvelopeAcceptsReplies(t *testing.T) {
	for i, r := range replies() {
		for _, indent := range []bool{false, true} {
			if !checkDecode(t, written(t, r, indent)) {
				t.Errorf("reply %d (indented %v) declined", i, indent)
			}
		}
	}
	for _, s := range declined {
		if checkDecode(t, []byte(s)) {
			t.Errorf("accepted %q", s)
		}
	}
}

// TestDecodeEnvelopeAllocations: the per-partition vector costs its slice,
// not an allocation per key or per number (26 numbers per partition).
func TestDecodeEnvelopeAllocations(t *testing.T) {
	r := replies()[0]
	r.State, r.Phases = "", nil
	raw := written(t, r, false)
	var got JoinResponse
	allocs := testing.AllocsPerRun(100, func() {
		if !got.DecodeEnvelope(raw) {
			t.Fatal("declined")
		}
	})
	if allocs >= shard.Partitions {
		t.Errorf("%v allocations decoding %d partitions, want fewer than one per partition", allocs, shard.Partitions)
	}
}

// BenchmarkDecodeEnvelope times one join's shard reply through the reader
// and through encoding/json, the fallback it replaces.
func BenchmarkDecodeEnvelope(b *testing.B) {
	raw := written(b, replies()[0], false)
	b.Run("reader", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r JoinResponse
			if !r.DecodeEnvelope(raw) {
				b.Fatal("declined")
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r JoinResponse
			if err := json.Unmarshal(raw, &struct {
				Result *JoinResponse `json:"result"`
			}{&r}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
