package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"apujoin/internal/core"
	"apujoin/internal/rel"
	"apujoin/internal/service"
	"apujoin/internal/shard"
)

// testServer boots one service + HTTP handler pair for a test.
func testServer(t *testing.T, opt service.Config, cfg Config) *httptest.Server {
	t.Helper()
	svc := service.New(opt)
	ts := httptest.NewServer(New(svc, cfg))
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Close()
	})
	return ts
}

// doRaw performs one request and decodes the raw response envelope:
// {"result": ...} on success, {"error": {...}} on failure.
func doRaw(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	var rd *bytes.Reader
	if body == "" {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader([]byte(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("%s %s: non-JSON response: %v", method, url, err)
	}
	m, _ := decoded.(map[string]any)
	if m == nil {
		// Every response is an envelope object; a non-object body would be
		// a regression, surfaced to the caller under "list".
		m = map[string]any{"list": decoded}
	}
	return resp.StatusCode, m
}

// do performs one request and unwraps the envelope: object payloads come
// back directly, array payloads under "list", error envelopes untouched
// (read them with errMsg). The top-level field mirrors are gone, so this
// unwrap is the only way to a payload field.
func do(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	st, m := doRaw(t, method, url, body)
	if res, ok := m["result"]; ok {
		if obj, ok := res.(map[string]any); ok {
			return st, obj
		}
		return st, map[string]any{"list": res}
	}
	return st, m
}

// errMsg extracts the unified error envelope's message; empty when the
// response carries no {"error": {"code", "message"}} object.
func errMsg(resp map[string]any) string {
	e, _ := resp["error"].(map[string]any)
	s, _ := e["message"].(string)
	return s
}

// routeShape is one deployment shape of the /v1 surface.
type routeShape struct {
	name string
	ts   *httptest.Server
}

// routeShapes boots the three shapes one handler serves: an unsharded
// engine, an in-process engine of four shards, and a cluster router over
// two shard servers (-shards 1 and 2). cfg bounds the front the client
// talks to; the shard servers behind the router keep the defaults, since
// the router's bulk uploads outgrow a client's body limit.
func routeShapes(t *testing.T, cfg Config) []routeShape {
	t.Helper()
	base := service.Config{Workers: 2, MaxConcurrent: 2}
	sharded := base
	sharded.Shards = 4
	router := base
	for _, n := range []int{1, 2} {
		shardCfg := base
		shardCfg.Shards = n
		router.Cluster = append(router.Cluster, testServer(t, shardCfg, Config{}).URL)
	}
	return []routeShape{
		{"unsharded", testServer(t, base, cfg)},
		{"sharded", testServer(t, sharded, cfg)},
		{"router", testServer(t, router, cfg)},
	}
}

// partitionsIn counts the per-partition slots of a per_partition response:
// a join's partitions vector, or the first step row of a pipeline's.
func partitionsIn(resp map[string]any) int {
	res, _ := resp["result"].(map[string]any)
	if parts, ok := res["partitions"].([]any); ok {
		return len(parts)
	}
	pipe, _ := res["pipeline"].(map[string]any)
	pp, _ := pipe["partitions"].(map[string]any)
	steps, _ := pp["steps"].([]any)
	if len(steps) == 0 {
		return 0
	}
	row, _ := steps[0].([]any)
	return len(row)
}

// TestRoutesTable drives every /v1 route through its happy path and the
// documented failure statuses — 400 for malformed or conflicting input,
// 404 for unknown names and ids, 409 for duplicate registration, 413 for
// oversized bodies — on every deployment shape: one surface, whatever
// serves it. Only per_partition, the shard servers' transport, differs by
// shape: a sharded engine answers it, an unsharded one has no grid to
// report and a router is not a shard server.
func TestRoutesTable(t *testing.T) {
	shapes := routeShapes(t, Config{MaxTuples: 1 << 20, MaxBody: 1 << 16})

	// Happy-path prologue: register a build + probe pair.
	for _, sh := range shapes {
		if st, resp := do(t, "POST", sh.ts.URL+"/v1/relations",
			`{"name":"orders","n":30000,"seed":1}`); st != http.StatusCreated {
			t.Fatalf("%s: register orders: status %d, resp %v", sh.name, st, resp)
		}
		if st, resp := do(t, "POST", sh.ts.URL+"/v1/relations",
			`{"name":"lineitem","probe_of":"orders","n":30000,"sel":0.5,"seed":2}`); st != http.StatusCreated {
			t.Fatalf("%s: register lineitem: status %d, resp %v", sh.name, st, resp)
		}
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
		// except names the shapes whose status differs from want.
		except map[string]int
	}{
		{"join by names", "POST", "/v1/join",
			`{"algo":"phj","scheme":"dd","delta":0.1,"r_name":"orders","s_name":"lineitem","wait":true}`, 200, nil},
		{"join inline", "POST", "/v1/join",
			`{"algo":"shj","scheme":"dd","delta":0.1,"r":20000,"s":20000,"wait":true}`, 200, nil},
		{"join fire-and-poll", "POST", "/v1/join",
			`{"algo":"shj","scheme":"dd","delta":0.1,"r_name":"orders","s_name":"lineitem"}`, 202, nil},
		{"join per_partition", "POST", "/v1/join",
			`{"algo":"phj","scheme":"dd","delta":0.1,"r_name":"orders","s_name":"lineitem","per_partition":true,"wait":true}`,
			400, map[string]int{"sharded": 200}},
		{"list relations", "GET", "/v1/relations", "", 200, nil},
		{"list queries", "GET", "/v1/queries", "", 200, nil},
		{"stats", "GET", "/v1/stats", "", 200, nil},
		{"healthz", "GET", "/healthz", "", 200, nil},

		{"malformed JSON", "POST", "/v1/join", `{"algo":`, 400, nil},
		{"unknown field", "POST", "/v1/join", `{"algol":"shj"}`, 400, nil},
		{"trailing garbage", "POST", "/v1/join", `{"algo":"shj"} extra`, 400, nil},
		{"bad algo", "POST", "/v1/join", `{"algo":"quantum"}`, 400, nil},
		{"bad scheme", "POST", "/v1/join", `{"scheme":"warp"}`, 400, nil},
		{"auto with scheme", "POST", "/v1/join", `{"algo":"auto","scheme":"pl"}`, 400, nil},
		{"delta below the grid floor", "POST", "/v1/join",
			`{"algo":"auto","delta":1e-9,"r_name":"orders","s_name":"lineitem","wait":true}`, 400, nil},
		{"delta above one", "POST", "/v1/join", `{"algo":"shj","scheme":"dd","delta":1.5}`, 400, nil},
		{"coarsepl without phj", "POST", "/v1/join",
			`{"algo":"shj","scheme":"coarsepl","r_name":"orders","s_name":"lineitem","wait":true}`, 400, nil},
		{"negative size", "POST", "/v1/join", `{"r":-1}`, 400, nil},
		{"exceeds max-tuples", "POST", "/v1/join", `{"r":2097152}`, 400, nil},
		{"sel out of range", "POST", "/v1/join", `{"sel":1.5}`, 400, nil},
		{"one name only", "POST", "/v1/join", `{"r_name":"orders"}`, 400, nil},
		{"name plus inline", "POST", "/v1/join", `{"r_name":"orders","s_name":"lineitem","r":1024}`, 400, nil},
		{"unknown relation names", "POST", "/v1/join", `{"r_name":"ghost","s_name":"ghost"}`, 404, nil},

		{"pipeline by names", "POST", "/v1/pipeline",
			`{"algo":"shj","scheme":"dd","delta":0.25,"sources":[{"name":"orders"},{"name":"lineitem"},{"name":"lineitem"}],"wait":true}`, 200, nil},
		{"pipeline fire-and-poll", "POST", "/v1/pipeline",
			`{"algo":"shj","scheme":"dd","delta":0.25,"sources":[{"name":"orders"},{"name":"lineitem"}]}`, 202, nil},
		{"pipeline per_partition", "POST", "/v1/pipeline",
			`{"algo":"shj","scheme":"dd","delta":0.25,"sources":[{"name":"orders"},{"name":"lineitem"}],"per_partition":true,"wait":true}`,
			400, map[string]int{"sharded": 200}},
		{"pipeline one source", "POST", "/v1/pipeline", `{"sources":[{"name":"orders"}]}`, 400, nil},
		{"pipeline too many sources", "POST", "/v1/pipeline",
			`{"sources":[{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]}`, 400, nil},
		{"pipeline unknown name", "POST", "/v1/pipeline",
			`{"sources":[{"name":"orders"},{"name":"ghost"}]}`, 404, nil},
		{"pipeline name+generator conflict", "POST", "/v1/pipeline",
			`{"sources":[{"name":"orders","n":64},{"name":"lineitem"}]}`, 400, nil},
		{"pipeline auto with scheme", "POST", "/v1/pipeline",
			`{"algo":"auto","scheme":"pl","sources":[{"name":"orders"},{"name":"lineitem"}]}`, 400, nil},
		{"pipeline delta below the grid floor", "POST", "/v1/pipeline",
			`{"algo":"auto","delta":1e-9,"sources":[{"name":"orders"},{"name":"lineitem"}],"wait":true}`, 400, nil},
		{"pipeline negative size", "POST", "/v1/pipeline",
			`{"sources":[{"n":-5},{"name":"orders"}]}`, 400, nil},
		{"pipeline exceeds max-tuples", "POST", "/v1/pipeline",
			`{"sources":[{"n":2097152},{"name":"orders"}]}`, 400, nil},
		{"pipeline bad skew", "POST", "/v1/pipeline",
			`{"sources":[{"n":64,"skew":"extreme"},{"name":"orders"}]}`, 400, nil},

		{"pipeline oversized key_range", "POST", "/v1/pipeline",
			`{"sources":[{"n":64,"key_range":2000000000},{"name":"orders"}]}`, 400, nil},

		{"register duplicate", "POST", "/v1/relations", `{"name":"orders","n":64}`, 409, nil},
		{"register oversized key_range", "POST", "/v1/relations", `{"name":"x","n":64,"key_range":2000000000}`, 400, nil},
		{"register nameless", "POST", "/v1/relations", `{"n":64}`, 400, nil},
		{"register bad skew", "POST", "/v1/relations", `{"name":"x","n":64,"skew":"extreme"}`, 400, nil},
		{"probe of unknown", "POST", "/v1/relations", `{"name":"x","probe_of":"ghost","n":64}`, 404, nil},
		{"sel without probe_of", "POST", "/v1/relations", `{"name":"x","n":64,"sel":0.5}`, 400, nil},
		{"rids without keys", "POST", "/v1/relations", `{"name":"x","rids":[1,2]}`, 400, nil},
		{"upload rids length mismatch", "POST", "/v1/relations", `{"name":"x","keys":[1,2,3],"rids":[0,1]}`, 400, nil},
		{"upload negative rid", "POST", "/v1/relations", `{"name":"x","keys":[1,2,3],"rids":[0,-1,2]}`, 400, nil},
		{"upload keys with rids", "POST", "/v1/relations", `{"name":"withrids","keys":[3,1,4,1,5],"rids":[9,0,7,7,2]}`, 201, nil},
		{"upload keys alone", "POST", "/v1/relations", `{"name":"keysonly","keys":[3,1,4,1,5]}`, 201, nil},
		{"upload keys at and below the probe base", "POST", "/v1/relations", `{"name":"highkeys","keys":[2000000000,-5]}`, 201, nil},
		{"probe of an upload at the probe base", "POST", "/v1/relations", `{"name":"x","probe_of":"highkeys","n":64}`, 400, nil},
		{"upload negative key", "POST", "/v1/relations", `{"name":"negkey","keys":[-5,1073741823]}`, 201, nil},
		// A clustered service cannot reassemble an upload to probe it.
		{"probe of an upload with a negative key", "POST", "/v1/relations", `{"name":"negprobe","probe_of":"negkey","n":64}`, 201,
			map[string]int{"router": 400}},
		{"upload keys+generator conflict", "POST", "/v1/relations", `{"name":"x","n":64,"keys":[1,2]}`, 400, nil},
		{"upload keys+seed conflict", "POST", "/v1/relations", `{"name":"x","keys":[1,2],"seed":7}`, 400, nil},
		{"delete unknown relation", "DELETE", "/v1/relations?name=ghost", "", 404, nil},
		{"delete without name", "DELETE", "/v1/relations", "", 400, nil},

		{"poll bad id", "GET", "/v1/query?id=abc", "", 400, nil},
		{"poll unknown id", "GET", "/v1/query?id=999999", "", 404, nil},
		{"cancel bad id", "DELETE", "/v1/query?id=abc", "", 400, nil},
		{"cancel unknown id", "DELETE", "/v1/query?id=999999", "", 404, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, sh := range shapes {
				t.Run(sh.name, func(t *testing.T) {
					want := tc.want
					if st, ok := tc.except[sh.name]; ok {
						want = st
					}
					st, resp := doRaw(t, tc.method, sh.ts.URL+tc.path, tc.body)
					if st != want {
						t.Fatalf("%s %s: status %d, want %d (resp %v)", tc.method, tc.path, st, want, resp)
					}
					if st >= 400 {
						eobj, ok := resp["error"].(map[string]any)
						if !ok {
							t.Fatalf("error status %d without the {\"error\":{\"code\",\"message\"}} envelope: %v", st, resp)
						}
						if code, _ := eobj["code"].(string); code == "" || st == http.StatusBadRequest && code != "bad_request" {
							t.Errorf("error envelope without code, or a 400 without bad_request: %v", resp)
						}
						if errMsg(resp) == "" {
							t.Errorf("error envelope without message: %v", resp)
						}
						// The envelope is exactly {"error": ...}: the one-release
						// top-level "status" mirror is gone.
						if _, ok := resp["status"]; ok {
							t.Errorf("removed legacy status mirror still present: %v", resp)
						}
						return
					}
					if _, ok := resp["result"]; !ok {
						t.Errorf("success status %d without the {\"result\": ...} envelope: %v", st, resp)
					}
					if strings.Contains(tc.body, `"per_partition":true`) {
						if n := partitionsIn(resp); n != shard.Partitions {
							t.Errorf("per_partition response carries %d partition slots, want %d", n, shard.Partitions)
						}
					}
				})
			}
		})
	}

	for _, sh := range shapes {
		// An upload's rids are checked, then dropped: with or without them
		// the same keys register the same relation.
		_, list := do(t, "GET", sh.ts.URL+"/v1/relations", "")
		infos := map[string]map[string]any{}
		for _, e := range list["list"].([]any) {
			info := e.(map[string]any)
			name := info["name"].(string)
			delete(info, "name")
			delete(info, "created")
			infos[name] = info
		}
		if infos["withrids"] == nil || !reflect.DeepEqual(infos["withrids"], infos["keysonly"]) {
			t.Errorf("%s: keys with rids registered %v, keys alone %v", sh.name, infos["withrids"], infos["keysonly"])
		}

		// Oversized body → 413 with the structured envelope.
		big := fmt.Sprintf(`{"name":"big","keys":[%s1]}`, strings.Repeat("1,", 40000))
		if st, resp := do(t, "POST", sh.ts.URL+"/v1/relations", big); st != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body: status %d, resp %v, want 413", sh.name, st, resp)
		}

		// Bulk upload happy path, with ingest-time stats in the response.
		if st, resp := do(t, "POST", sh.ts.URL+"/v1/relations",
			`{"name":"uploaded","keys":[1,2,3,4,5],"rids":[10,11,12,13,14]}`); st != http.StatusCreated {
			t.Errorf("%s: upload: status %d, resp %v", sh.name, st, resp)
		} else if resp["tuples"].(float64) != 5 || resp["source"] != "loaded" {
			t.Errorf("%s: upload info: %v", sh.name, resp)
		}

		// An explicitly empty keys array is an empty upload, not a generator
		// spec: it must register 0 tuples, never a defaulted 1M relation.
		if st, resp := do(t, "POST", sh.ts.URL+"/v1/relations",
			`{"name":"emptyrel","keys":[]}`); st != http.StatusCreated {
			t.Errorf("%s: empty upload: status %d, resp %v", sh.name, st, resp)
		} else if resp["tuples"].(float64) != 0 || resp["source"] != "loaded" {
			t.Errorf("%s: empty upload info: %v", sh.name, resp)
		}

		// Refcounted delete reports zero pins once queries finished.
		if st, resp := do(t, "DELETE", sh.ts.URL+"/v1/relations?name=uploaded", ""); st != 200 {
			t.Errorf("%s: delete: status %d, resp %v", sh.name, st, resp)
		} else if resp["name"] != "uploaded" {
			t.Errorf("%s: delete info: %v", sh.name, resp)
		}
	}

	// A relation the resident budget cannot hold answers 507 no_space on
	// every shape, and the message names it: the catalog names nothing, so
	// the backend that placed the slices says whose they were.
	small := service.Config{Workers: 1, CatalogBytes: 64 << 10}
	smallSharded := small
	smallSharded.Shards = 4
	smallRouter := service.Config{Workers: 1, Cluster: []string{testServer(t, smallSharded, Config{}).URL}}
	for _, sh := range []routeShape{
		{"unsharded", testServer(t, small, Config{})},
		{"sharded", testServer(t, smallSharded, Config{})},
		{"router", testServer(t, smallRouter, Config{})},
	} {
		st, resp := doRaw(t, "POST", sh.ts.URL+"/v1/relations", `{"name":"huge","n":100000}`)
		code, _ := resp["error"].(map[string]any)["code"].(string)
		if st != http.StatusInsufficientStorage || code != "no_space" || !strings.Contains(errMsg(resp), `"huge"`) {
			t.Errorf("%s: oversized register: status %d, resp %v, want 507 no_space naming \"huge\"", sh.name, st, resp)
		}
	}
}

// TestJoinByNameMatchesInline: the HTTP determinism contract — a join over
// registered relations reports the same matches and simulated total as the
// identical inline-generated join.
func TestJoinByNameMatchesInline(t *testing.T) {
	ts := testServer(t, service.Config{Workers: 2, MaxConcurrent: 2},
		Config{MaxTuples: 1 << 20, MaxBody: 1 << 20})

	do(t, "POST", ts.URL+"/v1/relations", `{"name":"r","n":30000,"seed":42}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"s","probe_of":"r","n":30000,"sel":1,"seed":43}`)

	st, named := do(t, "POST", ts.URL+"/v1/join",
		`{"algo":"phj","scheme":"dd","delta":0.1,"r_name":"r","s_name":"s","wait":true}`)
	if st != 200 || named["state"] != "done" {
		t.Fatalf("named join: status %d, resp %v", st, named)
	}
	// The inline default seed is 42 and the probe generator uses seed+1,
	// matching the registered pair above.
	st, inline := do(t, "POST", ts.URL+"/v1/join",
		`{"algo":"phj","scheme":"dd","delta":0.1,"r":30000,"s":30000,"wait":true}`)
	if st != 200 || inline["state"] != "done" {
		t.Fatalf("inline join: status %d, resp %v", st, inline)
	}
	if named["matches"] != inline["matches"] || named["total_ms"] != inline["total_ms"] {
		t.Errorf("named join (matches %v, total %v) != inline join (matches %v, total %v)",
			named["matches"], named["total_ms"], inline["matches"], inline["total_ms"])
	}
}

// TestBatchSubmit: one POST /v1/batch admits several queries sharing
// catalog data; wait=true returns every result and identical queries
// report identical simulated numbers.
func TestBatchSubmit(t *testing.T) {
	ts := testServer(t, service.Config{Workers: 2, MaxConcurrent: 2},
		Config{MaxTuples: 1 << 20, MaxBody: 1 << 20})

	do(t, "POST", ts.URL+"/v1/relations", `{"name":"r","n":25000,"seed":1}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"s","probe_of":"r","n":25000,"sel":1,"seed":2}`)

	q := `{"algo":"shj","scheme":"dd","delta":0.1,"r_name":"r","s_name":"s"}`
	st, resp := do(t, "POST", ts.URL+"/v1/batch",
		fmt.Sprintf(`{"queries":[%s,%s,%s],"wait":true}`, q, q, q))
	if st != 200 {
		t.Fatalf("batch: status %d, resp %v", st, resp)
	}
	queries, ok := resp["queries"].([]any)
	if !ok || len(queries) != 3 {
		t.Fatalf("batch response: %v", resp)
	}
	first := queries[0].(map[string]any)
	if first["state"] != "done" {
		t.Fatalf("batch query state %v", first["state"])
	}
	for i, qr := range queries {
		m := qr.(map[string]any)
		if m["matches"] != first["matches"] || m["total_ms"] != first["total_ms"] {
			t.Errorf("batch query %d diverges: %v vs %v", i, m, first)
		}
	}
	// Batch parse errors name the offending element.
	st, resp = do(t, "POST", ts.URL+"/v1/batch",
		fmt.Sprintf(`{"queries":[%s,{"algo":"bogus"}]}`, q))
	if st != 400 || !strings.Contains(errMsg(resp), "query 2 of 2") {
		t.Errorf("bad batch element: status %d, resp %v", st, resp)
	}
	// Empty batch.
	if st, _ := do(t, "POST", ts.URL+"/v1/batch", `{"queries":[]}`); st != 400 {
		t.Errorf("empty batch: status %d, want 400", st)
	}
	// Per-query wait is meaningless inside a batch and must be rejected,
	// not silently ignored.
	st, resp = do(t, "POST", ts.URL+"/v1/batch",
		fmt.Sprintf(`{"queries":[{"algo":"shj","scheme":"dd","r_name":"r","s_name":"s","wait":true},%s]}`, q))
	if st != 400 || !strings.Contains(errMsg(resp), "batch-level wait") {
		t.Errorf("per-query wait in batch: status %d, resp %v", st, resp)
	}
}

// TestPipelineEndpoint drives POST /v1/pipeline end to end: an auto
// pipeline over registered relations reports the executed order, per-step
// plan decisions and the serial-chain total; inline generated sources over
// a shared key range run in declaration order.
func TestPipelineEndpoint(t *testing.T) {
	ts := testServer(t, service.Config{Workers: 2, MaxConcurrent: 2},
		Config{MaxTuples: 1 << 20, MaxBody: 1 << 20})

	do(t, "POST", ts.URL+"/v1/relations", `{"name":"orders","n":20000,"seed":1}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"lineitem","probe_of":"orders","n":26000,"sel":0.9,"seed":2}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"returns","probe_of":"orders","n":12000,"sel":0.3,"seed":3}`)

	st, resp := do(t, "POST", ts.URL+"/v1/pipeline",
		`{"algo":"auto","delta":0.1,"sources":[{"name":"orders"},{"name":"lineitem"},{"name":"returns"}],"wait":true}`)
	if st != 200 || resp["state"] != "done" {
		t.Fatalf("auto pipeline: status %d, resp %v", st, resp)
	}
	pipe, ok := resp["pipeline"].(map[string]any)
	if !ok {
		t.Fatalf("response has no pipeline section: %v", resp)
	}
	if pipe["ordered"] != true || pipe["sources"].(float64) != 3 {
		t.Errorf("pipeline section: ordered=%v sources=%v", pipe["ordered"], pipe["sources"])
	}
	steps, _ := pipe["steps"].([]any)
	if len(steps) != 2 {
		t.Fatalf("steps = %v, want 2", steps)
	}
	var stepSum float64
	for i, s := range steps {
		step := s.(map[string]any)
		if _, ok := step["plan"].(map[string]any); !ok {
			t.Errorf("step %d: no plan report on an auto pipeline: %v", i, step)
		}
		stepSum += step["total_ms"].(float64)
	}
	// The server sums raw nanoseconds before converting; summing the
	// converted per-step values can differ by an ulp.
	if got := resp["total_ms"].(float64); math.Abs(got-stepSum) > 1e-9*stepSum {
		t.Errorf("total_ms %v != step sum %v", got, stepSum)
	}
	if pipe["intermediate_tuples"].(float64) <= 0 {
		t.Errorf("intermediate_tuples = %v, want > 0", pipe["intermediate_tuples"])
	}
	if resp["matches"].(float64) <= 0 {
		t.Errorf("matches = %v, want > 0", resp["matches"])
	}
	if peak := pipe["peak_intermediate_bytes"].(float64); peak <= 0 {
		t.Errorf("peak_intermediate_bytes = %v, want > 0", peak)
	}

	// Inline generated sources over one key range: no catalog statistics,
	// so declaration order — and the equal specs join every tuple.
	st, resp = do(t, "POST", ts.URL+"/v1/pipeline",
		`{"algo":"shj","scheme":"dd","delta":0.25,"sources":[{"n":4000,"key_range":4000,"seed":7},{"n":4000,"key_range":4000,"seed":8},{"n":4000,"key_range":4000,"seed":9}],"wait":true}`)
	if st != 200 || resp["state"] != "done" {
		t.Fatalf("inline pipeline: status %d, resp %v", st, resp)
	}
	pipe = resp["pipeline"].(map[string]any)
	if pipe["ordered"] != false {
		t.Errorf("inline pipeline claims cost-based ordering: %v", pipe)
	}
	// Three permutations of the same 4000-key domain: 4000 multi-way
	// matches exactly.
	if got := resp["matches"].(float64); got != 4000 {
		t.Errorf("inline pipeline matches = %v, want 4000", got)
	}
	// The stats surface picked up the pipeline counters, including the
	// peak-footprint gauge.
	if st, stats := do(t, "GET", ts.URL+"/v1/stats", ""); st != 200 {
		t.Fatalf("stats: %d", st)
	} else {
		if stats["pipelines"].(float64) < 2 {
			t.Errorf("stats pipelines = %v, want >= 2", stats["pipelines"])
		}
		if sp := stats["peak_intermediate_bytes_streamed"].(float64); sp <= 0 {
			t.Errorf("peak_intermediate_bytes_streamed = %v, want > 0", sp)
		}
	}
}

// TestQueueFullAndCancel: with one execution slot and a queue of one, the
// third concurrent query gets a structured 503; DELETE /v1/query cancels
// the stuck ones.
func TestQueueFullAndCancel(t *testing.T) {
	ts := testServer(t, service.Config{Workers: 2, MaxConcurrent: 1, MaxQueue: 1},
		Config{MaxTuples: 1 << 23, MaxBody: 1 << 20})

	// Big enough to keep the slot busy while the test probes the queue.
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"big","n":4194304,"seed":1}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"bigs","probe_of":"big","n":4194304,"sel":1,"seed":2}`)

	join := `{"algo":"phj","scheme":"pl","r_name":"big","s_name":"bigs"}`
	st1, r1 := do(t, "POST", ts.URL+"/v1/join", join)
	if st1 != 202 {
		t.Fatalf("first join: status %d, resp %v", st1, r1)
	}
	st2, r2 := do(t, "POST", ts.URL+"/v1/join", join)
	if st2 != 202 {
		t.Fatalf("second join: status %d, resp %v", st2, r2)
	}
	st3, r3 := do(t, "POST", ts.URL+"/v1/join", join)
	if st3 != http.StatusServiceUnavailable {
		t.Fatalf("third join: status %d, resp %v, want 503", st3, r3)
	}
	if _, ok := r3["error"]; !ok {
		t.Errorf("503 without structured error: %v", r3)
	}

	// Cancel both; they reach a terminal state (canceled, or done if the
	// race let one finish first) and free the queue.
	for _, r := range []map[string]any{r1, r2} {
		id := int64(r["id"].(float64))
		if st, resp := do(t, "DELETE", fmt.Sprintf("%s/v1/query?id=%d", ts.URL, id), ""); st != 202 {
			t.Fatalf("cancel %d: status %d, resp %v", id, st, resp)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			_, resp := do(t, "GET", fmt.Sprintf("%s/v1/query?id=%d", ts.URL, id), "")
			state := resp["state"].(string)
			if state == "canceled" || state == "done" || state == "failed" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("query %d stuck in state %q after cancel", id, state)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// With the slot free again, a small query is admitted.
	if st, resp := do(t, "POST", ts.URL+"/v1/join",
		`{"algo":"shj","scheme":"dd","delta":0.1,"r":10000,"s":10000,"wait":true}`); st != 200 {
		t.Errorf("join after cancels: status %d, resp %v", st, resp)
	}
}

// TestShutdownNoGoroutineLeaks: serving traffic then closing the server
// and the service reclaims every goroutine (HTTP handlers, per-query
// runners, resident pool workers).
func TestShutdownNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	svc := service.New(service.Config{Workers: 4, MaxConcurrent: 2})
	ts := httptest.NewServer(New(svc, Config{MaxTuples: 1 << 20, MaxBody: 1 << 20}))

	do(t, "POST", ts.URL+"/v1/relations", `{"name":"r","n":20000,"seed":1}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"s","probe_of":"r","n":20000,"sel":1,"seed":2}`)
	for i := 0; i < 3; i++ {
		do(t, "POST", ts.URL+"/v1/join", `{"algo":"phj","scheme":"dd","delta":0.1,"r_name":"r","s_name":"s","wait":true}`)
	}
	do(t, "DELETE", ts.URL+"/v1/relations?name=r", "")

	ts.Close()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines after shutdown: %d, want <= %d", g, before)
	}
}

// TestEncodeFailureIsStructured500: a payload encoding/json cannot write
// (a NaN float) becomes a structured 500 with a decodable body, never the
// success status over an empty one.
func TestEncodeFailureIsStructured500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeResult(rec, http.StatusOK, map[string]float64{"total_ms": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var env struct {
		Error struct{ Code, Message string }
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body %q does not decode: %v", rec.Body.String(), err)
	}
	if env.Error.Code != "internal" || env.Error.Message == "" {
		t.Errorf("error envelope %+v, want code internal with a message", env.Error)
	}
	if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
		t.Errorf("Content-Length %s, body %s bytes", got, want)
	}
}

// TestQueriesListsQueryResponses: GET /v1/queries renders every retained
// query exactly as GET /v1/query?id= does — a done join, a done pipeline, a
// failed query and a canceled one alike.
func TestQueriesListsQueryResponses(t *testing.T) {
	svc := service.New(service.Config{Workers: 2, MaxConcurrent: 2})
	ts := httptest.NewServer(New(svc, Config{MaxTuples: 1 << 20, MaxBody: 1 << 20}))
	t.Cleanup(func() {
		ts.Close()
		_ = svc.Close()
	})

	do(t, "POST", ts.URL+"/v1/relations", `{"name":"r","n":20000,"seed":1}`)
	do(t, "POST", ts.URL+"/v1/relations", `{"name":"s","probe_of":"r","n":20000,"sel":0.5,"seed":2}`)
	if st, resp := do(t, "POST", ts.URL+"/v1/join", `{"algo":"auto","delta":0.1,"r_name":"r","s_name":"s","wait":true}`); st != 200 {
		t.Fatalf("join: status %d, resp %v", st, resp)
	}
	if st, resp := do(t, "POST", ts.URL+"/v1/pipeline",
		`{"algo":"shj","scheme":"dd","delta":0.25,"sources":[{"name":"r"},{"name":"s"},{"name":"s"}],"wait":true}`); st != 200 {
		t.Fatalf("pipeline: status %d, resp %v", st, resp)
	}
	// The HTTP surface rejects invalid options at submit, so the failing
	// query enters through the service: δ above one fails at execution.
	r := rel.Gen{N: 1000, Seed: 3}.Build()
	failed, err := svc.SubmitSpec(context.Background(), service.JoinSpec{R: r, S: r, Opt: core.Options{Delta: 1.5}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	canceled, err := svc.SubmitSpec(ctx, service.JoinSpec{R: r, S: r, Opt: core.Options{Delta: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*service.Query{failed, canceled} {
		_, _ = q.Wait(context.Background())
	}

	st, list := do(t, "GET", ts.URL+"/v1/queries", "")
	queries, _ := list["list"].([]any)
	if st != 200 || len(queries) != 4 {
		t.Fatalf("GET /v1/queries: status %d, %d queries, want 200 and 4: %v", st, len(queries), list)
	}
	states := make([]any, len(queries))
	for i, elem := range queries {
		got, _ := elem.(map[string]any)
		_, want := do(t, "GET", fmt.Sprintf("%s/v1/query?id=%v", ts.URL, got["id"]), "")
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %v: /v1/queries lists\n %v\nbut /v1/query answers\n %v", got["id"], got, want)
		}
		states[i] = got["state"]
	}
	if want := []any{"done", "done", "failed", "canceled"}; !reflect.DeepEqual(states, want) {
		t.Errorf("states %v, want %v", states, want)
	}
	if pipe, _ := queries[1].(map[string]any)["pipeline"].(map[string]any); pipe == nil {
		t.Errorf("the pipeline's listing has no pipeline section: %v", queries[1])
	}
}
