package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// flakyShard fails the first failN requests to a path with a 500, then
// succeeds, counting attempts per method.
type flakyShard struct {
	failN int32
	gets  atomic.Int32
	posts atomic.Int32
}

func (f *flakyShard) handler() http.Handler {
	mux := http.NewServeMux()
	serve := func(n int32, w http.ResponseWriter) {
		if n <= f.failN {
			w.WriteHeader(http.StatusInternalServerError)
			json.NewEncoder(w).Encode(map[string]any{"error": map[string]any{"code": "internal", "message": "transient"}})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"result": map[string]any{"ok": true, "attempt": n}})
	}
	mux.HandleFunc("GET /v1/thing", func(w http.ResponseWriter, r *http.Request) {
		serve(f.gets.Add(1), w)
	})
	mux.HandleFunc("POST /v1/thing", func(w http.ResponseWriter, r *http.Request) {
		serve(f.posts.Add(1), w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"result": map[string]any{"status": "ok"}})
	})
	return mux
}

// TestCallSendsOnce: a shard failing its first two requests per method
// sees exactly one GET and one POST, each failing with the shard's
// structured error, and the gauges count two requests, two failures and no
// retries.
func TestCallSendsOnce(t *testing.T) {
	shard := &flakyShard{failN: 2}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()
	p := NewPool(Config{Addrs: []string{srv.URL}, HealthInterval: time.Hour}) // keep probes out of the counters
	defer p.Close()

	for _, method := range []string{http.MethodGet, http.MethodPost} {
		var out struct{ OK bool }
		err := p.Call(context.Background(), 0, method, "/v1/thing", map[string]any{"x": 1}, &out)
		var se *ShardError
		if !errors.As(err, &se) {
			t.Fatalf("%s error = %v (%T), want *ShardError", method, err, err)
		}
		if se.Status != http.StatusInternalServerError || se.Code != "internal" || se.Message != "transient" {
			t.Fatalf("%s ShardError = %+v, want status 500 code internal message transient", method, se)
		}
	}
	if gets, posts := shard.gets.Load(), shard.posts.Load(); gets != 1 || posts != 1 {
		t.Fatalf("shard saw %d GETs and %d POSTs, want one of each", gets, posts)
	}
	if rep := p.Report().Shards[0]; rep.Requests != 2 || rep.Failures != 2 || rep.Retries != 0 {
		t.Fatalf("gauges = %d requests, %d failures, %d retries; want 2, 2, 0", rep.Requests, rep.Failures, rep.Retries)
	}
}

// ownReader is a result with its own envelope reader, which accepts a body
// only when accept is set and then marks what it read with Attempt -1.
type ownReader struct {
	OK      bool  `json:"ok"`
	Attempt int32 `json:"attempt"`
	accept  bool
}

func (r *ownReader) DecodeEnvelope([]byte) bool {
	if r.accept {
		r.Attempt = -1
	}
	return r.accept
}

// TestCallDecodesOnce: a result with its own reader is decoded by it alone
// when it accepts the body, and by encoding/json when it declines.
func TestCallDecodesOnce(t *testing.T) {
	srv := httptest.NewServer((&flakyShard{}).handler())
	defer srv.Close()
	p := NewPool(Config{Addrs: []string{srv.URL}, HealthInterval: time.Hour})
	defer p.Close()

	accepted, declined := ownReader{accept: true}, ownReader{}
	for _, out := range []*ownReader{&accepted, &declined} {
		if err := p.Call(context.Background(), 0, http.MethodGet, "/v1/thing", nil, out); err != nil {
			t.Fatal(err)
		}
	}
	if accepted.OK || accepted.Attempt != -1 {
		t.Errorf("an accepted body was decoded again: %+v", accepted)
	}
	if !declined.OK || declined.Attempt != 2 {
		t.Errorf("a declined body was not decoded by encoding/json: %+v", declined)
	}
}

// TestTransportErrorIsShardDown checks that an unreachable shard surfaces
// as ErrShardDown so the HTTP layer can map it to a structured 503.
func TestTransportErrorIsShardDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := srv.URL
	srv.Close() // nothing listens anymore

	p := NewPool(Config{Addrs: []string{addr}, HealthInterval: time.Hour})
	defer p.Close()

	err := p.Call(context.Background(), 0, http.MethodPost, "/v1/join", map[string]any{}, nil)
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("error against closed shard = %v, want ErrShardDown", err)
	}
}

// TestHealthTransitions drives a shard through up → down → up via a
// switchable health endpoint and checks the pool's marking plus
// RequireAllUp's fail-fast behavior at each stage.
func TestHealthTransitions(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"result": map[string]any{"status": "ok"}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	p := NewPool(Config{
		Addrs:          []string{srv.URL},
		HealthInterval: 20 * time.Millisecond,
		HealthFailures: 2,
	})
	defer p.Close()

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for shard to be %s: %+v", what, p.Report().Shards[0])
	}
	up := func() bool { return p.Report().Shards[0].Up }

	waitFor("probed up", func() bool { return up() && p.Report().Shards[0].Checks > 0 })
	if avg := p.Report().Shards[0].AvgProbeMS; avg <= 0 {
		t.Fatalf("average probe latency = %v ms after a check, want > 0", avg)
	}
	if err := p.RequireAllUp(); err != nil {
		t.Fatalf("RequireAllUp with healthy shard: %v", err)
	}

	healthy.Store(false)
	waitFor("marked down", func() bool { return !up() })
	if err := p.RequireAllUp(); !errors.Is(err, ErrShardDown) {
		t.Fatalf("RequireAllUp with downed shard = %v, want ErrShardDown", err)
	}

	healthy.Store(true)
	waitFor("rejoined", up)
	if err := p.RequireAllUp(); err != nil {
		t.Fatalf("RequireAllUp after recovery: %v", err)
	}
	rep := p.Report().Shards[0]
	if rep.CheckFailures < 2 {
		t.Fatalf("check-failure gauge = %d, want >= 2", rep.CheckFailures)
	}
}
