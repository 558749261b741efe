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

// TestClientRetriesIdempotent checks the retry contract: idempotent GETs
// retry through transient 5xx failures with bounded attempts, while POSTs
// get exactly one attempt and surface the structured shard error.
func TestClientRetriesIdempotent(t *testing.T) {
	shard := &flakyShard{failN: 2}
	srv := httptest.NewServer(shard.handler())
	defer srv.Close()

	p := NewPool(Config{
		Addrs:          []string{srv.URL},
		Retries:        3,
		Backoff:        time.Millisecond,
		HealthInterval: time.Hour, // keep probes out of the counters
	})
	defer p.Close()

	var out struct {
		OK      bool  `json:"ok"`
		Attempt int32 `json:"attempt"`
	}
	if err := p.Call(context.Background(), 0, http.MethodGet, "/v1/thing", nil, &out); err != nil {
		t.Fatalf("GET with retries: %v", err)
	}
	if got := shard.gets.Load(); got != 3 {
		t.Fatalf("GET attempts = %d, want 3 (two 500s then success)", got)
	}
	if !out.OK || out.Attempt != 3 {
		t.Fatalf("GET result = %+v, want success on attempt 3", out)
	}

	// The POST hits the same failure budget but must never retry.
	err := p.Call(context.Background(), 0, http.MethodPost, "/v1/thing", map[string]any{"x": 1}, nil)
	if err == nil {
		t.Fatal("POST against failing shard succeeded; want exactly one failed attempt")
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("POST error = %v (%T), want *ShardError", err, err)
	}
	if se.Status != http.StatusInternalServerError || se.Code != "internal" || se.Message != "transient" {
		t.Fatalf("POST ShardError = %+v, want status 500 code internal message transient", se)
	}
	if got := shard.posts.Load(); got != 1 {
		t.Fatalf("POST attempts = %d, want 1 (non-idempotent, never retried)", got)
	}

	rep := p.Report()
	if rep.Shards[0].Retries != 2 {
		t.Fatalf("retry gauge = %d, want 2", rep.Shards[0].Retries)
	}
	if rep.Shards[0].Failures != 1 {
		t.Fatalf("failure gauge = %d, want 1 (the POST)", rep.Shards[0].Failures)
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

// TestRetriesExhausted checks a GET against a persistently failing shard
// stops after 1+Retries attempts and returns the last error rather than
// looping. A zero Retries selects the default of 2; a negative one
// disables retries.
func TestRetriesExhausted(t *testing.T) {
	for _, tc := range []struct {
		retries int
		want    int32
	}{{2, 3}, {0, 3}, {-1, 1}} {
		shard := &flakyShard{failN: 100}
		srv := httptest.NewServer(shard.handler())
		p := NewPool(Config{Addrs: []string{srv.URL}, Retries: tc.retries, Backoff: time.Millisecond, HealthInterval: time.Hour})

		err := p.Call(context.Background(), 0, http.MethodGet, "/v1/thing", nil, nil)
		p.Close()
		srv.Close()
		if err == nil {
			t.Fatalf("Retries %d: GET against always-failing shard succeeded", tc.retries)
		}
		if got := shard.gets.Load(); got != tc.want {
			t.Fatalf("Retries %d: GET attempts = %d, want %d", tc.retries, got, tc.want)
		}
	}
}

// TestTransportErrorIsShardDown checks that an unreachable shard surfaces
// as ErrShardDown so the HTTP layer can map it to a structured 503.
func TestTransportErrorIsShardDown(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	addr := srv.URL
	srv.Close() // nothing listens anymore

	p := NewPool(Config{Addrs: []string{addr}, Retries: 0, Backoff: time.Millisecond, HealthInterval: time.Hour})
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
		Backoff:        time.Millisecond,
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
