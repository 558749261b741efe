// Package cluster is the network tier under a cluster-backed service: a
// pool of HTTP clients to remote apujoind shard servers, with per-request
// timeouts, bounded retries (exponential backoff plus jitter, idempotent
// GETs only — a retried POST could double-execute), and a health checker
// that probes every shard's /healthz and marks it up or down.
//
// The pool implements fail-fast semantics for the cluster router: before
// fanning a query out, RequireAllUp refuses immediately — with
// ErrShardDown, which the HTTP layer maps to a structured 503 — when any
// shard is marked down, and a transport failure mid-query surfaces as the
// same sentinel instead of hanging until every retry is exhausted. A
// downed shard rejoins as soon as a probe (or any passive request)
// succeeds again.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// ErrShardDown reports that a shard server is unreachable or marked down
// by the health checker. HTTP front-ends map it to a structured 503 with
// code "shard_down".
var ErrShardDown = errors.New("cluster: shard down")

// ShardError is a structured error envelope returned by a shard server:
// the stable machine-readable code and message from its
// {"error":{code,message}} body, plus the HTTP status it arrived with.
// The router's HTTP layer passes code and status through, so a shard's
// no_space or conflict reaches the client unchanged.
type ShardError struct {
	Shard   int
	Addr    string
	Status  int
	Code    string
	Message string
}

// Error formats the shard error with its origin.
func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %s: %s", e.Shard, e.Addr, e.Code, e.Message)
}

// Config sizes a Pool. The zero value is usable: defaults fill in.
type Config struct {
	// Addrs are the shard server base URLs in shard order (the contiguous
	// shard.Owner map assigns partitions by this order).
	Addrs []string
	// Timeout bounds each HTTP request attempt; <= 0 selects 120s —
	// generous, because a fanned-out join runs server-side within it.
	Timeout time.Duration
	// Retries is how many times an idempotent request is retried beyond
	// the first attempt; 0 selects 2 and a negative value disables
	// retries. Non-idempotent requests (POST, DELETE) are never retried.
	Retries int
	// Backoff is the base of the exponential retry backoff (attempt k
	// sleeps Backoff·2^k plus up to 50% jitter); <= 0 selects 100ms.
	Backoff time.Duration
	// HealthInterval is the probe period of the health checker; <= 0
	// selects 2s.
	HealthInterval time.Duration
	// HealthFailures is how many consecutive probe failures mark a shard
	// down; <= 0 selects 3.
	HealthFailures int
	// Logf, when non-nil, receives shard up/down transitions.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() {
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.HealthFailures <= 0 {
		c.HealthFailures = 3
	}
}

// shardState is one shard's health and traffic gauges.
type shardState struct {
	index int
	addr  string

	mu          sync.Mutex
	up          bool
	since       time.Time
	consecFails int
	checks      int64
	checkFails  int64
	lastProbeNS int64
	probeNSSum  float64
	probes      int64
	requests    int64
	failures    int64
	retries     int64
}

// Pool manages the shard clients and the health checker goroutine. Close
// stops the checker; in-flight requests are bounded by their own timeouts.
type Pool struct {
	cfg    Config
	client *http.Client
	shards []*shardState

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup

	jmu sync.Mutex
	rng *rand.Rand
}

// NewPool builds the pool and starts the health checker. Shards start
// optimistically up; the first probe round corrects that within one
// HealthInterval. The pool owns its transport, so Close can close its
// connections without touching other clients'.
func NewPool(cfg Config) *Pool {
	cfg.setDefaults()
	p := &Pool{
		cfg:    cfg,
		client: &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()},
		stop:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	now := time.Now()
	for i, addr := range cfg.Addrs {
		p.shards = append(p.shards, &shardState{index: i, addr: addr, up: true, since: now})
	}
	p.wg.Add(1)
	go p.healthLoop()
	return p
}

// Close stops the health checker, waits for it and closes the pool's idle
// keep-alive connections, whose reader and writer goroutines would
// otherwise outlive it.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// Size returns the number of shards.
func (p *Pool) Size() int { return len(p.shards) }

// Addr returns shard i's base URL.
func (p *Pool) Addr(i int) string { return p.shards[i].addr }

// RequireAllUp fails fast when any shard is marked down: a partition's
// owner being unreachable means no join can merge completely, so the
// query is refused before any fan-out work starts.
func (p *Pool) RequireAllUp() error {
	for _, s := range p.shards {
		s.mu.Lock()
		up := s.up
		s.mu.Unlock()
		if !up {
			return fmt.Errorf("shard %d (%s) is marked down: %w", s.index, s.addr, ErrShardDown)
		}
	}
	return nil
}

// jitter returns a uniformly random duration in [0, d/2).
func (p *Pool) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	p.jmu.Lock()
	defer p.jmu.Unlock()
	return time.Duration(p.rng.Int63n(int64(d)/2 + 1))
}

// maxReply bounds how much of one shard reply is read.
const maxReply = 256 << 20

// envelope is the /v1 response envelope: the payload under "result", or a
// structured error.
type envelope struct {
	Result json.RawMessage `json:"result"`
	Error  *struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// envelopeDecoder is implemented by result types that read a whole
// {"result": …} body themselves. DecodeEnvelope reports false when it
// declines the body; Call then decodes it with encoding/json.
type envelopeDecoder interface {
	DecodeEnvelope(raw []byte) bool
}

// Call performs one request against shard i: method and path against the
// shard's base URL, in (when non-nil) marshaled as the JSON body, the
// envelope's result decoded into out (when non-nil) in one pass — by out's
// own DecodeEnvelope when it has one and accepts the body. Idempotent
// requests (GET) retry on transport errors and 5xx responses with
// exponential backoff plus jitter; everything else gets exactly one
// attempt. Transport failures wrap ErrShardDown; structured shard failures
// return a *ShardError. Each attempt is bounded by the pool's Timeout on
// top of ctx.
func (p *Pool) Call(ctx context.Context, i int, method, path string, in, out any) error {
	s := p.shards[i]
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("shard %d (%s): encode %s %s: %w", i, s.addr, method, path, err)
		}
	}
	idempotent := method == http.MethodGet
	attempts := 1
	if idempotent {
		attempts += max(p.cfg.Retries, 0)
	}

	s.mu.Lock()
	s.requests++
	s.mu.Unlock()

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			delay := p.cfg.Backoff << (attempt - 1)
			select {
			case <-time.After(delay + p.jitter(delay)):
			case <-ctx.Done():
				return ctx.Err()
			}
			s.mu.Lock()
			s.retries++
			s.mu.Unlock()
		}
		retriable, err := p.attempt(ctx, s, method, path, body, out)
		if err == nil {
			s.markUp()
			return nil
		}
		lastErr = err
		if !idempotent || !retriable {
			break
		}
	}
	s.reportFailure()
	return lastErr
}

// attempt is one bounded HTTP round-trip. retriable reports whether a
// retry could help (transport errors and 5xx responses; 4xx cannot).
func (p *Pool) attempt(ctx context.Context, s *shardState, method, path string, body []byte, out any) (retriable bool, err error) {
	actx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, s.addr+path, rd)
	if err != nil {
		return false, fmt.Errorf("shard %d (%s): %s %s: %w", s.index, s.addr, method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		// ctx (the caller's context) expiring is a cancellation, not a
		// shard failure; the per-attempt timeout and transport errors are.
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return true, fmt.Errorf("shard %d (%s): %s %s: %w: %v", s.index, s.addr, method, path, ErrShardDown, err)
	}
	defer resp.Body.Close()
	// One read into a buffer the Content-Length sizes, rather than
	// io.ReadAll's doubling from 512 bytes.
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxReply {
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(io.LimitReader(resp.Body, maxReply))
	raw := buf.Bytes()
	if err != nil {
		return true, fmt.Errorf("shard %d (%s): %s %s: read: %w: %v", s.index, s.addr, method, path, ErrShardDown, err)
	}
	if resp.StatusCode < 300 {
		if out == nil {
			return false, nil
		}
		if d, ok := out.(envelopeDecoder); ok && d.DecodeEnvelope(raw) {
			return false, nil
		}
		if err := json.Unmarshal(raw, &struct {
			Result any `json:"result"`
		}{out}); err != nil {
			return false, fmt.Errorf("shard %d (%s): %s %s: decode: %w", s.index, s.addr, method, path, err)
		}
		return false, nil
	}
	var env envelope
	se := &ShardError{Shard: s.index, Addr: s.addr, Status: resp.StatusCode, Code: "internal", Message: http.StatusText(resp.StatusCode)}
	if json.Unmarshal(raw, &env) == nil {
		switch {
		case env.Error != nil:
			se.Code, se.Message = env.Error.Code, env.Error.Message
		case env.Result != nil:
			// A failed wait-query returns its state under "result" with the
			// error string inside; surface that message.
			var jr struct {
				Error string `json:"error"`
			}
			if json.Unmarshal(env.Result, &jr) == nil && jr.Error != "" {
				se.Message = jr.Error
			}
		}
	}
	return resp.StatusCode >= 500, se
}

// markUp records a successful request: consecutive failures reset and a
// downed shard rejoins immediately (faster than waiting for the next
// probe).
func (s *shardState) markUp() {
	s.mu.Lock()
	s.consecFails = 0
	if !s.up {
		s.up = true
		s.since = time.Now()
	}
	s.mu.Unlock()
}

// reportFailure records a failed request passively; the health checker's
// threshold decides the down transition so one flaky request cannot
// blackhole a shard.
func (s *shardState) reportFailure() {
	s.mu.Lock()
	s.failures++
	s.mu.Unlock()
}

// healthLoop probes every shard's /healthz each HealthInterval, marking
// shards down after HealthFailures consecutive failures and up on the
// first success.
func (p *Pool) healthLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			for _, s := range p.shards {
				p.probe(s)
			}
		}
	}
}

// probe is one health check of one shard.
func (p *Pool) probe(s *shardState) {
	timeout := p.cfg.HealthInterval
	if p.cfg.Timeout < timeout {
		timeout = p.cfg.Timeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.addr+"/healthz", nil)
	ok := false
	if err == nil {
		if resp, derr := p.client.Do(req); derr == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			ok = resp.StatusCode < 300
		}
	}
	elapsed := time.Since(start)

	s.mu.Lock()
	s.checks++
	s.lastProbeNS = elapsed.Nanoseconds()
	s.probeNSSum += float64(elapsed.Nanoseconds())
	s.probes++
	var transition string
	if ok {
		s.consecFails = 0
		if !s.up {
			s.up = true
			s.since = time.Now()
			transition = "up"
		}
	} else {
		s.checkFails++
		s.consecFails++
		if s.up && s.consecFails >= p.cfg.HealthFailures {
			s.up = false
			s.since = time.Now()
			transition = "down"
		}
	}
	s.mu.Unlock()
	if transition != "" && p.cfg.Logf != nil {
		p.cfg.Logf("cluster: shard %d (%s) is %s", s.index, s.addr, transition)
	}
}

// ShardStatus is one shard's health and latency gauges for the stats
// surface.
type ShardStatus struct {
	Index int    `json:"index"`
	Addr  string `json:"addr"`
	Up    bool   `json:"up"`
	// Since is when the shard last changed up/down state.
	Since time.Time `json:"since"`
	// ConsecutiveFailures counts probe failures since the last success.
	ConsecutiveFailures int   `json:"consecutive_failures"`
	Checks              int64 `json:"checks"`
	CheckFailures       int64 `json:"check_failures"`
	// LastProbeMS and AvgProbeMS are health-probe round-trip latencies.
	LastProbeMS float64 `json:"last_probe_ms"`
	AvgProbeMS  float64 `json:"avg_probe_ms"`
	// Requests, Failures and Retries count the shard's query/registration
	// traffic (health probes are counted separately above).
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	Retries  int64 `json:"retries"`
}

// Report is the pool's gauge snapshot: one ShardStatus per shard, in shard
// order.
type Report struct {
	Shards []ShardStatus `json:"shards"`
}

// Report snapshots every shard's gauges.
func (p *Pool) Report() Report {
	rep := Report{Shards: make([]ShardStatus, len(p.shards))}
	for i, s := range p.shards {
		s.mu.Lock()
		st := ShardStatus{
			Index:               s.index,
			Addr:                s.addr,
			Up:                  s.up,
			Since:               s.since,
			ConsecutiveFailures: s.consecFails,
			Checks:              s.checks,
			CheckFailures:       s.checkFails,
			LastProbeMS:         float64(s.lastProbeNS) / 1e6,
			Requests:            s.requests,
			Failures:            s.failures,
			Retries:             s.retries,
		}
		if s.probes > 0 {
			st.AvgProbeMS = s.probeNSSum / float64(s.probes) / 1e6
		}
		s.mu.Unlock()
		rep.Shards[i] = st
	}
	return rep
}
