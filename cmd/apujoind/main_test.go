package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"apujoin/internal/httpapi"
	"apujoin/internal/service"
)

// TestParseFlagsRejects: every combination the service would silently
// coerce or ignore is an error before anything starts.
func TestParseFlagsRejects(t *testing.T) {
	nine := make([]string, 9)
	for i := range nine {
		nine[i] = fmt.Sprintf("http://shard%d:8417", i)
	}
	// removed is the parse error of a flag the daemon no longer has:
	// -shard-budget (use -catalog-bytes B×shards), -retries and -backoff
	// (the router sends every request once).
	const roleErr, routerErr, boundErr, removed = "holds none", "need -cluster", "must be positive", "flag provided but not defined"
	cases := map[string]struct{ args, err string }{
		"cluster with shards":         {"-cluster http://a:1 -shards 2", roleErr},
		"cluster with catalog-bytes":  {"-cluster http://a:1 -catalog-bytes 1024", roleErr},
		"cluster with plan-cache":     {"-cluster http://a:1 -plan-cache 8", roleErr},
		"cluster with zero shards":    {"-cluster http://a:1 -shards 0", roleErr},
		"cluster of no URLs":          {"-cluster ,", "lists 0 shard servers"},
		"empty cluster":               {"-cluster=", "lists 0 shard servers"},
		"cluster of nine URLs":        {"-cluster " + strings.Join(nine, ","), "lists 9 shard servers"},
		"non-http URL":                {"-cluster ftp://a:1", "bad shard URL"},
		"URL without scheme":          {"-cluster localhost:8417", "bad shard URL"},
		"negative workers":            {"-workers -1", "-workers -1 is negative"},
		"negative workers on router":  {"-cluster http://a:1 -workers -1", "-workers -1 is negative"},
		"negative shards":             {"-shards -1", "-shards -1 is negative"},
		"zero queue":                  {"-queue 0", "must be >= 1"},
		"zero max-body":               {"-max-body 0", "must be >= 1"},
		"zero timeout":                {"-cluster http://a:1 -timeout 0s", boundErr},
		"negative timeout":            {"-cluster http://a:1 -timeout -1s", boundErr},
		"zero health-failures":        {"-cluster http://a:1 -health-failures 0", boundErr},
		"router flag on an engine":    {"-timeout 5s", routerErr},
		"unknown flag":                {"-bogus 1", "not defined"},
		"cluster with shard-budget":   {"-cluster http://a:1 -shard-budget 1024", removed},
		"shard-budget without shards": {"-shard-budget 1024", removed},
		"shard-budget with shards":    {"-shards 2 -shard-budget 1024", removed},
		"retries on an engine":        {"-retries 0", removed},
		"retries on a router":         {"-cluster http://a:1 -retries 2", removed},
		"zero backoff":                {"-cluster http://a:1 -backoff 0s", removed},
		"backoff on a router":         {"-cluster http://a:1 -backoff 1s", removed},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			d, err := parseFlags(strings.Fields(tc.args), io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("apujoind %s: err %v, want one containing %q (parsed %+v)", tc.args, err, tc.err, d)
			}
		})
	}
}

// TestParseFlagsConfigs pins the service.Config each role produces: the
// -max-concurrent default (half the pool, at least 2) and the HTTP bounds.
func TestParseFlagsConfigs(t *testing.T) {
	// An engine leaves the router's knobs at their flag defaults, which
	// the service reads only when Cluster is set.
	engine := service.Config{
		MaxQueue: 64, KeepResults: 1024,
		ClusterTimeout: 120 * time.Second, HealthInterval: 2 * time.Second, HealthFailures: 3,
	}
	with := func(f func(*service.Config)) service.Config {
		c := engine
		f(&c)
		return c
	}
	cases := []struct {
		name string
		args string
		addr string
		svc  service.Config
		http httpapi.Config
	}{
		{"defaults", "", ":8417", with(func(c *service.Config) {
			c.MaxConcurrent = max(runtime.GOMAXPROCS(0)/2, 2)
		}), httpapi.Config{MaxTuples: 1 << 24, MaxBody: 32 << 20}},
		{"sharded engine", "-addr :9000 -workers 6 -shards 4 -catalog-bytes 8192 -plan-cache 16 -queue 8 -keep 9 -max-tuples 100 -max-body 200",
			":9000", with(func(c *service.Config) {
				c.Workers, c.MaxConcurrent, c.MaxQueue, c.KeepResults = 6, 3, 8, 9
				c.Shards, c.CatalogBytes, c.PlanCache = 4, 8192, 16
			}), httpapi.Config{MaxTuples: 100, MaxBody: 200}},
		{"explicit max-concurrent", "-workers 1 -max-concurrent 7", ":8417", with(func(c *service.Config) {
			c.Workers, c.MaxConcurrent = 1, 7
		}), httpapi.Config{MaxTuples: 1 << 24, MaxBody: 32 << 20}},
		{"router", "-addr :8430 -workers 1 -cluster http://a:1,https://b:2/ -timeout 30s -health-interval 500ms -health-failures 2",
			":8430", with(func(c *service.Config) {
				c.Workers, c.MaxConcurrent = 1, 2
				c.Cluster = []string{"http://a:1", "https://b:2"}
				c.ClusterTimeout = 30 * time.Second
				c.HealthInterval, c.HealthFailures = 500*time.Millisecond, 2
			}), httpapi.Config{MaxTuples: 1 << 24, MaxBody: 32 << 20}},
		{"router without retries", "-workers 8 -cluster http://a:1", ":8417", with(func(c *service.Config) {
			c.Workers, c.MaxConcurrent = 8, 4
			c.Cluster = []string{"http://a:1"}
		}), httpapi.Config{MaxTuples: 1 << 24, MaxBody: 32 << 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := parseFlags(strings.Fields(tc.args), io.Discard)
			if err != nil {
				t.Fatalf("apujoind %s: %v", tc.args, err)
			}
			if d.addr != tc.addr || !reflect.DeepEqual(d.svc, tc.svc) || d.http != tc.http {
				t.Errorf("apujoind %s:\n got  %q %+v %+v\n want %q %+v %+v", tc.args, d.addr, d.svc, d.http, tc.addr, tc.svc, tc.http)
			}
		})
	}
}

// syncBuffer is a bytes.Buffer safe to read while the daemon logs to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunServesAndDrains boots the daemon on an ephemeral port, stops it
// with SIGINT as an operator would, and checks it drains and returns nil; a
// bad flag or an unusable address returns an error instead of serving.
func TestRunServesAndDrains(t *testing.T) {
	if err := run([]string{"-workers", "-1"}, io.Discard); err == nil {
		t.Error("run accepted -workers -1")
	}
	if err := run([]string{"-addr", "127.0.0.1:-1"}, io.Discard); err == nil {
		t.Error("run served on an invalid address")
	}

	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2", "-shards", "2"}, &out) }()
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(out.String(), "listening on") {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged that it listens:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	self, err := os.FindProcess(os.Getpid())
	if err == nil {
		err = self.Signal(os.Interrupt)
	}
	if err != nil {
		t.Skipf("cannot interrupt the test process here: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGINT: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGINT")
	}
	for _, want := range []string{"sharded engine: 8 partitions in one catalog", "shutting down", "drained 0 queries"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("log lacks %q:\n%s", want, out.String())
		}
	}
}
