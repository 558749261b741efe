// Command apujoind serves co-processed hash joins over HTTP/JSON: a
// long-lived multi-query service with one resident worker pool, a relation
// catalog (register data once, join by name), bounded admission with batch
// submission, per-query cancellation and a metrics surface.
//
//	apujoind -addr :8417 -workers 0 -max-concurrent 4 -queue 64
//
// With -shards N (any N >= 1) relations split by key hash over the fixed
// 8-partition grid in the daemon's one catalog, every join and pipeline
// fans out to all partitions and merges deterministically, and the daemon
// can serve a cluster router. N selects nothing else: every N >= 1 is the
// same engine, with the same results and the whole -catalog-bytes budget.
//
// With -cluster URL,… the daemon is a cluster router instead: it holds no
// tuple data and fans the same /v1 surface out over 1..8 apujoind shard
// servers, each running with -shards >= 1. Relation registrations split by
// the fixed hash-partition grid, every join and pipeline fans out to all
// shard servers, and the raw per-partition results merge locally in fixed
// partition order — bit-identical to a single-process engine for any
// cluster size. Clients cannot tell the two roles apart:
//
//	apujoind -addr :8431 -shards 4 &
//	apujoind -addr :8432 -shards 4 &
//	apujoind -addr :8430 -cluster http://localhost:8431,http://localhost:8432
//
// A background health checker probes each shard server's /healthz; a query
// that needs a marked-down shard fails fast with a structured 503 (code
// "shard_down") instead of hanging, and /v1/stats adds a "cluster" section
// with per-shard health and traffic gauges. The engine-only flags (-shards,
// -catalog-bytes, -plan-cache) are errors on a router, the router-only ones
// (-timeout, -health-interval, -health-failures) errors without -cluster.
//
// Every response uses one JSON envelope: successes carry the payload under
// "result", failures carry {"error": {"code", "message"}}.
//
// Endpoints (the full wire reference lives in docs/API.md; deployment
// recipes, the flag reference and the failure-mode table in
// docs/OPERATIONS.md):
//
//	POST   /v1/join        submit a join; {"wait":true} blocks for the result
//	POST   /v1/pipeline    submit a multi-way join pipeline (2..16 sources)
//	POST   /v1/batch       submit many joins in one admission transaction
//	GET    /v1/query?id=   poll one query
//	DELETE /v1/query?id=   cancel one query
//	GET    /v1/queries     list retained queries, each as GET /v1/query reports it
//	POST   /v1/relations   register a relation (generate or upload)
//	GET    /v1/relations   list registered relations with their statistics
//	DELETE /v1/relations?name=  refcounted delete
//	GET    /v1/stats       service metrics
//	GET    /healthz        liveness
//
// Example — register once, join by handle:
//
//	curl -s localhost:8417/v1/relations -d '{"name":"orders","n":1048576,"seed":1}'
//	curl -s localhost:8417/v1/relations -d '{"name":"lineitem","probe_of":"orders","n":1048576,"sel":0.5,"seed":2}'
//	curl -s localhost:8417/v1/join -d '{"algo":"phj","scheme":"pl","r_name":"orders","s_name":"lineitem","wait":true}'
//
// Inline generation specs are still accepted:
//
//	curl -s localhost:8417/v1/join -d '{"algo":"auto","r":1048576,"s":1048576,"wait":true}'
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"apujoin/internal/httpapi"
	"apujoin/internal/service"
	"apujoin/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "apujoind:", err)
		os.Exit(1)
	}
}

// daemon is what the flags configure: the listen address, the service
// behind it — an engine, or a cluster router when Cluster is set — and the
// bounds of the HTTP surface in front.
type daemon struct {
	addr string
	svc  service.Config
	http httpapi.Config
}

// parseFlags reads the command line into a daemon, rejecting every value
// and every combination the service would silently coerce or ignore. Usage
// and parse errors go to out.
func parseFlags(args []string, out io.Writer) (daemon, error) {
	var d daemon
	c := &d.svc
	fs := flag.NewFlagSet("apujoind", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.StringVar(&d.addr, "addr", ":8417", "listen address")
	cluster := fs.String("cluster", "", "serve as a cluster router over these comma-separated shard server base URLs, e.g. http://host1:8417,http://host2:8417 (1..8 servers; each must run apujoind -shards >= 1)")
	fs.IntVar(&c.Workers, "workers", 0, "resident pool size (0 = GOMAXPROCS)")
	fs.IntVar(&c.MaxConcurrent, "max-concurrent", 0, "queries executing at once — on a router, in flight across the cluster (0 = half the pool, min 2)")
	fs.IntVar(&c.MaxQueue, "queue", 64, "admission queue capacity")
	fs.IntVar(&c.KeepResults, "keep", 1024, "finished queries retained for polling")
	fs.IntVar(&d.http.MaxTuples, "max-tuples", 1<<24, "largest accepted relation size")
	fs.Int64Var(&d.http.MaxBody, "max-body", 32<<20, "largest accepted request body in bytes")
	fs.IntVar(&c.PlanCache, "plan-cache", 0, "plan cache capacity for algo=auto queries (0 = default)")
	fs.Int64Var(&c.CatalogBytes, "catalog-bytes", 0, "zero-copy budget for registered relations and pipeline intermediates, held in one catalog (0 = 512 MB)")
	fs.IntVar(&c.Shards, "shards", 0, "any value >= 1 splits relations over the fixed 8-partition grid, as a cluster shard server needs (0 = unsharded; every value >= 1 is the same engine)")
	fs.DurationVar(&c.ClusterTimeout, "timeout", 120*time.Second, "router: per-shard-request timeout; a query on a dead shard fails within this bound")
	fs.DurationVar(&c.HealthInterval, "health-interval", 2*time.Second, "router: period of the background /healthz probe per shard")
	fs.IntVar(&c.HealthFailures, "health-failures", 3, "router: consecutive probe failures before a shard is marked down")
	if err := fs.Parse(args); err != nil {
		return d, err
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var err error
	if set["cluster"] {
		c.Cluster, err = parseCluster(*cluster)
	}
	// service.Config reads <= 0 as "use the default" and ignores what the
	// other role reads, so either would be silently coerced: reject it
	// rather than surprise the operator.
	switch {
	case err != nil:
		return d, err
	case set["cluster"] && (set["shards"] || set["catalog-bytes"] || set["plan-cache"]):
		return d, errors.New("-shards, -catalog-bytes and -plan-cache size an engine's data; a router (-cluster) holds none")
	case !set["cluster"] && (set["timeout"] || set["health-interval"] || set["health-failures"]):
		return d, errors.New("-timeout, -health-interval and -health-failures tune a router; they need -cluster")
	case c.Workers < 0:
		return d, fmt.Errorf("-workers %d is negative; use 0 for GOMAXPROCS", c.Workers)
	case c.MaxQueue < 1 || c.KeepResults < 1 || d.http.MaxTuples < 1 || d.http.MaxBody < 1:
		return d, errors.New("-queue, -keep, -max-tuples and -max-body must be >= 1")
	case c.Shards < 0:
		return d, fmt.Errorf("-shards %d is negative; use 0 for the unsharded catalog", c.Shards)
	case c.ClusterTimeout <= 0 || c.HealthInterval <= 0 || c.HealthFailures < 1:
		return d, errors.New("-timeout and -health-interval must be positive and -health-failures >= 1")
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = max(cmp.Or(c.Workers, runtime.GOMAXPROCS(0))/2, 2)
	}
	return d, nil
}

// parseCluster validates the -cluster flag: 1..shard.Partitions comma-
// separated http(s) base URLs. More servers than partitions would leave the
// excess forever idle (a partition has exactly one owner), so that is a
// configuration error, not a silent truncation.
func parseCluster(spec string) ([]string, error) {
	var addrs []string
	for _, raw := range strings.Split(spec, ",") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		if u, err := url.Parse(raw); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("bad shard URL %q: need http(s)://host[:port]", raw)
		}
		addrs = append(addrs, strings.TrimRight(raw, "/"))
	}
	if len(addrs) == 0 || len(addrs) > shard.Partitions {
		return nil, fmt.Errorf("-cluster lists %d shard servers; want 1..%d, since a partition has exactly one owner", len(addrs), shard.Partitions)
	}
	return addrs, nil
}

// run parses args, serves until SIGINT or SIGTERM, then drains: open
// requests are answered, running queries (or fan-outs) finish, queued ones
// are cancelled, and the pool and any health checker stop. The log goes to
// stdout.
func run(args []string, stdout io.Writer) error {
	d, err := parseFlags(args, stdout)
	if err != nil {
		return err
	}
	logger := log.New(stdout, "apujoind: ", log.LstdFlags)
	d.svc.Logf = logger.Printf
	svc := service.New(d.svc)
	srv := &http.Server{Addr: d.addr, Handler: httpapi.New(svc, d.http), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if n := len(d.svc.Cluster); n > 0 {
		logger.Printf("routing %d partitions across %d shard servers: %s", shard.Partitions, n, strings.Join(d.svc.Cluster, ", "))
	} else if svc.Shards() > 0 {
		logger.Printf("sharded engine: %d partitions in one catalog", shard.Partitions)
	}
	logger.Printf("listening on %s (%d workers, %d concurrent queries)", d.addr, svc.Stats().Workers, d.svc.MaxConcurrent)
	// The listener stops the daemon on failure, a signal on request. The
	// channel holds the listener's one result, so its goroutine never blocks.
	served := make(chan error, 1)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err = <-served:
	case <-ctx.Done():
		// Shutdown returns once every open request is answered, so waiting
		// clients get their results before the service drains.
		logger.Printf("shutting down")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = srv.Shutdown(sctx)
	}
	_ = svc.Close()
	if err != nil {
		return err
	}
	logger.Printf("drained %d queries, bye", svc.Stats().Completed)
	return nil
}
