GO ?= go

# Pinned static-analysis toolchain: @latest is not reproducible across CI
# runs, so the versions live here and CI caches the installed binaries
# keyed on them.
STATICCHECK_VERSION ?= 2025.1.1
GOVULNCHECK_VERSION ?= v1.1.4

# apulint is built from the tree (cmd/apulint): the analyzers ARE the
# contracts under review, so there is nothing external to pin.
APULINT := /tmp/apujoin-apulint

# Minimum total test coverage (percent) the coverage target enforces.
# Raise it as coverage grows; never lower it to merge.
COVERAGE_FLOOR ?= 91

# Maximum non-test code lines (as `make loc` counts them) per package, as
# package:ceiling pairs: COVERAGE_FLOOR's pattern pointing the other way.
# The service layer was three copies of one design and described a query
# in four shapes, and core wrote its join geometry, radix pass series and
# phase dispatch out three times each; this keeps each of them one. The
# cluster pool sends each request once; its ceiling keeps a retry layer
# that no request reaches from coming back. The catalog alone decides what
# stays resident, kept build tables and pilots included; its ceiling keeps that
# policy in one place. The hash table's host layout is one node array that
# b3's one pass builds, and the allocator is charged, not run; its ceiling
# keeps the linked rid lists and their kernels in the tests. A spill level's
# leader chain alone plans and the others run its plans, so the planner is a
# fingerprint over one cache with no fan-out API; its ceiling keeps one from
# coming back. A relation is its key column; the relation package's ceiling
# keeps a RID column from coming back. Lower a ceiling as its package
# shrinks. Never raise one just to get a change through: a change that must
# grow a package raises its ceiling by exactly the measured net growth and
# states the growth and its cause in CHANGES.md.
LOC_CEILINGS ?= internal/service:1965 internal/plan:423 internal/httpapi:590 internal/core:1559 internal/cluster:302 internal/catalog:307 internal/htab:557 internal/rel:347

.PHONY: all build test test-time race loc bench bench-kernels bench-host apubench-smoke coverage fuzz fma-check rid-check lint lint-apulint lint-install lint-install-staticcheck lint-install-govulncheck fmt vet docs-check check

# Budget for the randomized join-oracle fuzz smoke (the committed seed
# corpus under testdata/fuzz additionally runs as plain unit tests).
FUZZ_TIME ?= 30s

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test (and subtest-independent) execution order
# per run so order-dependent tests cannot hide; a failure prints the
# shuffle seed for reproduction (go test -shuffle=<seed>).
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Where tier-1's time goes: one uncached run of every test, then each
# package's elapsed seconds and the ten slowest tests, from go test's JSON
# event stream. A failing test fails the target after the report.
test-time:
	@$(GO) test -count=1 -json ./... > /tmp/apujoin-test.json; status=$$?; \
	echo "package seconds:"; \
	grep '"Action":"\(pass\|fail\)"' /tmp/apujoin-test.json | grep -v '"Test":' \
		| sed 's/.*"Package":"\([^"]*\)".*"Elapsed":\([0-9.]*\).*/\2 \1/' \
		| sort -rn | awk '{printf "%8.2f  %s\n", $$1, $$2}'; \
	echo "ten slowest tests:"; \
	grep '"Action":"\(pass\|fail\)"' /tmp/apujoin-test.json | grep '"Test":' | grep -v '"Test":"[^"]*/' \
		| sed 's/.*"Package":"\([^"]*\)","Test":"\([^"]*\)".*"Elapsed":\([0-9.]*\).*/\3 \1.\2/' \
		| sort -rn | head -n 10 | awk '{printf "%8.2f  %s\n", $$1, $$2}'; \
	exit $$status

# Parallel-runtime speedup benchmark plus the per-variant join benchmarks.
bench:
	$(GO) test -run=NONE -bench='BenchmarkParallelSpeedup|BenchmarkJoin' -benchmem .

# Kernel microbenchmarks, the bottom rung of the benchmark ladder: ns/tuple
# and allocations at 2^20 uniform and high-skew tuples, on a pool of 1 and
# 2, of the steps as the runner executes them — the SHJ build's owner
# scatter (sched.Scatter, the one count/prefix/fill every hash split runs
# on), n2's counting morsels, one whole radix pass from n2 to the gathered
# keys (single-stream and pooled, as the runner moves them, beside the
# chunk chains the host used to build on the same input, the ratio printed
# as x-chains), the build's
# one host pass (b3's kernel over the contiguous ranges of its ownership
# shards, plus b4's charge per shard) at 2^14 and 2^20 tuples beside the
# reference kernels that linked the paper's key and rid nodes through a
# Local per shard (x-linked), the probe's one host pass (Table.Walk) over
# range morsels on the key lists and on the sealed table (x-linked), and
# the p3 + p4 charge pass from its columns (materializing and count-only, CPU
# and GPU wavefronts), the serial arena bump (Alloc(2), Basic and Block, ns/alloc); then the pipeline
# hand-off between two joins — the key-count
# table (single-stream), the streamed producer as a chain runs it
# (Multiplicities, then StreamFill from the slab) beside the three-pass
# producer that looked every key up twice, and the spill partitioner beside
# the single-stream append loop it replaced (pools of 1 and 2, x-ref) — at
# 2^14 and 2^17 tuples, a spilled partition's size
# and the benchmark's relation size; then catalog ingest — one
# registration's statistics (catalog.Measure: the key sample and the whole
# relation's key-count table) at 2^17 and 2^20 tuples, ns/tuple and the
# B/op a registered relation keeps; then the planner — the refined ratio
# search over four steps at δ 0.02 and 0.05, the paper's exhaustive δ=0.02
# grid, and one cold core.BuildPlan of a 4 096 × 4 096 join (pilot plus
# eleven priced candidates, what every plan-cache miss costs); last, one
# 2^18 × 2^18 PHJ-PL join cold and warm, the second probing a kept build
# record (core.RunKept: what a repeat join over a registered build side
# skips); and one warm spilled pipeline at spill depth 0 and ≥ 1, with the
# plan misses a warm run costs (0 while only a spill level's leader plans).
# Several rows
# check their output against a reference and fail on a mismatch, so CI runs
# the target once per PR at BENCHTIME=1x.
BENCHTIME ?= 10x
bench-kernels:
	$(GO) test -run=NONE -bench=BenchmarkOwnerScatter -benchmem -benchtime=$(BENCHTIME) ./internal/sched
	$(GO) test -run=NONE -bench='BenchmarkN2|BenchmarkPartitionPass' -benchmem -benchtime=$(BENCHTIME) ./internal/radix
	$(GO) test -run=NONE -bench='BenchmarkB3B4Shard|BenchmarkP3P4' -benchmem -benchtime=$(BENCHTIME) ./internal/htab
	$(GO) test -run=NONE -bench=BenchmarkArenaAlloc -benchmem -benchtime=$(BENCHTIME) ./internal/alloc
	$(GO) test -run=NONE -bench=BenchmarkKeyCounts -benchmem -benchtime=$(BENCHTIME) ./internal/rel
	$(GO) test -run=NONE -bench=BenchmarkStreamMaterialize -benchmem -benchtime=$(BENCHTIME) ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkSplitAt -benchmem -benchtime=$(BENCHTIME) ./internal/shard
	$(GO) test -run=NONE -bench=BenchmarkMeasure -benchmem -benchtime=$(BENCHTIME) ./internal/catalog
	$(GO) test -run=NONE -bench='BenchmarkOptimizePLRefined|BenchmarkOptimizePLFullGrid' -benchmem -benchtime=$(BENCHTIME) ./internal/cost
	$(GO) test -run=NONE -bench=BenchmarkBuildPlan -benchmem -benchtime=$(BENCHTIME) ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkRunWarmBuild -benchmem -benchtime=$(BENCHTIME) ./internal/core
	$(GO) test -run=NONE -bench=BenchmarkSpilledPipeline -benchmem -benchtime=$(BENCHTIME) ./internal/service

# "Did host time move?": one full apubench run set (all four workloads,
# ~15 s each), then its comparison against the committed baseline. Host
# time has this one home; the simulated clock is gated by `go test` (the
# TestGolden* tests), not here. The comparison is informational until
# cmd/apubench/baseline.jsonl is re-recorded on this tree — it predates
# three perf PRs — so its exit status is ignored. Needs at least 2 cores.
bench-host:
	mkdir -p nightly && rm -f nightly/apubench.jsonl
	$(GO) run ./cmd/apubench -record nightly/apubench.jsonl
	-$(GO) run ./cmd/apubench -compare cmd/apubench/baseline.jsonl nightly/apubench.jsonl

# Explore new inputs against the brute-force join oracle: every algorithm ×
# scheme combination and 3–4-relation pipelines must match it exactly.
# A failure writes the input to testdata/fuzz/FuzzJoinAgainstOracle/ —
# commit it as a permanent regression seed. Then the router's shard-reply
# reader against encoding/json (internal/service/api): what it accepts must
# decode to the identical value.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzJoinAgainstOracle -fuzztime=$(FUZZ_TIME) .
	$(GO) test -run=NONE -fuzz=FuzzDecodeJoinEnvelope -fuzztime=15s ./internal/service/api

# Coverage with an enforced floor: per-package lines from go test, the
# total from the merged profile, fail below COVERAGE_FLOOR percent. The
# per-package breakdown is always printed; a run below the floor repeats
# it so the failing job shows which packages dragged the total down. When
# $GITHUB_STEP_SUMMARY is set (CI), the breakdown lands in the job summary
# as a Markdown table.
coverage:
	@$(GO) test -coverprofile=coverage.out -covermode=atomic ./... > /tmp/apujoin-coverage.txt 2>&1 \
		|| { cat /tmp/apujoin-coverage.txt; exit 1; }
	@cat /tmp/apujoin-coverage.txt
	@$(GO) tool cover -func=coverage.out | tail -n 1
	@if [ -n "$$GITHUB_STEP_SUMMARY" ]; then \
		{ echo "### Coverage by package (floor $(COVERAGE_FLOOR)%)"; echo; \
		  echo "| package | coverage |"; echo "|---|---|"; \
		  awk '/^ok /{cov="-"; for(i=1;i<=NF;i++) if($$i=="coverage:") cov=$$(i+1); print "| "$$2" | "cov" |"}' /tmp/apujoin-coverage.txt; \
		  echo; $(GO) tool cover -func=coverage.out | tail -n 1; } >> "$$GITHUB_STEP_SUMMARY"; \
	fi
	@total=$$($(GO) tool cover -func=coverage.out | tail -n 1 | awk '{gsub(/%/,"",$$NF); print $$NF}'); \
	if awk "BEGIN{exit !($$total < $(COVERAGE_FLOOR))}"; then \
		echo "coverage $$total% is below the floor of $(COVERAGE_FLOOR)%"; \
		echo "per-package breakdown:"; grep '^ok ' /tmp/apujoin-coverage.txt; exit 1; \
	else \
		echo "coverage $$total% meets the floor of $(COVERAGE_FLOOR)%"; \
	fi

# The size of the tree as a build output: non-test, non-blank, non-comment
# Go lines per package and in total (analyzer fixtures under testdata
# excluded), printed, written to the CI job summary when
# $GITHUB_STEP_SUMMARY is set, and failed when any package of LOC_CEILINGS
# exceeds its ceiling.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs awk '/^[ \t]*$$/ {next} inblock {if ($$0 ~ /\*\//) inblock=0; next} /^[ \t]*\/\// {next} /^[ \t]*\/\*/ {if ($$0 !~ /\*\//) inblock=1; next} {d=FILENAME; sub(/\/[^\/]*$$/, "", d); n[d]++; t++} END {for (d in n) print n[d], d; print t, "total"}' | sort -k2 > /tmp/apujoin-loc.txt
	@awk '{printf "%7d  %s\n", $$1, $$2}' /tmp/apujoin-loc.txt
	@if [ -n "$$GITHUB_STEP_SUMMARY" ]; then \
		{ echo "### Non-test Go code lines (ceilings: $(LOC_CEILINGS))"; echo; \
		  echo "| package | lines |"; echo "|---|---|"; \
		  awk '{print "| "$$2" | "$$1" |"}' /tmp/apujoin-loc.txt; } >> "$$GITHUB_STEP_SUMMARY"; \
	fi
	@fail=0; for e in $(LOC_CEILINGS); do \
		pkg=$${e%%:*}; max=$${e##*:}; \
		n=$$(awk -v d="./$$pkg" '$$2 == d {print $$1}' /tmp/apujoin-loc.txt); \
		if [ -z "$$n" ]; then \
			echo "$$pkg: no such package"; fail=1; \
		elif [ "$$n" -gt "$$max" ]; then \
			echo "$$pkg has $$n code lines, above the ceiling of $$max"; fail=1; \
		else \
			echo "$$pkg: $$n code lines (ceiling $$max)"; \
		fi; \
	done; exit $$fail

# The simulated clock is one function on every GOARCH. Go may fuse x*y + z
# into one rounding (FMA) on arm64, ppc64le, s390x and riscv64, never on
# amd64, where every golden was recorded; an explicit float64(x*y) forbids
# it. This cross-compiles the packages of apulint's simulatedTime and
# resultProducing scopes plus internal/device with -gcflags=-S for those four
# architectures and fails on any fused multiply-add or multiply-subtract
# (FMADD[DS], FMSUB[DS], FNMADD[DS], FNMSUB[DS] and their unsuffixed
# ppc64le/s390x forms), naming the source lines. No emulator is involved.
FMA_PKGS ?= ./internal/core ./internal/htab ./internal/sched ./internal/alloc ./internal/radix ./internal/hash ./internal/mem ./internal/cost ./internal/rel ./internal/shard ./internal/plan ./internal/catalog ./internal/service ./internal/httpapi ./internal/device
fma-check:
	@fail=0; for arch in arm64 ppc64le s390x riscv64; do \
		GOARCH=$$arch $(GO) build -gcflags=-S $(FMA_PKGS) > /tmp/apujoin-fma-$$arch.s 2>&1 \
			|| { cat /tmp/apujoin-fma-$$arch.s; exit 1; }; \
		n=$$(grep -cE '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' /tmp/apujoin-fma-$$arch.s); \
		echo "$$arch: $$n fused instructions"; \
		if [ "$$n" -gt 0 ]; then \
			grep -E '[[:space:]]FN?M(ADD|SUB)[DS]?[[:space:]]' /tmp/apujoin-fma-$$arch.s \
				| grep -o '([^)]*\.go:[0-9]*)' | sort | uniq -c; \
			fail=1; \
		fi; \
	done; exit $$fail

# A relation is its key column: no code path makes, moves, copies or
# validates a record ID, and rel.Relation.RIDs is ignored. This fails on any
# non-test Go code outside cmd/apubench that names .RIDs, except the HTTP
# upload's check of the rids it accepts and then drops: in
# internal/httpapi/server.go, `req.RIDs != nil`, `len(req.RIDs)` and
# `ContainsFunc(req.RIDs,` are struck out before the search.
rid-check:
	@out=$$(grep -rnE '\.RIDs\b' --include='*.go' --exclude='*_test.go' . \
		| grep -v -e '^\./cmd/apubench/' -e '/testdata/' \
		| sed -E '/^\.\/internal\/httpapi\/server\.go:/s/req\.RIDs != nil|len\(req\.RIDs\)|ContainsFunc\(req\.RIDs,//g' \
		| grep -E '\.RIDs\b'); \
	if [ -n "$$out" ]; then \
		echo "a RID column is named outside the upload check:"; echo "$$out"; exit 1; \
	fi; \
	echo "rid-check: no code names a RID column"

# Static analysis beyond vet: the project's own analyzer suite (apulint,
# always — it builds from the tree), then staticcheck and govulncheck
# (pinned; CI installs them, locally the targets degrade to a notice when
# a binary is absent — no network assumption).
lint: lint-apulint
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (make lint-install)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (make lint-install)"; \
	fi

# The determinism/parallelism/envelope/slab-recycling contracts, enforced
# at compile time (see internal/analysis). Any finding — including a suppression
# pragma without a reason — fails the build.
lint-apulint:
	$(GO) build -o $(APULINT) ./cmd/apulint
	$(APULINT) ./...

lint-install: lint-install-staticcheck lint-install-govulncheck

# Split targets so CI can restore each binary from its own version-keyed
# cache and install only the one that missed.
lint-install-staticcheck:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

lint-install-govulncheck:
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Documentation gate: every relative link and heading fragment in the
# repository's Markdown must resolve (see cmd/docscheck). Runs in CI's
# docs job so documentation cannot silently drift from the tree.
docs-check:
	$(GO) run ./cmd/docscheck

# The host-time benchmark's own smoke: every workload at ~1 % scale, a
# handful of ops each, answers checked against the oracle. It tests the
# harness and the surfaces it binds to, not performance (cmd/apubench).
apubench-smoke:
	$(GO) run ./cmd/apubench -smoke

# Everything CI runs, in the same order.
check: fmt vet lint rid-check fma-check build race docs-check apubench-smoke loc
