package analysis

import "strings"

// modulePath anchors the package-path scopes below. Fixtures under
// testdata are loaded with pretend paths inside this module so the
// analyzers treat them exactly like the real packages they stand in for.
const modulePath = "apujoin"

// resultProducing is the set of packages whose outputs reach query
// results or the wire, where iteration order is part of the determinism
// contract (results and simulated times bit-identical for any
// worker/shard count). detmaporder and floatsum bind here.
var resultProducing = []string{
	modulePath + "/internal/core",
	modulePath + "/internal/rel",
	modulePath + "/internal/shard",
	modulePath + "/internal/plan",
	modulePath + "/internal/catalog",
	modulePath + "/internal/service",
	modulePath + "/internal/httpapi",
}

// simulatedTime is the set of packages that compute under the simulated
// clock (Acct) with injected seeds, where a wall-clock or global-rand
// read silently breaks reproducibility. wallclock binds here.
var simulatedTime = []string{
	modulePath + "/internal/core",
	modulePath + "/internal/htab",
	modulePath + "/internal/sched",
	modulePath + "/internal/alloc",
	modulePath + "/internal/radix",
	modulePath + "/internal/hash",
	modulePath + "/internal/mem",
	modulePath + "/internal/cost",
	modulePath + "/internal/rel",
	modulePath + "/internal/shard",
	modulePath + "/internal/plan",
	modulePath + "/internal/catalog",
	modulePath + "/internal/device",
}

// goAllowed is where bare go statements are legitimate: the scheduler
// (which is the sanctioned concurrency layer), the cluster transport, and
// binaries' own serving loops. nakedgo flags everything else.
var goAllowed = []string{
	modulePath + "/internal/sched",
	modulePath + "/internal/cluster",
	modulePath + "/cmd/",
}

// slabScope is the set of packages that execute a join, whose input-sized
// []int32 arrays belong on the alloc slab recycler. slabmake binds here.
var slabScope = []string{
	modulePath + "/internal/core",
	modulePath + "/internal/radix",
	modulePath + "/internal/htab",
	modulePath + "/internal/sched",
}

// envelopeScope is where the unified JSON envelope is law.
var envelopeScope = []string{
	modulePath + "/internal/httpapi",
}

// inScope reports whether path is covered by the scope list. An entry
// with a trailing slash is a prefix (a package subtree); anything else
// matches exactly.
func inScope(scope []string, path string) bool {
	for _, s := range scope {
		if strings.HasSuffix(s, "/") {
			if strings.HasPrefix(path, s) {
				return true
			}
		} else if path == s {
			return true
		}
	}
	return false
}
