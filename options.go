package apujoin

import "apujoin/internal/core"

// joinConfig is the resolved option set of one Engine.Join.
type joinConfig struct {
	opt  core.Options
	auto bool
}

// JoinOption configures one Engine.Join or Engine.JoinExternal call. The
// zero set is a coupled-architecture SHJ under the fine-grained PL scheme
// with the paper's defaults — the functional-option replacement for
// passing a raw Options struct, which the Engine API no longer requires.
type JoinOption func(*joinConfig)

func applyJoinOptions(opts []JoinOption) joinConfig {
	var cfg joinConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithAlgo selects the join algorithm (SHJ or PHJ).
func WithAlgo(a Algo) JoinOption { return func(c *joinConfig) { c.opt.Algo = a } }

// WithScheme selects the co-processing scheme (CPUOnly, GPUOnly, OL, DD,
// PL, BasicUnit, CoarsePL).
func WithScheme(s Scheme) JoinOption { return func(c *joinConfig) { c.opt.Scheme = s } }

// WithArch selects the architecture (Coupled or Discrete).
func WithArch(a Arch) JoinOption { return func(c *joinConfig) { c.opt.Arch = a } }

// WithAuto hands algorithm, scheme and ratios to the adaptive planner: the
// engine's shared plan cache serves repeated workload shapes without a
// pilot, and catalog-referenced pairs plan from their ingest-time
// statistics. Overrides WithAlgo/WithScheme.
func WithAuto() JoinOption { return func(c *joinConfig) { c.auto = true } }

// WithWorkers runs the join on a dedicated transient pool of n host
// workers instead of the engine's resident pool. Worker counts change
// host wall-clock only; every simulated number is identical.
func WithWorkers(n int) JoinOption { return func(c *joinConfig) { c.opt.Workers = n } }

// WithSeparateTables builds one hash table per device and merges after the
// build phase (the Discrete architecture forces this).
func WithSeparateTables() JoinOption { return func(c *joinConfig) { c.opt.SeparateTables = true } }

// WithGrouping enables the workload-divergence grouping optimization with
// the given number of workload levels (<= 0 selects the default 32).
func WithGrouping(groups int) JoinOption {
	return func(c *joinConfig) { c.opt.Grouping = true; c.opt.Groups = groups }
}

// WithDelta sets the ratio-grid granularity δ of the cost-model searches.
func WithDelta(d float64) JoinOption { return func(c *joinConfig) { c.opt.Delta = d } }

// WithCountOnly leaves the join output uncharged: the simulated clock
// counts matches without the bytes and allocator requests of writing each
// result pair. No pair is written either way.
func WithCountOnly() JoinOption { return func(c *joinConfig) { c.opt.CountOnly = true } }

// WithPilotItems sets the profiling pilot's sample size.
func WithPilotItems(n int) JoinOption { return func(c *joinConfig) { c.opt.PilotItems = n } }

// WithOptions seeds the whole Options struct — the escape hatch for knobs
// without a dedicated JoinOption (fixed ratios, device profiles, allocator
// config, the zero-copy buffer, ...). Later JoinOptions override its
// fields.
func WithOptions(opt Options) JoinOption {
	return func(c *joinConfig) { c.opt = opt }
}
