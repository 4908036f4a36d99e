package datalog

// Option configures an Engine at construction. Build engines as
//
//	e, err := NewEngine(prog, WithBudget(b), WithParallel(4), WithStats())
//
// Options compose left to right; later options win.
type Option func(*options)

// WithMinAggDelta sets the minimum monotonic-aggregate improvement that
// triggers a new derivation (termination epsilon on cyclic inputs).
func WithMinAggDelta(eps float64) Option {
	return func(o *options) { o.MinAggDelta = eps }
}

// WithMaxRounds bounds the semi-naive rounds of one Run.
func WithMaxRounds(n int) Option {
	return func(o *options) { o.MaxRounds = n }
}

// WithBudget bounds the resources of one Run (derived facts, delta queue,
// index memory, cancellation cadence).
func WithBudget(b Budget) Option {
	return func(o *options) { o.Budget = b }
}

// WithNaive disables semi-naive delta restriction (ablation baseline).
func WithNaive() Option {
	return func(o *options) { o.Naive = true }
}

// WithProvenance records the first derivation of every fact, enabling
// Explain and ExplainTree.
func WithProvenance() Option {
	return func(o *options) { o.Provenance = true }
}

// WithParallel sets the chase worker count: 0 means GOMAXPROCS, 1 forces
// the sequential path.
func WithParallel(n int) Option {
	return func(o *options) { o.Parallel = n }
}

// WithNoIndex disables the positional hash indexes (scan-mode ablation
// baseline).
func WithNoIndex() Option {
	return func(o *options) { o.NoIndex = true }
}

// WithStats enables ChaseStats collection: per-rule firings, derivations,
// duplicates and evaluation time, per-round deltas, index hit/scan counts
// and worker-pool utilization, readable through Engine.Stats after a Run.
// Collection costs a few percent of chase time; engines built without it
// pay nothing.
func WithStats() Option {
	return func(o *options) { o.Stats = true }
}

// WithHook installs chase lifecycle callbacks (see Hook) — the tracing seam
// for progress reporting and test instrumentation.
func WithHook(h Hook) Option {
	return func(o *options) { o.Hook = h }
}
