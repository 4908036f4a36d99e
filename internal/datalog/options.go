package datalog

// Option configures an Engine at construction. Build engines as
//
//	e, err := NewEngine(prog, WithBudget(b), WithStats())
//
// Options compose left to right; later options win.
type Option func(*options)

// DefaultMinAggDelta is the aggregate step ε of every engine that
// WithMinAggDelta does not override, and so of every served chase (DESIGN.md
// §5): the scoped step seeds rows of one chase into another, which line up
// only at one step. An msum or mprod contributor re-fires only when it grows
// by more than ε; mmax and mmin compare exactly. On an ownership cycle of
// gain g the rounds grow as log ε / log g, so at 1e-9 a chase of seconds
// takes minutes. The price is the series' tail, about ε·g/(1−g) per
// contributor, not ε: at g = 0.990 (A and B hold 99.5 % of each other, A
// holds 0.206 % of C) Φ(A, C) reads 0.196514 against an exact 0.206516, and
// ROADMAP item 7's exact solve is the fix. Acyclic graphs pay too, as a
// contributor's rise of ε or less is dropped: with x→a at 1, a→y and a→b at
// 0.5 and b→y at 1e-4, Φ(x, y) reads 0.5 against an exact 0.50005.
const DefaultMinAggDelta = 1e-4

// WithMinAggDelta overrides DefaultMinAggDelta, the minimum monotonic-
// aggregate improvement that triggers a new derivation. Only tests and the
// benchmark set it: every served chase runs at the default.
func WithMinAggDelta(eps float64) Option {
	return func(o *options) { o.MinAggDelta = eps }
}

// DefaultMaxRounds is the round bound of every chase that sets none. A
// cross-holding wholly owned inside itself (A and B holding 100 % of each
// other) makes the walk-sum Φ diverge, each round superseding one
// aggregate row, so the bound is what turns it into a typed answer in
// bounded time; a cycle gain of 0.998 converges within it, 0.999 does not.
const DefaultMaxRounds = 10_000

// WithMaxRounds bounds the semi-naive rounds of one Run; 0 means
// DefaultMaxRounds.
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

// WithParallel is ignored: the chase has one evaluation path, on the
// goroutine that called Run.
//
// Deprecated: it stays only because the benchmark harness still passes it.
func WithParallel(int) Option {
	return func(*options) {}
}

// WithNoIndex disables the positional hash indexes (scan-mode ablation
// baseline).
func WithNoIndex() Option {
	return func(o *options) { o.NoIndex = true }
}

// WithStats enables ChaseStats collection: per-rule firings, derivations,
// duplicates and evaluation time, per-round deltas and index hit/scan
// counts, readable through Engine.Stats after a Run.
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
