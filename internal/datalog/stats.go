package datalog

import (
	"sync/atomic"
	"time"
)

// Hook receives chase lifecycle events — the tracing seam of the engine.
// Every field is optional; a nil callback is skipped. Every callback fires on
// the goroutine that called Run, in chase order: a job's RuleStart is
// followed by its RuleDone before the next job's RuleStart, and a round's
// RoundDone follows the RuleDone of its last job.
//
// Hooks run inline with the chase: a slow callback slows evaluation. They
// exist for tracing, progress reporting, and test instrumentation — keep
// them cheap.
type Hook struct {
	// RuleStart fires when a rule instantiation (one chase job) starts
	// evaluating. rule is the rule's label and text, round the semi-naive
	// round index.
	RuleStart func(rule string, round int)

	// RuleDone fires after a job's derivations have been applied to the
	// store: derived is the number of new facts it produced, duplicates the
	// emissions absorbed as already known, elapsed its evaluation time.
	RuleDone func(rule string, round int, derived, duplicates int, elapsed time.Duration)

	// RoundDone fires after each semi-naive round with the number of new
	// facts in the round's delta.
	RoundDone func(round, stratum, newFacts int, elapsed time.Duration)

	// BudgetTrip fires once per Run, when the first resource limit trips.
	BudgetTrip func(err *BudgetExceededError)
}

// active reports whether any callback is set.
func (h Hook) active() bool {
	return h.RuleStart != nil || h.RuleDone != nil || h.RoundDone != nil || h.BudgetTrip != nil
}

// RuleStats aggregates what one rule did during a Run.
type RuleStats struct {
	// Rule is the rule's label and text.
	Rule string `json:"rule"`
	// Firings counts the chase jobs that evaluated the rule (full-store
	// evaluations in round 0, delta-restricted evaluations afterwards).
	Firings int `json:"firings"`
	// Derived counts the new facts the rule's jobs inserted.
	Derived int `json:"derived"`
	// Duplicates counts head instantiations absorbed as already known.
	Duplicates int `json:"duplicates"`
	// Candidates counts the facts the rule's jobs offered to unification:
	// every fact of every index bucket, relation scan and delta walked while
	// joining the body. Candidates / (Derived + Duplicates) is the join work
	// per head instantiation: near the body length under a good plan,
	// growing with the relation under a bad one, whatever the index hit
	// ratio says.
	Candidates int64 `json:"candidates"`
	// EvalNanos is the total evaluation time of the rule's jobs. Jobs run
	// one at a time, so the per-rule times sum to at most the wall clock.
	EvalNanos int64 `json:"evalNanos"`
}

// RoundStats describes one semi-naive round.
type RoundStats struct {
	Round   int `json:"round"`
	Stratum int `json:"stratum"`
	// Jobs is the number of rule instantiations the round evaluated.
	Jobs int `json:"jobs"`
	// NewFacts is the size of the round's delta.
	NewFacts int `json:"newFacts"`
	// Nanos is the round's wall-clock time.
	Nanos int64 `json:"nanos"`
}

// ChaseStats is the evaluation report of one Run, collected when the engine
// is built with WithStats. It is the data source for rule-ordering and
// caching decisions and for the /v1/metrics endpoint of the reasoning API.
type ChaseStats struct {
	// Rounds is the number of semi-naive rounds evaluated.
	Rounds int `json:"rounds"`
	// Derived and Duplicates count new facts inserted and emissions
	// absorbed as already known, across all rules.
	Derived    int `json:"derived"`
	Duplicates int `json:"duplicates"`
	// Candidates is the sum of the rules' Candidates (see RuleStats).
	Candidates int64 `json:"candidates"`
	// TotalNanos is the wall-clock time of the Run.
	TotalNanos int64 `json:"totalNanos"`

	// IndexHits counts lookups served from a positional hash index;
	// IndexScans counts lookups that fell back to scanning the full
	// relation (unbound atoms, NoIndex mode, or unindexable positions);
	// IndexBuilds counts lazy index constructions; IndexBytes is the
	// estimated index memory at the end of the Run.
	IndexHits   int64 `json:"indexHits"`
	IndexScans  int64 `json:"indexScans"`
	IndexBuilds int64 `json:"indexBuilds"`
	IndexBytes  int64 `json:"indexBytes"`

	// Utilization is always 1: the chase evaluates on the goroutine that
	// called Run.
	//
	// Deprecated: it stays only because the benchmark harness still reads it.
	Utilization float64 `json:"utilization"`

	// Truncated is set when a budget limit stopped the Run; Limit names it.
	Truncated bool  `json:"truncated,omitempty"`
	Limit     Limit `json:"limit,omitempty"`

	// Rules holds one entry per program rule, in program order.
	Rules []RuleStats `json:"rules"`
	// PerRound holds one entry per semi-naive round, in evaluation order.
	PerRound []RoundStats `json:"perRound"`
}

// statsCollector is the engine's per-Run mutable statistics state. The
// per-rule and per-round slices are written only by the goroutine driving
// the chase; the index counters are atomics because Match/Query callers may
// probe indexes concurrently after a Run.
type statsCollector struct {
	start    time.Time
	rules    []RuleStats
	perRound []RoundStats

	indexHits   atomic.Int64
	indexScans  atomic.Int64
	indexBuilds atomic.Int64
}

// startStats installs a fresh collector for one evaluation under WithStats
// and returns the function that freezes it into the report; without WithStats
// it clears the collector and the returned function does nothing. Deferred by
// the caller, so the report freezes on every return path, budget trips
// included.
func (e *Engine) startStats() func() {
	e.stats = nil
	if !e.opts.Stats {
		return func() {}
	}
	st := &statsCollector{start: time.Now(), rules: make([]RuleStats, len(e.ruleMeta))}
	for i := range e.ruleMeta {
		st.rules[i].Rule = e.ruleMeta[i].label
	}
	e.stats = st
	return func() { e.lastStats = st.snapshot(e) }
}

// snapshot freezes the collector into an immutable report.
func (st *statsCollector) snapshot(e *Engine) *ChaseStats {
	out := &ChaseStats{
		Rounds:      e.rounds,
		Derived:     e.derivedCount,
		Duplicates:  e.dupCount,
		TotalNanos:  int64(time.Since(st.start)),
		IndexHits:   st.indexHits.Load(),
		IndexScans:  st.indexScans.Load(),
		IndexBuilds: st.indexBuilds.Load(),
		IndexBytes:  e.indexBytes.Load(),
		Utilization: 1,
		Rules:       append([]RuleStats(nil), st.rules...),
		PerRound:    append([]RoundStats(nil), st.perRound...),
	}
	for i := range out.Rules {
		out.Candidates += out.Rules[i].Candidates
	}
	if se := e.stopError(); se != nil {
		out.Truncated = true
		out.Limit = se.Limit
	}
	return out
}

// Stats returns the report of the last Run, or nil when the engine runs
// without WithStats (or has not run yet). The report is a
// snapshot: later evaluations replace it, and reading it concurrently with
// the accessors is safe.
func (e *Engine) Stats() *ChaseStats { return e.lastStats }

// instrumenting reports whether the current Run collects per-job timings
// (stats or rule hooks). Checked once per chase job, not on the hot path.
func (e *Engine) instrumenting() bool {
	return e.stats != nil || e.opts.Hook.RuleStart != nil || e.opts.Hook.RuleDone != nil
}

// ruleStart marks the start of one chase job; it returns the zero time when
// the Run is uninstrumented, which ruleDone treats as "skip".
func (e *Engine) ruleStart(ri int) time.Time {
	if !e.instrumenting() {
		return time.Time{}
	}
	if fn := e.opts.Hook.RuleStart; fn != nil {
		fn(e.ruleMeta[ri].label, e.rounds)
	}
	return time.Now()
}

// ruleDone folds one finished chase job into the per-rule statistics and
// fires the RuleDone hook.
func (e *Engine) ruleDone(ri int, t0 time.Time, derived, duplicates int, candidates int64) {
	if t0.IsZero() {
		return
	}
	nanos := int64(time.Since(t0))
	if st := e.stats; st != nil {
		rs := &st.rules[ri]
		rs.Firings++
		rs.Derived += derived
		rs.Duplicates += duplicates
		rs.Candidates += candidates
		rs.EvalNanos += nanos
	}
	if fn := e.opts.Hook.RuleDone; fn != nil {
		fn(e.ruleMeta[ri].label, e.rounds, derived, duplicates, time.Duration(nanos))
	}
}
