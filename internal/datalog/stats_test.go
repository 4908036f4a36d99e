package datalog

// Coverage for the observability layer: ChaseStats collection (indexed and
// scan mode), the lifecycle hooks and budget-trip notification.

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// statsProgram derives a transitive closure; the diamond in statsEDB makes
// path(a,d) derivable two ways, so the run always absorbs duplicates.
const statsProgram = `
edge(X, Y) -> path(X, Y).
path(X, Z), edge(Z, Y) -> path(X, Y).
`

func statsEDB() []Fact {
	return []Fact{
		{Pred: "edge", Args: []any{"a", "b"}},
		{Pred: "edge", Args: []any{"a", "c"}},
		{Pred: "edge", Args: []any{"b", "d"}},
		{Pred: "edge", Args: []any{"c", "d"}},
		{Pred: "edge", Args: []any{"d", "e"}},
	}
}

func statsEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(statsProgram), opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(statsEDB())
	return e
}

func TestChaseStatsSequential(t *testing.T) {
	e := statsEngine(t, WithStats())
	if e.Stats() != nil {
		t.Fatal("Stats() non-nil before the first Run")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st == nil {
		t.Fatal("Stats() nil after a Run with WithStats")
	}
	if st.Rounds != e.Rounds() {
		t.Errorf("Rounds = %d, engine reports %d", st.Rounds, e.Rounds())
	}
	if st.Derived != len(e.Facts("path")) {
		t.Errorf("Derived = %d, want %d (the path facts)", st.Derived, len(e.Facts("path")))
	}
	if st.Duplicates == 0 {
		t.Error("Duplicates = 0 on a diamond closure; the re-derivation was not counted")
	}
	if st.TotalNanos <= 0 {
		t.Errorf("TotalNanos = %d", st.TotalNanos)
	}
	if st.Utilization != 1 {
		t.Errorf("Utilization = %v, want 1", st.Utilization)
	}
	if st.Truncated || st.Limit != "" {
		t.Errorf("complete run marked truncated: %+v", st)
	}

	// Per-rule rows: one per program rule, labeled, consistent with totals.
	if len(st.Rules) != 2 {
		t.Fatalf("len(Rules) = %d, want 2", len(st.Rules))
	}
	sumDerived, sumDup, sumFirings := 0, 0, 0
	var sumCand int64
	for _, r := range st.Rules {
		if r.Rule == "" {
			t.Error("rule row without a label")
		}
		sumDerived += r.Derived
		sumDup += r.Duplicates
		sumFirings += r.Firings
		sumCand += r.Candidates
	}
	// Every head instantiation unified at least one candidate fact.
	if sumCand != st.Candidates || st.Candidates < int64(st.Derived+st.Duplicates) {
		t.Errorf("per-rule Candidates sums to %d, total %d, for %d head instantiations",
			sumCand, st.Candidates, st.Derived+st.Duplicates)
	}
	if sumDerived != st.Derived {
		t.Errorf("per-rule Derived sums to %d, total %d", sumDerived, st.Derived)
	}
	if sumDup != st.Duplicates {
		t.Errorf("per-rule Duplicates sums to %d, total %d", sumDup, st.Duplicates)
	}
	if sumFirings < 2 {
		t.Errorf("Firings sum = %d, want at least one per rule", sumFirings)
	}

	// Per-round rows mirror the chase: one per round, deltas sum to Derived.
	if len(st.PerRound) != st.Rounds {
		t.Fatalf("len(PerRound) = %d, Rounds = %d", len(st.PerRound), st.Rounds)
	}
	roundFacts := 0
	for i, r := range st.PerRound {
		if r.Round != i {
			t.Errorf("PerRound[%d].Round = %d", i, r.Round)
		}
		roundFacts += r.NewFacts
	}
	if roundFacts != st.Derived {
		t.Errorf("per-round NewFacts sums to %d, Derived = %d", roundFacts, st.Derived)
	}

	// The recursive join binds Z in edge(Z, Y), so the indexed engine must
	// serve at least one lookup from a positional index it built.
	if st.IndexHits == 0 || st.IndexBuilds == 0 {
		t.Errorf("indexed run: IndexHits = %d, IndexBuilds = %d, want > 0", st.IndexHits, st.IndexBuilds)
	}
	if st.IndexBytes != e.indexBytes {
		t.Errorf("IndexBytes = %d, engine reports %d", st.IndexBytes, e.indexBytes)
	}
}

func TestChaseStatsOffByDefault(t *testing.T) {
	e := statsEngine(t)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Stats() != nil {
		t.Error("Stats() non-nil without WithStats")
	}
}

func TestChaseStatsNoIndexMode(t *testing.T) {
	e := statsEngine(t, WithStats(), WithNoIndex())
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.IndexHits != 0 || st.IndexBuilds != 0 {
		t.Errorf("scan mode: IndexHits = %d, IndexBuilds = %d, want 0", st.IndexHits, st.IndexBuilds)
	}
	if st.IndexScans == 0 {
		t.Error("scan mode: IndexScans = 0, the fallback path was not counted")
	}
}

// TestChaseStatsReset verifies a second Run replaces the report instead of
// accumulating into it.
func TestChaseStatsReset(t *testing.T) {
	e := statsEngine(t, WithStats())
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first := e.Stats()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	second := e.Stats()
	if second == first {
		t.Fatal("Stats() returned the same snapshot for two Runs")
	}
	// The second chase starts from the fixpoint: nothing new derives.
	if second.Derived != 0 {
		t.Errorf("re-run Derived = %d, want 0 at fixpoint", second.Derived)
	}
	if first.Derived == 0 {
		t.Error("first snapshot was overwritten in place")
	}
}

// goroutineID parses the calling goroutine's id off its stack header,
// "goroutine N [running]:".
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestHooksFire checks the Hook contract: every callback fires on the
// goroutine that called Run, each RuleStart is followed by its own RuleDone
// before the next RuleStart, and the counts agree with the engine.
func TestHooksFire(t *testing.T) {
	var mu sync.Mutex
	runner := goroutineID()
	starts, dones, derivedViaHook := 0, 0, 0
	var rounds []int
	open := "" // the rule whose RuleStart has not seen its RuleDone yet
	onRunner := func(cb string) {
		if id := goroutineID(); id != runner {
			t.Errorf("%s fired on goroutine %s, Run was called on %s", cb, id, runner)
		}
	}
	h := Hook{
		RuleStart: func(rule string, round int) {
			mu.Lock()
			defer mu.Unlock()
			onRunner("RuleStart")
			if rule == "" {
				t.Error("RuleStart with empty label")
			}
			if open != "" {
				t.Errorf("RuleStart(%q) before the RuleDone of %q", rule, open)
			}
			open = rule
			starts++
		},
		RuleDone: func(rule string, round int, derived, duplicates int, elapsed time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			onRunner("RuleDone")
			if rule != open {
				t.Errorf("RuleDone(%q) while %q is the open RuleStart", rule, open)
			}
			open = ""
			dones++
			derivedViaHook += derived
		},
		RoundDone: func(round, stratum, newFacts int, elapsed time.Duration) {
			mu.Lock()
			defer mu.Unlock()
			onRunner("RoundDone")
			if open != "" {
				t.Errorf("RoundDone(%d) before the RuleDone of %q", round, open)
			}
			rounds = append(rounds, newFacts)
		},
	}
	e := statsEngine(t, WithHook(h), WithStats())
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if starts == 0 || starts != dones {
		t.Errorf("RuleStart fired %d times, RuleDone %d", starts, dones)
	}
	if derivedViaHook != len(e.Facts("path")) {
		t.Errorf("RuleDone derived sums to %d, want %d", derivedViaHook, len(e.Facts("path")))
	}
	if len(rounds) != e.Rounds() {
		t.Errorf("RoundDone fired %d times, engine ran %d rounds", len(rounds), e.Rounds())
	}
	total := 0
	for _, n := range rounds {
		total += n
	}
	if total != e.Stats().Derived {
		t.Errorf("RoundDone newFacts sums to %d, Derived = %d", total, e.Stats().Derived)
	}
}

// TestHooksWithoutStats: hooks alone (no WithStats) still fire, and Stats()
// stays nil — the two features are independent.
func TestHooksWithoutStats(t *testing.T) {
	var dones atomic.Int64
	e := statsEngine(t, WithHook(Hook{
		RuleDone: func(string, int, int, int, time.Duration) { dones.Add(1) },
	}))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if dones.Load() == 0 {
		t.Error("RuleDone never fired")
	}
	if e.Stats() != nil {
		t.Error("Stats() non-nil without WithStats")
	}
}

func TestBudgetTripHookFiresOnce(t *testing.T) {
	var trips atomic.Int64
	var tripped *BudgetExceededError
	e := statsEngine(t,
		WithStats(),
		WithBudget(Budget{MaxFacts: 2, CheckEvery: 1}),
		WithHook(Hook{BudgetTrip: func(err *BudgetExceededError) {
			if trips.Add(1) == 1 {
				tripped = err
			}
		}}),
	)
	err := e.Run()
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitFacts {
		t.Fatalf("want max-facts trip, got %v", err)
	}
	if n := trips.Load(); n != 1 {
		t.Errorf("BudgetTrip fired %d times, want once", n)
	}
	if tripped == nil || tripped.Limit != LimitFacts {
		t.Errorf("hook received %+v", tripped)
	}
	st := e.Stats()
	if !st.Truncated || st.Limit != LimitFacts {
		t.Errorf("stats not marked truncated: truncated=%v limit=%q", st.Truncated, st.Limit)
	}
}
