package datalog_test

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/vadalog"
)

// derivedKeys returns the sorted keys of every fact of the program's head
// predicates in e.
func derivedKeys(prog *datalog.Program, e *datalog.Engine) []string {
	var keys []string
	for pred := range prog.HeadPreds() {
		for _, f := range e.Facts(pred) {
			keys = append(keys, f.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// TestSharedCompiledPlan runs eight goroutines of engines instantiated from
// one Compiled per program — the control + close-link program, and the
// what-if maintenance program over an affected subset — and checks every
// result against a private NewEngine run, fact for fact. Under -race it pins
// that nothing writes a compiled program after Compile.
func TestSharedCompiledPlan(t *testing.T) {
	facts := registryFacts()
	maintenanceFacts := slices.Clone(facts)
	for _, f := range facts {
		if id, ok := f.Args[0].(int64); ok && (f.Pred == "company" || f.Pred == "person") && id%3 == 0 {
			maintenanceFacts = append(maintenanceFacts, datalog.Fact{Pred: "affected", Args: []any{id}})
		}
	}
	for _, tc := range []struct {
		name  string
		src   string
		facts []datalog.Fact
	}{
		{"control+closelink", vadalog.ControlProgram + vadalog.CloseLinkProgram, facts},
		{"maintenance", vadalog.MaintenanceProgram(), maintenanceFacts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := datalog.MustParse(tc.src)
			run := func(e *datalog.Engine) []string {
				e.AssertAll(tc.facts)
				if err := e.Run(); err != nil {
					t.Error(err)
				}
				return derivedKeys(prog, e)
			}
			private, err := datalog.NewEngine(prog, datalog.WithMinAggDelta(1e-4))
			if err != nil {
				t.Fatal(err)
			}
			want := run(private)
			if len(want) < 100 {
				t.Fatalf("vacuous program: %d derived facts", len(want))
			}

			shared, err := datalog.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]string, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = run(shared.NewEngine(datalog.WithMinAggDelta(1e-4)))
				}()
			}
			wg.Wait()
			for i, keys := range got {
				if !slices.Equal(keys, want) {
					t.Errorf("goroutine %d: %d facts differ from the private engine's %d", i, len(keys), len(want))
				}
			}
		})
	}
}

// TestCompileRefusesNonMonotoneAggregateConditions: a condition on an
// aggregate's running total that a later contribution can falsify is refused,
// naming the rule and the condition, since the chase would act on a partial
// total: over e(a, b, 0.3) and e(a, c, 0.4) the msum of a reads 0.3 first, so
// S < 0.5 derived small(a) although a's total is 0.7, and so did T < 0.5
// after T = S + 0.0. A condition in the direction the aggregate moves, or on
// anything else, compiles.
func TestCompileRefusesNonMonotoneAggregateConditions(t *testing.T) {
	for _, tc := range []struct {
		rule string
		ok   bool
	}{
		{"e(X, Y, W), S = msum(W, <Y>), S < 0.5 -> small(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), S <= 0.5 -> small(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), S == 0.7 -> exact(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), S != 0.7 -> other(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), 0.5 > S -> small(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), S * 2.0 > 1.0 -> big(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), S > S * 0.5 -> big(X).", false},
		{"e(X, Y, W), S = mmin(W, <Y>), S > 0.5 -> dear(X).", false},
		{"e(X, Y, W), S = mprod(W, <Y>), S > 0.5 -> big(X).", false},
		// An assignment from the target carries it: only the target itself
		// may be compared.
		{"e(X, Y, W), S = msum(W, <Y>), T = S + 0.0, T < 0.5 -> small(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), U = T + 1.0, T = S * 2.0, U < 2.0 -> small(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), T = S * -1.0, T > -0.5 -> small(X).", false},
		{"e(X, Y, W), S = msum(W, <Y>), T = W * 2.0, T < 0.5, S > 0.1 -> p(X, T).", true},
		{"e(X, Y, W), S = msum(W, <Y>), S > 0.5 -> big(X).", true},
		{"e(X, Y, W), S = msum(W, <Y>), S >= 0.5 -> big(X).", true},
		{"e(X, Y, W), S = msum(W, <Y>), 0.5 < S -> big(X).", true},
		{"e(X, Y, W), S = msum(W, <Y>), S > W -> big(X).", true},
		{"e(X, Y, W), S = mmax(W, <Y>), S >= 0.5 -> big(X).", true},
		{"e(X, Y, W), C = mcount(1, <Y>), C > 1 -> many(X).", true},
		{"e(X, Y, W), S = mmin(W, <Y>), S < 0.5 -> cheap(X).", true},
		{"e(X, Y, W), S = mmin(W, <Y>), 0.5 >= S -> cheap(X).", true},
		{"e(X, Y, W), W < 0.5, S = msum(W, <Y>) -> total(X, S).", true},
	} {
		prog, err := datalog.Parse(tc.rule)
		if err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		_, err = datalog.Compile(prog)
		if tc.ok != (err == nil) {
			t.Errorf("%s: Compile err = %v, want ok = %v", tc.rule, err, tc.ok)
		}
		body := prog.Rules[0].Body
		if cond := body[len(body)-1].String(); err != nil && !strings.Contains(err.Error(), cond) {
			t.Errorf("%s: error %q does not name the condition %s", tc.rule, err, cond)
		}
	}
}
