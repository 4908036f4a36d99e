package datalog

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// runFull evaluates prog over facts and returns the sorted answer keys of
// goal — the oracle every goal-mode test compares against.
func runFull(t *testing.T, src string, facts []Fact, goal Atom, opts ...Option) []string {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := NewEngine(prog, opts...)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	e.AssertAll(facts)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return answerKeys(e.Query(goal))
}

// runGoal evaluates the goal demand-driven and returns sorted answer keys.
func runGoal(t *testing.T, src string, facts []Fact, goal Atom, opts ...Option) []string {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := NewGoalEngine(prog, goal, opts...)
	if err != nil {
		t.Fatalf("goal engine: %v", err)
	}
	e.AssertAll(facts)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return answerKeys(e.Query(goal))
}

func answerKeys(bs []Binding) []string {
	keys := make([]string, 0, len(bs))
	for _, b := range bs {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			parts = append(parts, v+"="+string(encodeValue(b[Variable(v)])))
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return keys
}

func checkSame(t *testing.T, full, demand []string, what string) {
	t.Helper()
	if len(full) != len(demand) {
		t.Fatalf("%s: full %d answers, demand %d answers\nfull:   %v\ndemand: %v",
			what, len(full), len(demand), full, demand)
	}
	for i := range full {
		if full[i] != demand[i] {
			t.Fatalf("%s: answer %d differs: full %q vs demand %q", what, i, full[i], demand[i])
		}
	}
}

const pathProg = `
edge(X, Y) -> path(X, Y).
edge(X, Z), path(Z, Y) -> path(X, Y).
`

func chainEdges(n int) []Fact {
	fs := make([]Fact, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, Fact{Pred: "edge", Args: []any{int64(i), int64(i + 1)}})
	}
	return fs
}

func TestParseGoal(t *testing.T) {
	g, err := ParseGoal("control(4, Y)")
	if err != nil {
		t.Fatal(err)
	}
	if g.Pred != "control" || len(g.Terms) != 2 {
		t.Fatalf("bad goal: %v", g)
	}
	if c, ok := g.Terms[0].(Constant); !ok || c.Value != int64(4) {
		t.Fatalf("integral numeric goal constant should normalize to int64, got %T %v", g.Terms[0], g.Terms[0])
	}
	if _, ok := g.Terms[1].(Variable); !ok {
		t.Fatalf("Y should parse as a variable, got %T", g.Terms[1])
	}

	if g, err = ParseGoal(`person("rossi", X).`); err != nil {
		t.Fatal(err)
	}
	if c, ok := g.Terms[0].(Constant); !ok || c.Value != "rossi" {
		t.Fatalf("string constant mangled: %v", g.Terms[0])
	}

	if g, err = ParseGoal("accown(1, Y, 0.25)"); err != nil {
		t.Fatal(err)
	}
	if c, ok := g.Terms[2].(Constant); !ok || c.Value != 0.25 {
		t.Fatalf("fractional constant must stay float64, got %T %v", g.Terms[2], g.Terms[2])
	}

	for _, bad := range []string{"", "control(", "control(1) extra", "control(1). control(2)", "X"} {
		if _, err := ParseGoal(bad); err == nil {
			t.Fatalf("ParseGoal(%q) should fail", bad)
		}
	}
}

func TestMagicRewriteRefusals(t *testing.T) {
	cases := []struct {
		name, prog, goal, reason string
	}{
		{"all free", pathProg, "path(X, Y)", "no bound arguments"},
		{"zero arity", "a() -> b().", "b()", "no arguments"},
		{"idb negation", `
edge(X, Y) -> path(X, Y).
path(X, Y), not path(Y, X) -> oneway(X, Y).
`, "oneway(1, Y)", "negates intensional"},
		{"existential head", "company(X) -> holder(X, Z).", "holder(1, Y)", "existential head"},
		{"bound aggregate target", `
own(X, Y, W), S = msum(W, <Y>) -> total(X, S).
`, "total(1, 0.5)", "aggregate target"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.prog)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			goal, err := ParseGoal(tc.goal)
			if err != nil {
				t.Fatalf("goal: %v", err)
			}
			_, err = MagicRewrite(prog, goal)
			var nd *ErrNotDemandable
			if !errors.As(err, &nd) {
				t.Fatalf("want ErrNotDemandable, got %v", err)
			}
			if !strings.Contains(nd.Reason, tc.reason) {
				t.Fatalf("reason %q does not mention %q", nd.Reason, tc.reason)
			}
		})
	}
}

func TestGoalEngineTransitiveClosure(t *testing.T) {
	facts := chainEdges(20)
	// Forward: everything reachable from 3.
	goal, _ := ParseGoal("path(3, Y)")
	checkSame(t, runFull(t, pathProg, facts, goal), runGoal(t, pathProg, facts, goal), "path(3,Y)")
	// Reverse: everything reaching 17 — demands the bf... no, fb adornment.
	goal, _ = ParseGoal("path(X, 17)")
	checkSame(t, runFull(t, pathProg, facts, goal), runGoal(t, pathProg, facts, goal), "path(X,17)")
	// Fully bound point query.
	goal, _ = ParseGoal("path(2, 9)")
	checkSame(t, runFull(t, pathProg, facts, goal), runGoal(t, pathProg, facts, goal), "path(2,9)")
	// Bound but absent.
	goal, _ = ParseGoal("path(9, 2)")
	if got := runGoal(t, pathProg, facts, goal); len(got) != 0 {
		t.Fatalf("path(9,2) should have no answers, got %v", got)
	}
}

func TestGoalEngineDerivesLess(t *testing.T) {
	// A short chain and a long disjoint chain; demanding from the short one
	// must not derive the long one's closure (the adorned bookkeeping costs a
	// constant factor, so the other component must dominate the fixpoint).
	facts := chainEdges(10)
	for i := 100; i < 180; i++ {
		facts = append(facts, Fact{Pred: "edge", Args: []any{int64(i), int64(i + 1)}})
	}
	prog, _ := Parse(pathProg)
	goal, _ := ParseGoal("path(0, Y)")
	e, err := NewGoalEngine(prog, goal)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(facts)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	full, _ := NewEngine(prog)
	full.AssertAll(facts)
	if err := full.Run(); err != nil {
		t.Fatal(err)
	}
	if e.DerivedCount() >= full.DerivedCount() {
		t.Fatalf("goal engine derived %d facts, full chase %d — demand did not prune",
			e.DerivedCount(), full.DerivedCount())
	}
	checkSame(t, answerKeys(full.Query(goal)), answerKeys(e.Query(goal)), "disjoint chains")
}

func TestGoalEngineExtensionalGoal(t *testing.T) {
	// Goal over a purely extensional predicate: the import rule alone answers.
	facts := chainEdges(5)
	goal, _ := ParseGoal("edge(2, Y)")
	checkSame(t, runFull(t, pathProg, facts, goal), runGoal(t, pathProg, facts, goal), "edge(2,Y)")
}

// The company-control program from the paper (Example 3.4): recursive msum
// aggregation over ownership edges. The goal-mode totals must match the full
// chase exactly, in both the forward (controller bound) and reverse
// (controllee bound) directions.
const controlProg = `
company(X) -> ccand(X, X).
ccand(X, Z), own(Z, Y, W), X != Y, S = msum(W, <Z>), S > 0.5 -> ccand(X, Y).
ccand(X, Y), X != Y -> control(X, Y).
`

const accownProg = `
own(X, Y, W), X != Y, S = msum(W, <X, Y>) -> accown(X, Y, S).
own(X, Z, W1), X != Z, accown(Z, Y, W2), X != Y, S = msum(W1 * W2, <Z, Y>) -> accown(X, Y, S).
`

// randomOwnership builds a small random company graph: n companies,
// preferential-attachment-ish ownership edges with random weights, plus —
// when cycles is set — a few back-edges creating ownership cycles (the
// aggregate fixpoint then converges geometrically instead of exactly, so
// cyclic instances suit threshold predicates like control, acyclic ones
// exact-total comparisons like accown).
func randomOwnership(rng *rand.Rand, n int, cycles bool) []Fact {
	fs := make([]Fact, 0, n*3)
	for i := 0; i < n; i++ {
		fs = append(fs, Fact{Pred: "company", Args: []any{int64(i)}})
	}
	for i := 1; i < n; i++ {
		k := 1 + rng.Intn(2)
		for j := 0; j < k; j++ {
			from := rng.Intn(i)
			w := 0.1 + 0.9*rng.Float64()
			fs = append(fs, Fact{Pred: "own", Args: []any{int64(from), int64(i), w}})
		}
	}
	if cycles {
		for j := 0; j < n/10+1; j++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				fs = append(fs, Fact{Pred: "own", Args: []any{int64(a), int64(b), 0.1 + 0.4*rng.Float64()}})
			}
		}
	}
	return fs
}

func TestGoalEngineControlDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 8; trial++ {
		facts := randomOwnership(rng, 24+trial*8, true)
		for _, gs := range []string{
			fmt.Sprintf("control(%d, Y)", rng.Intn(24)),
			fmt.Sprintf("control(X, %d)", rng.Intn(24)),
			fmt.Sprintf("control(%d, %d)", rng.Intn(24), rng.Intn(24)),
		} {
			goal, err := ParseGoal(gs)
			if err != nil {
				t.Fatal(err)
			}
			eps := WithMinAggDelta(1e-6)
			checkSame(t, runFull(t, controlProg, facts, goal, eps), runGoal(t, controlProg, facts, goal, eps),
				fmt.Sprintf("trial %d %s", trial, gs))
		}
	}
}

// TestAggregateWaitsForConditions: an aggregate counts only the rows that
// pass every condition of its rule, also when an assignment later in the body
// binds a condition's input, under either textual order of the conditions,
// and goal mode agrees with the full chase.
func TestAggregateWaitsForConditions(t *testing.T) {
	for _, tc := range []struct {
		rules []string // one rule, its two conditions in both textual orders
		facts []Fact
		goal  string
		want  float64 // the one answer S of the goal
	}{
		{
			rules: []string{
				`p(X, W, K), Z > 5, Z = K * 1, S = msum(W, <K>) -> t(X, S).`,
				`p(X, W, K), Z = K * 1, Z > 5, S = msum(W, <K>) -> t(X, S).`,
			},
			facts: []Fact{
				{Pred: "p", Args: []any{int64(1), 0.3, int64(1)}},
				{Pred: "p", Args: []any{int64(1), 0.4, int64(10)}},
			},
			goal: "t(1, S)",
			want: 0.4,
		},
		{
			rules: []string{
				`own(X, Y, W), P > 5, P = W * 10, S = msum(W, <Y>) -> big(X, S).`,
				`own(X, Y, W), P = W * 10, P > 5, S = msum(W, <Y>) -> big(X, S).`,
			},
			facts: []Fact{
				{Pred: "own", Args: []any{int64(1), int64(2), 0.3}},
				{Pred: "own", Args: []any{int64(1), int64(3), 0.7}},
			},
			goal: "big(1, S)",
			want: 0.7,
		},
	} {
		goal, err := ParseGoal(tc.goal)
		if err != nil {
			t.Fatal(err)
		}
		want := answerKeys([]Binding{{"S": tc.want}})
		for _, src := range tc.rules {
			full := runFull(t, src, tc.facts, goal)
			checkSame(t, want, full, "want vs full chase of "+src)
			checkSame(t, full, runGoal(t, src, tc.facts, goal), src+" goal "+tc.goal)
		}
	}
}

// accownTotals evaluates and reduces accown to its final per-(X,Y) totals —
// the engine stores every intermediate monotone-aggregate value as a fact,
// and those intermediates depend on evaluation order, so the differential
// contract for aggregates is max-per-group (exactly how ivm and vadalog read
// accown), up to the aggregate convergence epsilon on cyclic graphs.
func accownTotals(t *testing.T, facts []Fact, goal Atom, goalMode bool) map[string]float64 {
	t.Helper()
	prog, err := Parse(accownProg)
	if err != nil {
		t.Fatal(err)
	}
	var e *Engine
	if goalMode {
		e, err = NewGoalEngine(prog, goal, WithMinAggDelta(1e-9))
	} else {
		e, err = NewEngine(prog, WithMinAggDelta(1e-9))
	}
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(facts)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, f := range e.Facts("accown") {
		if _, dup := out[fmt.Sprintf("%v|%v", f.Args[0], f.Args[1])]; dup {
			t.Fatalf("two accown rows for the group of %v", f)
		}
		// Keep only groups matching the goal's bound positions: the full
		// chase has totals for every pair, the demand cone only for the goal's.
		match := true
		for i, tm := range goal.Terms {
			if c, ok := tm.(Constant); ok && !valueEqual(f.Args[i], c.Value) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		out[fmt.Sprintf("%v|%v", f.Args[0], f.Args[1])] = f.Args[2].(float64)
	}
	return out
}

func TestGoalEngineAccownDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 6; trial++ {
		facts := randomOwnership(rng, 18+trial*4, false)
		for _, gs := range []string{
			fmt.Sprintf("accown(%d, Y, W)", rng.Intn(18)),
			fmt.Sprintf("accown(X, %d, W)", rng.Intn(18)),
		} {
			goal, err := ParseGoal(gs)
			if err != nil {
				t.Fatal(err)
			}
			full := accownTotals(t, facts, goal, false)
			demand := accownTotals(t, facts, goal, true)
			if len(full) != len(demand) {
				t.Fatalf("trial %d %s: full has %d groups, demand %d", trial, gs, len(full), len(demand))
			}
			for k, fv := range full {
				dv, ok := demand[k]
				if !ok {
					t.Fatalf("trial %d %s: group %s missing from demand answers", trial, gs, k)
				}
				if diff := fv - dv; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("trial %d %s: group %s total diverges: full %v demand %v", trial, gs, k, fv, dv)
				}
			}
		}
	}
}

func TestGoalEngineMultiHead(t *testing.T) {
	prog := `
edge(X, Y) -> fwd(X, Y), bwd(Y, X).
fwd(X, Z), bwd(Z, Y) -> sib(X, Y).
`
	facts := chainEdges(8)
	goal, _ := ParseGoal("sib(3, Y)")
	checkSame(t, runFull(t, prog, facts, goal), runGoal(t, prog, facts, goal), "multi-head sib(3,Y)")
}

func TestGoalEngineEDBNegation(t *testing.T) {
	prog := `
edge(X, Y), not blocked(X, Y) -> path(X, Y).
edge(X, Z), not blocked(X, Z), path(Z, Y) -> path(X, Y).
`
	facts := chainEdges(12)
	facts = append(facts, Fact{Pred: "blocked", Args: []any{int64(5), int64(6)}})
	goal, _ := ParseGoal("path(2, Y)")
	checkSame(t, runFull(t, prog, facts, goal), runGoal(t, prog, facts, goal), "edb negation")
}

func TestGoalEngineBudgetPropagates(t *testing.T) {
	prog, _ := Parse(pathProg)
	goal, _ := ParseGoal("path(0, Y)")
	e, err := NewGoalEngine(prog, goal, WithBudget(Budget{MaxFacts: 5}))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(chainEdges(100))
	if err := e.Run(); err == nil {
		t.Fatal("expected a budget error on a 100-node chain with MaxFacts=5")
	}
}

func TestStripDemandMarkers(t *testing.T) {
	prog, _ := Parse(pathProg)
	goal, _ := ParseGoal("path(0, 3)")
	e, err := NewGoalEngine(prog, goal, WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(chainEdges(5))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Has(Fact{Pred: "path", Args: []any{int64(0), int64(3)}}) {
		t.Fatal("goal fact not derived")
	}
	lines := e.ExplainTree(Fact{Pred: "path", Args: []any{int64(0), int64(3)}}, 32)
	clean := StripDemandMarkers(lines)
	if len(clean) == 0 {
		t.Fatal("explanation vanished entirely")
	}
	for _, l := range clean {
		if strings.Contains(l, "magic#") || strings.Contains(l, "#bf") || strings.Contains(l, "#fb") || strings.Contains(l, "#bb") {
			t.Fatalf("demand marker leaked into explanation: %q", l)
		}
	}
	// The underlying edges must still appear as premises.
	joined := strings.Join(clean, "\n")
	if !strings.Contains(joined, "edge(") {
		t.Fatalf("explanation lost its extensional premises:\n%s", joined)
	}
}

func TestDemandSeedShape(t *testing.T) {
	prog, _ := Parse(pathProg)
	goal, _ := ParseGoal("path(7, Y)")
	d, err := MagicRewrite(prog, goal)
	if err != nil {
		t.Fatal(err)
	}
	if d.Seed.Pred != "magic#path#bf" {
		t.Fatalf("seed pred: %s", d.Seed.Pred)
	}
	if len(d.Seed.Args) != 1 || d.Seed.Args[0] != int64(7) {
		t.Fatalf("seed args: %v", d.Seed.Args)
	}
	if d.Goal.Pred != "path" {
		t.Fatalf("goal: %v", d.Goal)
	}
	// Every rewritten program must validate under the ordinary engine rules.
	for _, r := range d.Program.Rules {
		if err := r.Validate(); err != nil {
			t.Fatalf("generated rule %q invalid: %v", r.String(), err)
		}
	}
}
