package datalog

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// refClosure computes transitive closure by Warshall, the reference for the
// recursive Datalog program.
func refClosure(n int, edges [][2]int) map[[2]int]bool {
	reach := map[[2]int]bool{}
	for _, e := range edges {
		reach[e] = true
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if reach[[2]int{i, k}] && reach[[2]int{k, j}] {
					reach[[2]int{i, j}] = true
				}
			}
		}
	}
	return reach
}

// Property: the engine's transitive closure equals Warshall's on random
// digraphs.
func TestClosureMatchesWarshallProperty(t *testing.T) {
	src := `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
	`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 8
		var edges [][2]int
		var edb []Fact
		for i := 0; i < 14; i++ {
			a, b := r.Intn(n), r.Intn(n)
			edges = append(edges, [2]int{a, b})
			edb = append(edb, Fact{Pred: "edge", Args: []any{int64(a), int64(b)}})
		}
		want := refClosure(n, edges)
		e, err := NewEngine(MustParse(src))
		if err != nil {
			return false
		}
		e.AssertAll(edb)
		if err := e.Run(); err != nil {
			return false
		}
		got := map[[2]int]bool{}
		for _, fct := range e.Facts("path") {
			got[[2]int{int(fct.Args[0].(int64)), int(fct.Args[1].(int64))}] = true
		}
		if len(got) != len(want) {
			return false
		}
		for p := range want {
			if !got[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: naive and semi-naive evaluation derive identical fact sets.
func TestNaiveEqualsSemiNaiveProperty(t *testing.T) {
	src := `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
		path(X, Y), path(Y, X), X != Y -> scc(X, Y).
	`
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var edb []Fact
		for i := 0; i < 12; i++ {
			edb = append(edb, Fact{Pred: "edge", Args: []any{int64(r.Intn(6)), int64(r.Intn(6))}})
		}
		run := func(naive bool) (int, int) {
			var opts []Option
			if naive {
				opts = append(opts, WithNaive())
			}
			e, _ := NewEngine(MustParse(src), opts...)
			e.AssertAll(edb)
			if err := e.Run(); err != nil {
				return -1, -1
			}
			return len(e.Facts("path")), len(e.Facts("scc"))
		}
		p1, s1 := run(false)
		p2, s2 := run(true)
		return p1 == p2 && s1 == s2 && p1 >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// An aggregate's head relation holds one row per group, at the group's
// final total, whatever order the contributions arrive in.
func TestAggregateHoldsOneRowPerGroup(t *testing.T) {
	e, _ := NewEngine(MustParse(`a(X, V), M = mmax(V, <V>) -> b(X, M).`))
	e.AssertAll([]Fact{
		{Pred: "a", Args: []any{"g1", 1.0}},
		{Pred: "a", Args: []any{"g1", 3.0}},
		{Pred: "a", Args: []any{"g1", 2.0}},
		{Pred: "a", Args: []any{"g2", 5.0}},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Fact{{Pred: "b", Args: []any{"g1", 3.0}}, {Pred: "b", Args: []any{"g2", 5.0}}}
	if got := e.Facts("b"); !reflect.DeepEqual(got, want) {
		t.Errorf("b = %v, want %v", got, want)
	}
	if e.Has(Fact{Pred: "b", Args: []any{"g1", 1.0}}) {
		t.Error("Has(b(g1, 1)) = true for a superseded total")
	}
}

func TestEmptyProgramAndEDBOnly(t *testing.T) {
	e, err := NewEngine(&Program{})
	if err != nil {
		t.Fatal(err)
	}
	e.Assert(Fact{Pred: "a", Args: []any{int64(1)}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Facts("a")) != 1 {
		t.Error("EDB lost")
	}
}

func TestArityMismatchDoesNotUnify(t *testing.T) {
	e, _ := NewEngine(MustParse(`a(X, Y) -> b(X, Y).`))
	e.Assert(Fact{Pred: "a", Args: []any{int64(1)}})           // arity 1
	e.Assert(Fact{Pred: "a", Args: []any{int64(1), int64(2)}}) // arity 2
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Facts("b")) != 1 {
		t.Errorf("b facts = %d, want 1 (only the arity-2 a)", len(e.Facts("b")))
	}
}

func TestStringComparisons(t *testing.T) {
	e, _ := NewEngine(MustParse(`a(X), X != "skip" -> b(X).`))
	e.AssertAll([]Fact{
		{Pred: "a", Args: []any{"keep"}},
		{Pred: "a", Args: []any{"skip"}},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(e.Facts("b")) != 1 {
		t.Errorf("b = %v", e.Facts("b"))
	}
}

func TestAssertDuplicateFactIdempotent(t *testing.T) {
	e, _ := NewEngine(&Program{})
	f := Fact{Pred: "a", Args: []any{int64(1), "x"}}
	if !e.Assert(f) {
		t.Error("first assert returned false")
	}
	if e.Assert(f) {
		t.Error("duplicate assert returned true")
	}
	if len(e.Facts("a")) != 1 {
		t.Errorf("facts = %d", len(e.Facts("a")))
	}
}

func TestSortFactsDeterministic(t *testing.T) {
	fs := []Fact{
		{Pred: "b", Args: []any{int64(2)}},
		{Pred: "a", Args: []any{int64(9)}},
		{Pred: "a", Args: []any{int64(1)}},
	}
	SortFacts(fs)
	if fs[0].Pred != "a" || fs[0].Args[0].(int64) != 1 {
		t.Errorf("sorted = %v", fs)
	}
}

func TestConstantStringRendering(t *testing.T) {
	cases := map[string]Constant{
		`"x"`:  Str("x"),
		`1.5`:  Num(1.5),
		`7`:    Int(7),
		`true`: Bool(true),
	}
	for want, c := range cases {
		if got := c.String(); got != want {
			t.Errorf("Constant.String() = %q, want %q", got, want)
		}
	}
}

func TestQueryConjunctiveGoal(t *testing.T) {
	e := run2(t, `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
	`, []Fact{
		{Pred: "edge", Args: []any{"a", "b"}},
		{Pred: "edge", Args: []any{"b", "c"}},
		{Pred: "edge", Args: []any{"b", "d"}},
	})
	// Which nodes are reachable from a through b?
	answers := e.Query(
		Atom{Pred: "path", Terms: []Term{Str("a"), Variable("M")}},
		Atom{Pred: "path", Terms: []Term{Variable("M"), Variable("Y")}},
	)
	got := map[string]bool{}
	for _, b := range answers {
		got[b["M"].(string)+"→"+b["Y"].(string)] = true
	}
	for _, want := range []string{"b→c", "b→d"} {
		if !got[want] {
			t.Errorf("missing answer %s; got %v", want, got)
		}
	}
}

func TestQueryGroundGoal(t *testing.T) {
	e := run2(t, `edge(X, Y) -> path(X, Y).`, []Fact{
		{Pred: "edge", Args: []any{"a", "b"}},
	})
	if n := len(e.Query(Atom{Pred: "path", Terms: []Term{Str("a"), Str("b")}})); n != 1 {
		t.Errorf("ground goal answers = %d, want 1 (empty binding)", n)
	}
	if n := len(e.Query(Atom{Pred: "path", Terms: []Term{Str("b"), Str("a")}})); n != 0 {
		t.Errorf("false goal answers = %d, want 0", n)
	}
}

func TestQueryDeduplicates(t *testing.T) {
	e := run2(t, `edge(X, Y) -> reach(X).`, []Fact{
		{Pred: "edge", Args: []any{"a", "b"}},
		{Pred: "edge", Args: []any{"a", "c"}},
	})
	if n := len(e.Query(Atom{Pred: "reach", Terms: []Term{Variable("X")}})); n != 1 {
		t.Errorf("answers = %d, want 1 (deduplicated)", n)
	}
}

// TestQuerySharedVariableAndWildcard: a goal whose atoms share a variable,
// repeat one inside an atom and carry a wildcard answers exactly the
// brute-force join over random graphs, and "_" never appears in an answer.
func TestQuerySharedVariableAndWildcard(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		edb := randomEDB(rand.New(rand.NewSource(seed)))
		e := run2(t, `own(X, Y, W) -> link(X, Y).
			own(X, Y, W) -> link(Y, Y).`, edb)
		// own(X, Y, _), link(Y, Y), own(Y, Z, W): two hops through a node
		// that is owned by someone.
		goal := []Atom{
			{Pred: "own", Terms: []Term{Variable("X"), Variable("Y"), Variable("_")}},
			{Pred: "link", Terms: []Term{Variable("Y"), Variable("Y")}},
			{Pred: "own", Terms: []Term{Variable("Y"), Variable("Z"), Variable("W")}},
		}
		var want []Binding
		for _, a := range edb {
			for _, b := range edb {
				if a.Pred == "own" && b.Pred == "own" && valueEqual(a.Args[1], b.Args[0]) {
					want = append(want, Binding{"X": a.Args[0], "Y": a.Args[1], "Z": b.Args[1], "W": b.Args[2]})
				}
			}
		}
		got := e.Query(goal...)
		for _, b := range got {
			if _, ok := b["_"]; ok || len(b) != 4 {
				t.Fatalf("seed %d: answer %v binds the wildcard or misses a variable", seed, b)
			}
		}
		checkSame(t, uniqueKeys(answerKeys(want)), answerKeys(got), fmt.Sprintf("seed %d", seed))
	}
}

// uniqueKeys drops repeats from a sorted key list.
func uniqueKeys(keys []string) []string {
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || k != keys[i-1] {
			out = append(out, k)
		}
	}
	return out
}

// run2 mirrors the run helper from engine_test without Options.
func run2(t *testing.T, src string, edb []Fact) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(edb)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}
