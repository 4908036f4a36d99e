package datalog

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

func run(t *testing.T, src string, edb []Fact, opts ...Option) *Engine {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e, err := NewEngine(prog, opts...)
	if err != nil {
		t.Fatalf("new engine: %v", err)
	}
	e.AssertAll(edb)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

// match is a pattern probe through Query: nil positions of pattern are
// fresh variables, the others constants. It returns one binding per
// matching fact.
func match(e *Engine, pred string, pattern ...any) []Binding {
	a := Atom{Pred: pred, Terms: make([]Term, len(pattern))}
	for i, p := range pattern {
		if p == nil {
			a.Terms[i] = Variable(fmt.Sprintf("V%d", i))
		} else {
			a.Terms[i] = Constant{Value: p}
		}
	}
	return e.Query(a)
}

func TestTransitiveClosure(t *testing.T) {
	src := `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
	`
	edb := []Fact{
		{Pred: "edge", Args: []any{"a", "b"}},
		{Pred: "edge", Args: []any{"b", "c"}},
		{Pred: "edge", Args: []any{"c", "d"}},
	}
	e := run(t, src, edb)
	if n := len(e.Facts("path")); n != 6 {
		t.Errorf("path facts = %d, want 6: %v", n, e.Facts("path"))
	}
	if !e.Has(Fact{Pred: "path", Args: []any{"a", "d"}}) {
		t.Error("missing path(a,d)")
	}
}

func TestTransitiveClosureCycle(t *testing.T) {
	src := `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
	`
	edb := []Fact{
		{Pred: "edge", Args: []any{"a", "b"}},
		{Pred: "edge", Args: []any{"b", "a"}},
	}
	e := run(t, src, edb)
	// Cycle: paths a→b, b→a, a→a, b→b; must terminate.
	if n := len(e.Facts("path")); n != 4 {
		t.Errorf("path facts = %d, want 4: %v", n, e.Facts("path"))
	}
}

func TestConstantsInAtoms(t *testing.T) {
	src := `
		typed(X, "person"), typed(Y, "person"), X != Y -> pair(X, Y).
	`
	edb := []Fact{
		{Pred: "typed", Args: []any{"p1", "person"}},
		{Pred: "typed", Args: []any{"p2", "person"}},
		{Pred: "typed", Args: []any{"c1", "company"}},
	}
	e := run(t, src, edb)
	if n := len(e.Facts("pair")); n != 2 {
		t.Errorf("pair facts = %d, want 2 (p1,p2 and p2,p1): %v", n, e.Facts("pair"))
	}
}

func TestArithmeticAndComparison(t *testing.T) {
	src := `
		own(X, Y, W), V = W * 2, V >= 0.5 -> big(X, Y, V).
	`
	edb := []Fact{
		{Pred: "own", Args: []any{"a", "b", 0.3}},
		{Pred: "own", Args: []any{"a", "c", 0.1}},
	}
	e := run(t, src, edb)
	facts := e.Facts("big")
	if len(facts) != 1 {
		t.Fatalf("big facts = %v, want exactly one", facts)
	}
	if got := facts[0].Args[2].(float64); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("big value = %v, want 0.6", got)
	}
}

func TestSkolemFunctions(t *testing.T) {
	src := `
		person(N), Z = #skp(N) -> node(Z, N).
		company(N), Z = #skc(N) -> node(Z, N).
	`
	edb := []Fact{
		{Pred: "person", Args: []any{"rossi"}},
		{Pred: "company", Args: []any{"rossi"}}, // same name, different type
		{Pred: "person", Args: []any{"verdi"}},
	}
	e := run(t, src, edb)
	nodes := e.Facts("node")
	if len(nodes) != 3 {
		t.Fatalf("node facts = %d, want 3 (disjoint skolem ranges): %v", len(nodes), nodes)
	}
	// Determinism: same function+args yields the same OID.
	a := NewSkolem("skp", "rossi")
	b := NewSkolem("skp", "rossi")
	if a != b {
		t.Error("skolem not deterministic")
	}
	// Injectivity and disjoint ranges.
	if NewSkolem("skp", "rossi") == NewSkolem("skp", "verdi") {
		t.Error("skolem not injective")
	}
	if NewSkolem("skp", "rossi") == NewSkolem("skc", "rossi") {
		t.Error("skolem ranges not disjoint")
	}
}

func TestExistentialHeadInventsNulls(t *testing.T) {
	src := `
		own(X, Y, W) -> link(Z, X, Y, W).
	`
	edb := []Fact{
		{Pred: "own", Args: []any{"a", "b", 0.5}},
		{Pred: "own", Args: []any{"a", "c", 0.5}},
	}
	e := run(t, src, edb)
	links := e.Facts("link")
	if len(links) != 2 {
		t.Fatalf("link facts = %d, want 2: %v", len(links), links)
	}
	n0, ok0 := links[0].Args[0].(Null)
	n1, ok1 := links[1].Args[0].(Null)
	if !ok0 || !ok1 {
		t.Fatalf("link OIDs are not nulls: %v", links)
	}
	if n0 == n1 {
		t.Error("different frontier bindings produced the same null")
	}
}

func TestExistentialNullsDeterministic(t *testing.T) {
	src := `own(X, Y, W) -> link(Z, X, Y, W).`
	edb := []Fact{{Pred: "own", Args: []any{"a", "b", 0.5}}}
	e1 := run(t, src, edb)
	e2 := run(t, src, edb)
	f1, f2 := e1.Facts("link"), e2.Facts("link")
	if f1[0].Key() != f2[0].Key() {
		t.Errorf("chase not deterministic: %v vs %v", f1[0], f2[0])
	}
}

func TestMonotonicSumCompanyControl(t *testing.T) {
	// Algorithm 5 of the paper, inlined: control via joint majority.
	src := `
		company(X) -> candidate(X, X).
		candidate(X, Z), own(Z, Y, W), S = msum(W, <Z>), S > 0.5 -> candidate(X, Y).
	`
	// a owns 30% of c; a owns 60% of b; b owns 30% of c.
	// a controls b directly; jointly a+b own 60% of c → a controls c.
	edb := []Fact{
		{Pred: "company", Args: []any{"a"}},
		{Pred: "company", Args: []any{"b"}},
		{Pred: "company", Args: []any{"c"}},
		{Pred: "own", Args: []any{"a", "c", 0.3}},
		{Pred: "own", Args: []any{"a", "b", 0.6}},
		{Pred: "own", Args: []any{"b", "c", 0.3}},
	}
	e := run(t, src, edb)
	if !e.Has(Fact{Pred: "candidate", Args: []any{"a", "b"}}) {
		t.Error("a should control b")
	}
	if !e.Has(Fact{Pred: "candidate", Args: []any{"a", "c"}}) {
		t.Error("a should control c via joint ownership")
	}
	if e.Has(Fact{Pred: "candidate", Args: []any{"b", "c"}}) {
		t.Error("b alone must not control c (only 30%)")
	}
}

func TestMonotonicSumContributorCountedOnce(t *testing.T) {
	// The same contributor reached twice must contribute once.
	src := `
		in(X, W), aux(X), S = msum(W, <X>), S >= 1.0 -> out(S).
	`
	edb := []Fact{
		{Pred: "in", Args: []any{"a", 0.6}},
		{Pred: "in", Args: []any{"b", 0.6}},
		{Pred: "aux", Args: []any{"a"}},
		{Pred: "aux", Args: []any{"b"}},
	}
	e := run(t, src, edb)
	finals := e.MaxByGroup("out", 0)
	if len(finals) != 1 {
		t.Fatalf("out finals = %v", finals)
	}
	if got := finals[0].Args[0].(float64); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("msum total = %v, want 1.2 (each contributor once)", got)
	}
}

func TestMonotonicCount(t *testing.T) {
	src := `
		item(X, G), C = mcount(1, <X>) -> groupsize(G, C).
	`
	edb := []Fact{
		{Pred: "item", Args: []any{"a", "g1"}},
		{Pred: "item", Args: []any{"b", "g1"}},
		{Pred: "item", Args: []any{"c", "g2"}},
	}
	e := run(t, src, edb)
	finals := e.MaxByGroup("groupsize", 1, 0)
	want := map[string]float64{"g1": 2, "g2": 1}
	if len(finals) != 2 {
		t.Fatalf("groupsize finals = %v", finals)
	}
	for _, f := range finals {
		g := f.Args[0].(string)
		if f.Args[1].(float64) != want[g] {
			t.Errorf("groupsize(%s) = %v, want %v", g, f.Args[1], want[g])
		}
	}
}

func TestMonotonicMaxMin(t *testing.T) {
	src := `
		v(X, W), M = mmax(W, <X>) -> best(M).
		v(X, W), M = mmin(W, <X>) -> worst(M).
	`
	edb := []Fact{
		{Pred: "v", Args: []any{"a", 3.0}},
		{Pred: "v", Args: []any{"b", 7.0}},
		{Pred: "v", Args: []any{"c", 1.0}},
	}
	e := run(t, src, edb)
	if best := e.MaxByGroup("best", 0); len(best) == 0 || best[len(best)-1].Args[0].(float64) != 7.0 {
		t.Errorf("best = %v, want final 7", best)
	}
	worsts := e.Facts("worst")
	minSeen := math.Inf(1)
	for _, f := range worsts {
		if v := f.Args[0].(float64); v < minSeen {
			minSeen = v
		}
	}
	if minSeen != 1.0 {
		t.Errorf("worst min = %v, want 1", minSeen)
	}
}

func TestAccumulatedOwnershipDAG(t *testing.T) {
	// Algorithm 6 rules 1–2 on a DAG: Φ(x,y) sums products over paths. Both
	// rules' msum calls contribute to the same per-(X,Y) total (the paper's
	// shared-total semantics for aggregates over one head predicate).
	src := `
		own(X, Y, W), S = msum(W, <X, Y>) -> accown(X, Y, S).
		own(X, Z, W1), accown(Z, Y, W2), S = msum(W1 * W2, <Z, Y>) -> accown(X, Y, S).
	`
	// x→a (0.5), x→b (0.5), a→y (0.4), b→y (0.4), x→y (0.1):
	// Φ(x,y) = 0.5·0.4 + 0.5·0.4 + 0.1 = 0.5.
	edb := []Fact{
		{Pred: "own", Args: []any{"x", "a", 0.5}},
		{Pred: "own", Args: []any{"x", "b", 0.5}},
		{Pred: "own", Args: []any{"a", "y", 0.4}},
		{Pred: "own", Args: []any{"b", "y", 0.4}},
		{Pred: "own", Args: []any{"x", "y", 0.1}},
	}
	e := run(t, src, edb)
	finals := e.MaxByGroup("accown", 2, 0, 1)
	var phiXY float64
	for _, f := range finals {
		if f.Args[0] == "x" && f.Args[1] == "y" {
			phiXY = f.Args[2].(float64)
		}
	}
	if math.Abs(phiXY-0.5) > 1e-9 {
		t.Errorf("Φ(x,y) = %v, want 0.5", phiXY)
	}
	// Keyed on a source, the projection is the whole one's rows of that
	// source; a key no row holds adds none.
	for _, src := range []string{"x", "a", "b", "y"} {
		var want []Fact
		for _, f := range finals {
			if f.Args[0] == src {
				want = append(want, f)
			}
		}
		if got := e.MaxByGroupOf("accown", 2, 0, []any{src, "nobody"}, 0, 1); !reflect.DeepEqual(got, want) {
			t.Errorf("MaxByGroupOf(%s) = %v, want %v", src, got, want)
		}
	}
}

func TestAggregationOnCycleTerminates(t *testing.T) {
	// a→b→a cycle with products < 1: accumulated ownership converges to a
	// geometric limit; MinAggDelta guarantees termination.
	src := `
		own(X, Y, W), S = msum(W, <X, Y>) -> accown(X, Y, S).
		own(X, Z, W1), accown(Z, Y, W2), S = msum(W1 * W2, <Z, Y>) -> accown(X, Y, S).
	`
	edb := []Fact{
		{Pred: "own", Args: []any{"a", "b", 0.5}},
		{Pred: "own", Args: []any{"b", "a", 0.5}},
	}
	e := run(t, src, edb, WithMinAggDelta(1e-6))
	finals := e.MaxByGroup("accown", 2, 0, 1)
	// Φ(a,a) limit: 0.25 + 0.25² + ... = 1/3 ≈ 0.3333 (within epsilon).
	for _, f := range finals {
		if f.Args[0] == "a" && f.Args[1] == "a" {
			if v := f.Args[2].(float64); math.Abs(v-1.0/3) > 1e-3 {
				t.Errorf("Φ(a,a) = %v, want ≈ 1/3", v)
			}
		}
	}
}

func TestStratifiedNegation(t *testing.T) {
	src := `
		node(X), not covered(X) -> exposed(X).
		edge(X, Y) -> covered(Y).
	`
	edb := []Fact{
		{Pred: "node", Args: []any{"a"}},
		{Pred: "node", Args: []any{"b"}},
		{Pred: "node", Args: []any{"c"}},
		{Pred: "edge", Args: []any{"a", "b"}},
	}
	e := run(t, src, edb)
	if !e.Has(Fact{Pred: "exposed", Args: []any{"a"}}) || !e.Has(Fact{Pred: "exposed", Args: []any{"c"}}) {
		t.Errorf("exposed = %v, want a and c", e.Facts("exposed"))
	}
	if e.Has(Fact{Pred: "exposed", Args: []any{"b"}}) {
		t.Error("b is covered; must not be exposed")
	}
}

func TestUnstratifiableProgramRejected(t *testing.T) {
	src := `
		p(X), not q(X) -> q(X).
	`
	prog := MustParse(src)
	if _, err := NewEngine(prog); err == nil {
		t.Error("recursion through negation accepted, want error")
	}
}

func TestUnsafeNegationRejected(t *testing.T) {
	src := `
		p(X), not q(Y) -> r(X).
	`
	prog := MustParse(src)
	if _, err := NewEngine(prog); err == nil {
		t.Error("unsafe negation accepted, want error")
	}
}

func TestBuiltinRegistration(t *testing.T) {
	src := `
		in(X), H = #bucket(X) -> out(X, H).
	`
	prog := MustParse(src)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterBuiltin("bucket", func(args []any) (any, error) {
		s := args[0].(string)
		return string(s[0]), nil
	})
	e.AssertAll([]Fact{
		{Pred: "in", Args: []any{"apple"}},
		{Pred: "in", Args: []any{"avocado"}},
		{Pred: "in", Args: []any{"banana"}},
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := match(e, "out", nil, "a"); len(got) != 2 {
		t.Errorf("bucket a = %v, want 2 entries", got)
	}
}

// TestCompiledArithmetic covers every operator of a compiled expression,
// string concatenation, and the evaluation errors.
func TestCompiledArithmetic(t *testing.T) {
	e := run(t, `v(A, B), S = A + B, D = A - B, P = A * B, Q = A / B -> r(S, D, P, Q).
		w(X), Y = X + "!" -> s(Y).`, []Fact{
		{Pred: "v", Args: []any{6.0, int64(4)}},
		{Pred: "w", Args: []any{"hi"}},
	})
	if got := e.Facts("r"); len(got) != 1 || fmt.Sprint(got[0].Args) != "[10 2 24 1.5]" {
		t.Errorf("r = %v, want r(10, 2, 24, 1.5)", got)
	}
	if got := e.Facts("s"); len(got) != 1 || got[0].Args[0] != "hi!" {
		t.Errorf("s = %v, want s(\"hi!\")", got)
	}
	for _, c := range []struct{ src, want string }{
		{`v(A, B), Q = A / 0 -> r(Q).`, "division by zero"},
		{`w(X), Y = X - 1 -> r(Y).`, "arithmetic on non-numeric"},
		{`v(A, B), Y = A * "x" -> r(Y).`, "arithmetic on non-numeric"},
	} {
		e, err := NewEngine(MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		e.AssertAll([]Fact{{Pred: "v", Args: []any{1.0, 2.0}}, {Pred: "w", Args: []any{"a"}}})
		if err := e.Run(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want %q", c.src, err, c.want)
		}
	}
}

func TestUnknownBuiltinErrors(t *testing.T) {
	src := `in(X), H = #nosuch(X) -> out(H).`
	prog := MustParse(src)
	e, _ := NewEngine(prog)
	e.Assert(Fact{Pred: "in", Args: []any{"a"}})
	if err := e.Run(); err == nil {
		t.Error("unknown builtin accepted, want error")
	}
}

func TestMultipleHeadAtoms(t *testing.T) {
	src := `
		own(X, Y, W), Z = #ske(X, Y) -> link(Z, X, Y), edgetype(Z, "Shareholding").
	`
	edb := []Fact{{Pred: "own", Args: []any{"a", "b", 0.5}}}
	e := run(t, src, edb)
	if len(e.Facts("link")) != 1 || len(e.Facts("edgetype")) != 1 {
		t.Fatalf("link=%v edgetype=%v", e.Facts("link"), e.Facts("edgetype"))
	}
	l, et := e.Facts("link")[0], e.Facts("edgetype")[0]
	if encodeValue(l.Args[0]) != encodeValue(et.Args[0]) {
		t.Error("shared head variable bound differently across head atoms")
	}
}

func TestSemiNaiveRoundsBounded(t *testing.T) {
	// A chain of length n needs about n rounds; verify semi-naive converges
	// and does not loop forever.
	src := `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
	`
	var edb []Fact
	const n = 50
	for i := 0; i < n; i++ {
		edb = append(edb, Fact{Pred: "edge", Args: []any{int64(i), int64(i + 1)}})
	}
	e := run(t, src, edb)
	want := n * (n + 1) / 2
	if got := len(e.Facts("path")); got != want {
		t.Errorf("path facts = %d, want %d", got, want)
	}
	if e.Rounds() > n+5 {
		t.Errorf("semi-naive used %d rounds for a %d-chain", e.Rounds(), n)
	}
}

func TestMatchWildcard(t *testing.T) {
	edb := []Fact{
		{Pred: "own", Args: []any{"a", "b", 0.5}},
		{Pred: "own", Args: []any{"a", "c", 0.3}},
		{Pred: "own", Args: []any{"b", "c", 0.2}},
	}
	e := run(t, `own(X, Y, W) -> o2(X, Y).`, edb)
	if got := match(e, "own", "a", nil, nil); len(got) != 2 {
		t.Errorf("match(own, a, _, _) = %v, want 2", got)
	}
	if got := match(e, "own", nil, "c", nil); len(got) != 2 {
		t.Errorf("match(own, _, c, _) = %v, want 2", got)
	}
}

func TestAnonymousVariable(t *testing.T) {
	src := `own(X, _, _) -> owner(X).`
	edb := []Fact{
		{Pred: "own", Args: []any{"a", "b", 0.5}},
		{Pred: "own", Args: []any{"a", "c", 0.3}},
	}
	e := run(t, src, edb)
	if n := len(e.Facts("owner")); n != 1 {
		t.Errorf("owner facts = %d, want 1 (dedup)", n)
	}
}

func TestIntFloatEquivalence(t *testing.T) {
	// int64 1 and float64 1.0 must unify in joins after arithmetic.
	src := `a(X), b(Y), X == Y -> same(X).`
	edb := []Fact{
		{Pred: "a", Args: []any{int64(1)}},
		{Pred: "b", Args: []any{1.0}},
	}
	e := run(t, src, edb)
	if len(e.Facts("same")) != 1 {
		t.Errorf("int/float comparison failed: %v", e.Facts("same"))
	}
}

// TestFactsDefensiveCopy: mutating what Facts/FactsN return must not reach
// the engine's store or its indexes.
func TestFactsDefensiveCopy(t *testing.T) {
	e := statsEngine(t)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	before := len(e.Facts("path"))

	fs := e.Facts("path")
	if len(fs) == 0 {
		t.Fatal("no path facts")
	}
	orig := Fact{Pred: fs[0].Pred, Args: append([]any(nil), fs[0].Args...)}
	fs[0].Pred = "corrupted"
	fs[0].Args[0] = "clobbered"

	if !e.Has(orig) {
		t.Error("mutating Facts result reached the store: original fact gone")
	}
	if got := e.Facts("path"); !reflect.DeepEqual(got[0], orig) && !e.Has(orig) {
		t.Errorf("store changed after caller mutation: %v", got[0])
	}
	if len(e.Facts("path")) != before {
		t.Errorf("fact count changed: %d -> %d", before, len(e.Facts("path")))
	}
	// Indexed lookups still see the uncorrupted argument.
	if got := match(e, "path", orig.Args[0], nil); len(got) == 0 {
		t.Errorf("match(path, %v, _) empty after caller mutation", orig.Args[0])
	}

	page := e.FactsN("path", 2)
	if len(page) != 2 {
		t.Fatalf("FactsN(2) returned %d facts", len(page))
	}
	keep := Fact{Pred: page[1].Pred, Args: append([]any(nil), page[1].Args...)}
	page[1].Args[0] = "clobbered too"
	if !e.Has(keep) {
		t.Error("mutating FactsN result reached the store")
	}
}
