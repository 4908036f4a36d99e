package datalog

// Differential testing of the production engine against the naive reference
// evaluator (reference_test.go): randomized programs over randomized
// graphgen-derived fact sets, evaluated three ways — reference, indexed,
// and scan-mode (NoIndex) — asserting identical derived fact sets. This is
// the oracle behind the index and join-plan work: any divergence in index
// maintenance, semi-naive delta restriction, or typed equality fails here
// with a reproducible per-case seed.
//
// The fact generator lives here rather than importing graphgen to avoid an
// import cycle (graphgen depends on datalog through relstore in tests); it
// produces the same relational shapes relstore.CompanyGraphFacts emits —
// company(id, p1..p4), person(id, p1..p4), own(from, to, w) — over a small
// random ownership graph. Two property columns draw from tricky, the values
// a joined or type-prefixed encoding would confuse.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// tricky holds values that only exact value identity keeps apart: strings
// holding the separators and type-prefix letters of Fact.Key and Skolem keys
// ("a,sb" beside "a" and "b,sc"), int64(1) beside 1.0 and "1", 0.0 beside
// -0.0, and bools.
var tricky = []any{
	"a,sb", "a", "b,sc", "c", "x|y", "x", "y)", "s1", "i1", "f1.0", "b|sc", "a|sb",
	int64(1), 1.0, "1", 0.0, math.Copysign(0, -1), true, false,
}

// randomEDB builds a small random company graph in relational form.
func randomEDB(rng *rand.Rand) []Fact {
	nCompanies := 6 + rng.Intn(10)
	nPersons := 2 + rng.Intn(5)
	sectors := []string{"bank", "energy", "tech"}
	pick := func() any { return tricky[rng.Intn(len(tricky))] }
	var facts []Fact
	for i := 0; i < nCompanies; i++ {
		facts = append(facts, Fact{Pred: "company", Args: []any{
			int64(i), fmt.Sprintf("C%d", i), pick(), pick(), sectors[rng.Intn(len(sectors))],
		}})
	}
	for i := 0; i < nPersons; i++ {
		facts = append(facts, Fact{Pred: "person", Args: []any{
			int64(nCompanies + i), fmt.Sprintf("P%d", i), pick(), "", pick(),
		}})
	}
	n := nCompanies + nPersons
	nEdges := n + rng.Intn(2*n)
	for i := 0; i < nEdges; i++ {
		from := int64(rng.Intn(n))
		to := int64(rng.Intn(nCompanies)) // only companies are owned
		if from == to {
			continue
		}
		w := float64(rng.Intn(100)+1) / 100.0
		facts = append(facts, Fact{Pred: "own", Args: []any{from, to, w}})
	}
	// A whole share as int64(1) beside 1.0: two distinct own facts.
	if rng.Intn(2) == 0 {
		facts = append(facts,
			Fact{Pred: "own", Args: []any{int64(nCompanies), int64(0), int64(1)}},
			Fact{Pred: "own", Args: []any{int64(nCompanies), int64(0), 1.0}})
	}
	return facts
}

// randomProgram builds a random stratified program over the EDB predicates.
// IDB predicates are layered (p0, p1, ...) so that negation only ever looks
// down the layering — stratified by construction. Bodies run to three atoms
// and include self-joins, so
// every permutation the delta planner produces is held against the reference.
// They also carry the shapes a slot compiler can get wrong: a variable
// repeated inside one atom, a constant argument, an assignment to a variable
// an earlier atom bound (the equality-check branch), and a negated atom with
// a wildcard. Joins on the tricky columns and a projection of them hold
// value identity to the reference; aggregate rules over fresh predicates
// (aggTemplates) hold the monotonic aggregates to it.
func randomProgram(rng *rand.Rand) string {
	var rules []string
	layers := 2 + rng.Intn(3) // IDB layers
	arity := map[string]int{}

	// Layer 0 rules: project/filter the EDB.
	base := []string{
		"own(X, Y, W) -> p0(X, Y).",
		"own(X, Y, W), W > 0.4 -> p0(X, Y).",
		"company(X, N, _, _, S) -> p0(X, X).",
		"own(X, Y, W), V = W * 2.0, V > 0.5 -> p0(Y, X).",
		"own(X, Y, W), own(Y, Z, U), X != Z -> p0(X, Z).",
		// three-atom chain and a self-join on the owner
		"own(X, Y, _), own(Y, Z, _), own(Z, V, _), X != V -> p0(X, V).",
		"own(Z, X, W), W > 0.3, own(Z, Y, U), X != Y -> p0(X, Y).",
		// a constant argument in a body atom
		`company(X, _, _, _, "bank"), own(Y, X, W) -> p0(Y, X).`,
		// W is bound by the first atom, so the assignment only checks it
		"own(X, Y, W), own(Y, Z, U), W = U -> p0(X, Z).",
		// joins on the tricky columns: equal only where the values are
		"company(X, _, A, _, _), company(Y, _, A, _, _), X != Y -> p0(X, Y).",
		"company(X, _, _, B, _), person(Y, _, B, _, _) -> p0(X, Y).",
	}
	nBase := 1 + rng.Intn(3)
	for i := 0; i < nBase; i++ {
		rules = append(rules, base[rng.Intn(len(base))])
	}
	arity["p0"] = 2

	for layer := 1; layer < layers; layer++ {
		prev := fmt.Sprintf("p%d", layer-1)
		cur := fmt.Sprintf("p%d", layer)
		arity[cur] = 2
		choices := []string{
			// transitive step through own (recursive within the layer)
			fmt.Sprintf("%s(X, Y), own(Y, Z, _), X != Z -> %s(X, Z).", cur, cur),
			// lift from the previous layer
			fmt.Sprintf("%s(X, Y) -> %s(X, Y).", prev, cur),
			// join of previous layer with EDB
			fmt.Sprintf("%s(X, Y), own(Y, Z, W), W > 0.2 -> %s(X, Z).", prev, cur),
			// negation against the previous layer (strictly lower stratum)
			fmt.Sprintf("own(X, Y, _), not %s(Y, X) -> %s(X, Y).", prev, cur),
			// symmetric closure
			fmt.Sprintf("%s(X, Y) -> %s(Y, X).", prev, cur),
			// constant head argument + arithmetic
			fmt.Sprintf("%s(X, Y), own(X, Y, W), V = W + 1.0 -> q%d(X, V).", prev, layer),
			// Bodies whose in-stratum occurrence is not the first atom, so the
			// delta plans reorder them: the accumulated-ownership shape
			// (recursive atom second), a recursive self-join (two delta
			// occurrences of one predicate), the recursive atom in the middle
			// of a three-atom body, and the common-owner self-join.
			fmt.Sprintf("own(X, Z, _), X != Z, %s(Z, Y), X != Y -> %s(X, Y).", cur, cur),
			fmt.Sprintf("%s(X, Y), %s(Y, Z), X != Z -> %s(X, Z).", cur, cur, cur),
			fmt.Sprintf("own(X, A, _), %s(A, B), own(B, Y, W), W > 0.1 -> %s(X, Y).", cur, cur),
			fmt.Sprintf("%s(Z, X), %s(Z, Y), X != Y -> %s(X, Y).", prev, prev, cur),
			// a variable repeated inside one body atom
			fmt.Sprintf("%s(X, X), own(X, Y, _) -> %s(X, Y).", prev, cur),
			// an assignment to a bound variable: an equality check on 2-cycles
			fmt.Sprintf("%s(X, Y), own(Y, Z, _), X = Z -> %s(Y, X).", prev, cur),
			// a negated atom with a wildcard
			fmt.Sprintf("own(X, Y, _), not %s(Y, _) -> %s(X, Y).", prev, cur),
		}
		nRules := 1 + rng.Intn(3)
		seeded := false
		for i := 0; i < nRules; i++ {
			r := choices[rng.Intn(len(choices))]
			if strings.Contains(r, prev+"(") {
				seeded = true
			}
			rules = append(rules, r)
		}
		if !seeded {
			rules = append(rules, fmt.Sprintf("%s(X, Y) -> %s(X, Y).", prev, cur))
		}
	}

	// Occasionally add an existential rule at the top — null invention must
	// coincide between engines.
	top := fmt.Sprintf("p%d", layers-1)
	if rng.Intn(3) == 0 {
		rules = append(rules, fmt.Sprintf("%s(X, Y) -> holds(X, Y, E).", top))
	}
	// A projection of the tricky columns: facts only a collision-free
	// identity keeps apart.
	if rng.Intn(2) == 0 {
		rules = append(rules, "company(_, _, A, B, _) -> pair(A, B).", "person(_, _, A, _, B) -> pair(A, B).")
	}
	for n := rng.Intn(3); n > 0; n-- {
		rules = append(rules, strings.ReplaceAll(aggTemplates[rng.Intn(len(aggTemplates))], "TOP", top))
	}
	return strings.Join(rules, "\n")
}

// aggTemplates are the aggregate rules randomProgram draws, each defining
// fresh predicates no other rule reads; TOP stands for the top layer. A
// threshold sits between multiples of 0.01, so no sum of the drawn weights
// lands on it whatever order rounds it in.
var aggTemplates = []string{
	// An assignment, then a condition, then the aggregate: it must not count
	// rows the condition rejects, whichever of the two comes first in the
	// text.
	"own(X, Y, W), V = W * 2.0, V > 0.3, S = msum(V, <X>) -> asum(Y, S).",
	"own(X, Y, W), V > 0.3, V = W * 2.0, S = msum(V, <X>) -> asum2(Y, S).",
	// Company control's shape: a recursive msum feeding a threshold.
	"company(X, _, _, _, _) -> acand(X, X).\n" +
		"acand(X, Z), own(Z, Y, W), X != Y, S = msum(W, <Z>), S > 0.505 -> acand(X, Y).",
	"own(X, Y, _), C = mcount(1, <X>) -> acount(Y, C).",
	"own(X, Y, W), M = mmax(W, <X>) -> amax(Y, M).",
	"own(X, Y, W), M = mmin(W, <X>) -> amin(Y, M).",
	// Factors above 1, so the running product only grows.
	"own(X, Y, W), V = W + 1.0, P = mprod(V, <X>) -> aprod(Y, P).",
	// Over a derived layer, and with the total only feeding a condition.
	"TOP(X, Y), own(Y, Z, W), S = msum(W, <Y>) -> atop(X, S).",
	"own(X, Y, W), S = msum(W, <X>), S > 0.505 -> amaj(Y).",
	// A reader outside the aggregate with an upper bound, over a total that
	// grows across rounds as the top layer does: it holds only where the
	// final total stays below the bound, whatever totals the chase passed.
	"TOP(X, Y), own(Y, Z, W), S = msum(W, <Y>) -> areach(X, S).\n" +
		"areach(X, S), S < 0.605 -> aminor(X).",
}

// aggTargets maps every predicate an aggregate records its total in to the
// target position: the head atom the aggregate groups by, as planRule picks
// it (the first that mentions the target).
func aggTargets(prog *Program) map[string]int {
	out := map[string]int{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Kind != LitAgg {
				continue
			}
			for _, h := range r.Head {
				if i := slices.IndexFunc(h.Terms, func(t Term) bool { v, ok := t.(Variable); return ok && v == l.Var }); i >= 0 {
					out[h.Pred] = i
					break
				}
			}
		}
	}
	return out
}

// diffAggFacts compares the facts of an aggregate-valued predicate as sets
// in which each group (every argument but the total at pos) holds one fact,
// the totals equal to a relative 1e-9: the engine and the reference sum the
// same contributions in different orders.
func diffAggFacts(want, got []Fact, pos int) string {
	totals := func(fs []Fact) (map[string]float64, []string) {
		out := map[string]float64{}
		var dups []string
		for _, f := range fs {
			group := Fact{Pred: f.Pred, Args: slices.Delete(slices.Clone(f.Args), pos, pos+1)}
			k := refKey(group)
			v, _ := toFloat(f.Args[pos])
			if _, seen := out[k]; seen {
				dups = append(dups, f.String())
			}
			out[k] = v
		}
		return out, dups
	}
	w, wdups := totals(want)
	g, gdups := totals(got)
	var out []string
	for _, d := range wdups {
		out = append(out, "want holds a second row of one group: "+d)
	}
	for _, d := range gdups {
		out = append(out, "got holds a second row of one group: "+d)
	}
	for k, wv := range w {
		gv, ok := g[k]
		if !ok || math.Abs(gv-wv) > 1e-9*math.Max(1, math.Abs(wv)) {
			out = append(out, fmt.Sprintf("%s: want %v got %v (present %v)", k, wv, gv, ok))
		}
	}
	for k, gv := range g {
		if _, ok := w[k]; !ok {
			out = append(out, fmt.Sprintf("%s: unexpected %v", k, gv))
		}
	}
	sortStrings(out)
	return strings.Join(out, "; ")
}

// headPreds collects the derived predicates of a program.
func headPreds(prog *Program) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range prog.Rules {
		for _, h := range r.Head {
			if !seen[h.Pred] {
				seen[h.Pred] = true
				out = append(out, h.Pred)
			}
		}
	}
	sortStrings(out)
	return out
}

func engineFactSet(e *Engine, preds []string) []string {
	var out []string
	for _, p := range preds {
		for _, f := range e.Facts(p) {
			out = append(out, refKey(f))
		}
	}
	sortStrings(out)
	return out
}

func diffFactSets(a, b []string) string {
	am := map[string]bool{}
	bm := map[string]bool{}
	for _, k := range a {
		am[k] = true
	}
	for _, k := range b {
		bm[k] = true
	}
	var missing, extra []string
	for _, k := range a {
		if !bm[k] {
			missing = append(missing, k)
		}
	}
	for _, k := range b {
		if !am[k] {
			extra = append(extra, k)
		}
	}
	return fmt.Sprintf("missing=%v extra=%v", missing, extra)
}

// TestDifferentialRandomPrograms is the acceptance-criteria harness: ≥ 200
// randomized program/fact-set cases, each evaluated by the reference
// interpreter and two engine configurations, asserting identical fact
// sets. Every case is reproducible from its printed seed.
func TestDifferentialRandomPrograms(t *testing.T) {
	const cases = 240
	configs := []struct {
		name string
		opts []Option
	}{
		{"indexed", nil},
		{"noindex", []Option{WithNoIndex()}},
	}
	for c := 0; c < cases; c++ {
		seed := int64(7000 + c)
		rng := rand.New(rand.NewSource(seed))
		edb := randomEDB(rng)
		progText := randomProgram(rng)
		prog, err := Parse(progText)
		if err != nil {
			t.Fatalf("seed %d: generated program does not parse: %v\n%s", seed, err, progText)
		}
		// Aggregate-valued predicates compare with a tolerance on the total,
		// every other predicate exactly.
		targets := aggTargets(prog)
		var preds []string
		for _, p := range headPreds(prog) {
			if _, ok := targets[p]; !ok {
				preds = append(preds, p)
			}
		}

		ref, err := newReference(prog)
		if err != nil {
			t.Fatalf("seed %d: reference rejects program: %v\n%s", seed, err, progText)
		}
		for _, f := range edb {
			ref.assert(f)
		}
		if err := ref.run(); err != nil {
			t.Fatalf("seed %d: reference run: %v\n%s", seed, err, progText)
		}
		want := ref.factSet(preds)

		for _, cfg := range configs {
			e, err := NewEngine(prog, cfg.opts...)
			if err != nil {
				t.Fatalf("seed %d [%s]: NewEngine: %v", seed, cfg.name, err)
			}
			e.AssertAll(edb)
			if err := e.Run(); err != nil {
				t.Fatalf("seed %d [%s]: Run: %v\n%s", seed, cfg.name, err, progText)
			}
			got := engineFactSet(e, preds)
			if len(got) != len(want) || diffFactSets(want, got) != "missing=[] extra=[]" {
				t.Fatalf("seed %d [%s]: fact sets diverge: %s\nprogram:\n%s",
					seed, cfg.name, diffFactSets(want, got), progText)
			}
			for p, pos := range targets {
				if d := diffAggFacts(ref.facts[p], e.Facts(p), pos); d != "" {
					t.Fatalf("seed %d [%s]: %s diverges: %s\nprogram:\n%s", seed, cfg.name, p, d, progText)
				}
			}
		}
	}
}

// TestDifferentialControlProgram runs the paper's company-control shape (a
// recursive aggregate program) through the reference and both engine
// configurations over random graphs, asserting one control set.
func TestDifferentialControlProgram(t *testing.T) {
	const prog = `
company(X, _, _, _, _) -> ccand(X, X).
person(X, _, _, _, _) -> ccand(X, X).
ccand(X, Z), own(Z, Y, W), X != Y, S = msum(W, <Z>), S > 0.5 -> ccand(X, Y).
ccand(X, Y), X != Y -> control(X, Y).
`
	p := MustParse(prog)
	for c := 0; c < 20; c++ {
		seed := int64(9000 + c)
		edb := randomEDB(rand.New(rand.NewSource(seed)))

		ref, err := newReference(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range edb {
			ref.assert(f)
		}
		if err := ref.run(); err != nil {
			t.Fatal(err)
		}
		want := ref.factSet([]string{"control"})
		for i, opts := range [][]Option{
			nil,
			{WithNoIndex()},
		} {
			e, err := NewEngine(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			e.AssertAll(edb)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if got := engineFactSet(e, []string{"control"}); diffFactSets(want, got) != "missing=[] extra=[]" {
				t.Fatalf("seed %d config %d: control sets diverge from the reference: %s", seed, i, diffFactSets(want, got))
			}
		}
	}
}
