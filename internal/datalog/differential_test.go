package datalog

// Differential testing of the production engine against the naive reference
// evaluator (reference_test.go): randomized programs over randomized
// graphgen-derived fact sets, evaluated four ways — reference, indexed
// sequential, indexed parallel, and scan-mode (NoIndex) — asserting
// identical derived fact sets. This is the oracle behind the index and
// parallel-chase work: any divergence in index maintenance, semi-naive
// delta restriction, buffered merge order, or typed equality fails here
// with a reproducible per-case seed.
//
// The fact generator lives here rather than importing graphgen to avoid an
// import cycle (graphgen depends on datalog through relstore in tests); it
// produces the same relational shapes relstore.CompanyGraphFacts emits —
// company(id, p1..p4), person(id, p1..p4), own(from, to, w) — over a small
// random ownership graph.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// randomEDB builds a small random company graph in relational form.
func randomEDB(rng *rand.Rand) []Fact {
	nCompanies := 6 + rng.Intn(10)
	nPersons := 2 + rng.Intn(5)
	sectors := []string{"bank", "energy", "tech"}
	var facts []Fact
	for i := 0; i < nCompanies; i++ {
		facts = append(facts, Fact{Pred: "company", Args: []any{
			int64(i), fmt.Sprintf("C%d", i), "", "", sectors[rng.Intn(len(sectors))],
		}})
	}
	for i := 0; i < nPersons; i++ {
		facts = append(facts, Fact{Pred: "person", Args: []any{
			int64(nCompanies + i), fmt.Sprintf("P%d", i), "1970", "", "",
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
	return facts
}

// randomProgram builds a random stratified program over the EDB predicates.
// IDB predicates are layered (p0, p1, ...) so that negation only ever looks
// down the layering — stratified by construction. Aggregates are excluded
// (the reference evaluator does not implement them; they get their own
// deterministic tests). Bodies run to three atoms and include self-joins, so
// every permutation the delta planner produces is held against the reference.
// They also carry the shapes a slot compiler can get wrong: a variable
// repeated inside one atom, a constant argument, an assignment to a variable
// an earlier atom bound (the equality-check branch), and a negated atom with
// a wildcard.
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
	if rng.Intn(3) == 0 {
		top := fmt.Sprintf("p%d", layers-1)
		rules = append(rules, fmt.Sprintf("%s(X, Y) -> holds(X, Y, E).", top))
	}
	return strings.Join(rules, "\n")
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
			out = append(out, f.Key())
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
// interpreter and three engine configurations, asserting identical fact
// sets. Every case is reproducible from its printed seed.
func TestDifferentialRandomPrograms(t *testing.T) {
	const cases = 240
	configs := []struct {
		name string
		opts []Option
	}{
		{"indexed-seq", []Option{WithParallel(1)}},
		{"indexed-par4", []Option{WithParallel(4)}},
		{"noindex", []Option{WithParallel(1), WithNoIndex()}},
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
		preds := headPreds(prog)

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
		}
	}
}

// TestDifferentialControlProgram runs the paper's company-control shape (a
// recursive aggregate program) through the engine configurations only —
// the reference cannot do aggregates — asserting all engine modes agree
// with each other over random graphs.
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

		var want []string
		for i, opts := range [][]Option{
			{WithParallel(1)},
			{WithParallel(4)},
			{WithParallel(1), WithNoIndex()},
		} {
			e, err := NewEngine(p, opts...)
			if err != nil {
				t.Fatal(err)
			}
			e.AssertAll(edb)
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			got := engineFactSet(e, []string{"control"})
			if i == 0 {
				want = got
				continue
			}
			if diffFactSets(want, got) != "missing=[] extra=[]" {
				t.Fatalf("seed %d config %d: control sets diverge: %s", seed, i, diffFactSets(want, got))
			}
		}
	}
}
