package datalog

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// loadFacts streams facts through Loaders, one per relation, numbers
// through Int and Float and everything else through Value.
func loadFacts(e *Engine, facts []Fact) {
	var keys []relKey
	byRel := map[relKey][]Fact{}
	for _, f := range facts {
		k := relKey{f.Pred, len(f.Args)}
		if byRel[k] == nil {
			keys = append(keys, k)
		}
		byRel[k] = append(byRel[k], f)
	}
	for _, k := range keys {
		l := e.Load(k.pred, k.arity, len(byRel[k]))
		for _, f := range byRel[k] {
			for _, a := range f.Args {
				switch x := a.(type) {
				case int64:
					l.Int(x)
				case float64:
					l.Float(x)
				default:
					l.Value(a)
				}
			}
			l.Add()
		}
	}
}

func TestLiveness(t *testing.T) {
	prog := MustParse(`
company(X, N, B, A, S) -> ccand(X, X).
person(X, _, B, _, _), B != "" -> ccand(X, X).
ccand(X, Z), own(Z, Y, W), X != Y, S = msum(W, <Z>), S > 0.5 -> ccand(X, Y).
own(X, X, _) -> self(X).
ccand(X, Y), X != Y, not banned(X, _) -> control(X, Y).
`)
	live := liveness(prog, prog.HeadPreds())
	for _, c := range []struct {
		pred  string
		arity int
		want  uint64
	}{
		{"company", 5, 0b1},  // only the ID reaches a head
		{"person", 5, 0b101}, // and the birth year a condition
		{"own", 3, 0b111},    // W feeds the aggregate; a repeated X joins
		{"banned", 2, 0b1},   // negation binds its variables elsewhere
		{"ccand", 2, 0},      // derived: no entry
		{"unread", 1, 0},     // read by no rule: every position dead
	} {
		if got := live[relKey{c.pred, c.arity}]; got != c.want {
			t.Errorf("live(%s/%d) = %b, want %b", c.pred, c.arity, got, c.want)
		}
	}
}

// TestPruneKeepsWhatIsRead pins where pruning is off: the kept predicate, a
// derived predicate, and every relation of an engine with provenance.
func TestPruneKeepsWhatIsRead(t *testing.T) {
	prog := MustParse(`
company(X, N, B, A, S) -> ccand(X, X).
ccand(X, Y) -> control(X, Y).
`)
	c, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	row := []any{int64(1), "Acme", "1990", "Via Roma", "bank"}
	for _, tc := range []struct {
		name      string
		opts      []Option
		keep      string
		pred      string
		wantWhole bool
	}{
		{"dead properties", nil, "control", "company", false},
		{"kept goal", nil, "company", "company", true},
		{"derived", nil, "control", "ccand", true},
		{"provenance", []Option{WithProvenance()}, "control", "company", true},
	} {
		e := c.NewEngine(tc.opts...)
		e.Prune(tc.keep)
		loadFacts(e, []Fact{{Pred: tc.pred, Args: row}})
		got := e.Facts(tc.pred)[0].Args
		if whole := got[1] == "Acme"; whole != tc.wantWhole || got[0] != int64(1) {
			t.Errorf("%s: loaded %v, whole row %v", tc.name, got, tc.wantWhole)
		}
	}
	// Without Prune every position stays.
	e := c.NewEngine()
	loadFacts(e, []Fact{{Pred: "company", Args: row}})
	if got := e.Facts("company")[0].Args[4]; got != "bank" {
		t.Errorf("unpruned load stored sector %v", got)
	}
}

func TestLoaderMatchesAssertAll(t *testing.T) {
	edb := randomEDB(rand.New(rand.NewSource(3)))
	prog := MustParse(`own(X, Y, W) -> p(X, Y).`)
	a, _ := NewEngine(prog)
	a.AssertAll(edb)
	b, _ := NewEngine(prog)
	loadFacts(b, edb)
	loadFacts(b, edb) // every row again: all duplicates
	for _, pred := range []string{"company", "person", "own"} {
		if d := diffFactSets(engineFactSet(a, []string{pred}), engineFactSet(b, []string{pred})); d != "missing=[] extra=[]" {
			t.Errorf("%s: %s", pred, d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Add of a short row did not panic")
		}
	}()
	l := b.Load("own", 3, 1)
	l.Int(1)
	l.Add()
}

// TestDifferentialPrunedLoads asks every random program of the
// differential harness every goal it can: each head predicate and each
// extensional one, under every binding pattern, through the demand plan
// when it has one and full evaluation otherwise, as vadalog's goal engines
// do. An engine that loads the EDB pruned (Prune, Loader) must give every
// answer an engine given the whole EDB (AssertAll) gives.
func TestDifferentialPrunedLoads(t *testing.T) {
	const cases = 120
	goals, pruned := 0, 0
	for c := 0; c < cases; c++ {
		seed := int64(11000 + c)
		rng := rand.New(rand.NewSource(seed))
		edb := randomEDB(rng)
		progText := randomProgram(rng)
		prog, err := Parse(progText)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		full, err := Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		whole := full.NewEngine()
		whole.AssertAll(edb)
		if err := whole.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		targets := aggTargets(prog)
		arities := map[string]int{"company": 5, "person": 5, "own": 3}
		for _, r := range prog.Rules {
			for _, h := range r.Head {
				arities[h.Pred] = len(h.Terms)
			}
		}
		for pred, arity := range arities {
			// Bound positions take the values of the predicate's first fact.
			sample := make([]any, arity)
			for i := range sample {
				sample[i] = int64(0)
			}
			if fs := whole.Facts(pred); len(fs) > 0 {
				copy(sample, fs[0].Args)
			}
			pos, agg := targets[pred]
			for mask := 0; mask < 1<<arity; mask++ {
				if agg && mask&(1<<pos) != 0 {
					continue // a total is answered per group, never asked for
				}
				goal := Atom{Pred: pred, Terms: make([]Term, arity)}
				for i := range goal.Terms {
					goal.Terms[i] = Variable(fmt.Sprintf("V%d", i))
					if mask&(1<<i) != 0 {
						goal.Terms[i] = Constant{Value: sample[i]}
					}
				}
				engine := func() *Engine {
					plan, err := CompileGoal(prog, goal)
					var nd *ErrNotDemandable
					switch {
					case errors.As(err, &nd):
						return full.NewEngine()
					case err != nil:
						t.Fatalf("seed %d goal %s: %v", seed, goal, err)
					}
					e, err := plan.NewEngine(goal)
					if err != nil {
						t.Fatalf("seed %d goal %s: %v", seed, goal, err)
					}
					return e
				}
				want, got := engine(), engine()
				want.AssertAll(edb)
				got.Prune(goal.Pred)
				loadFacts(got, edb)
				for _, k := range []string{"company", "person"} {
					if l := got.Load(k, 5, 0); l.dead != 0 {
						pruned++
					}
				}
				for _, e := range []*Engine{want, got} {
					if err := e.Run(); err != nil {
						t.Fatalf("seed %d goal %s: %v", seed, goal, err)
					}
				}
				goals++
				w, g := goalAnswers(want, goal), goalAnswers(got, goal)
				if agg {
					if d := diffAggFacts(w, g, pos); d != "" {
						t.Fatalf("seed %d goal %s: answers diverge: %s\nprogram:\n%s", seed, goal, d, progText)
					}
					continue
				}
				if d := diffFactSets(factKeys(w), factKeys(g)); d != "missing=[] extra=[]" {
					t.Fatalf("seed %d goal %s: answers diverge: %s\nprogram:\n%s", seed, goal, d, progText)
				}
			}
		}
	}
	t.Logf("%d goals, %d node relations pruned", goals, pruned)
	if pruned == 0 {
		t.Fatal("vacuous: no goal engine pruned a position")
	}
}

// goalAnswers returns the facts of the goal's predicate that match it.
func goalAnswers(e *Engine, goal Atom) []Fact {
	var out []Fact
	for _, f := range e.Facts(goal.Pred) {
		if _, ok := refUnify(goal, f, nil); ok {
			out = append(out, f)
		}
	}
	return out
}

func factKeys(fs []Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = refKey(f)
	}
	sort.Strings(out)
	return out
}
