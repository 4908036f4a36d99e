package datalog

import (
	"math/rand"
	"strings"
	"testing"
)

// TestResetMatchesFresh holds a re-armed engine to a fresh one: for random
// programs of the differential harness, one engine per program runs over a
// sequence of random EDBs of varying size, re-armed between runs with Reset
// and loaded alternately through Loaders and AssertAll, pruned or not. After
// every run its derived facts must equal those of a new engine of the same
// compiled program over the same EDB, so no row, dedup slot, index bucket,
// superseded mark or aggregate group of an earlier run leaks into a later
// one.
func TestResetMatchesFresh(t *testing.T) {
	const programs, runs = 60, 6
	for c := 0; c < programs; c++ {
		seed := int64(7000 + c)
		rng := rand.New(rand.NewSource(seed))
		prog, err := Parse(randomProgram(rng))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plan, err := Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		preds := headPreds(prog)
		var e *Engine
		for run := 0; run < runs; run++ {
			var facts []Fact
			for k := rng.Intn(3); k >= 0; k-- { // one to three EDBs: sizes grow and shrink
				facts = append(facts, randomEDB(rng)...)
			}
			stream, prune := run%2 == 0, run%3 == 1
			fill := func(e *Engine) {
				if prune {
					e.Prune(preds[0])
				}
				if stream {
					loadFacts(e, facts)
				} else {
					e.AssertAll(facts)
				}
				if err := e.Run(); err != nil {
					t.Fatalf("seed %d run %d: %v", seed, run, err)
				}
			}
			fresh := plan.NewEngine(WithStats())
			fill(fresh)
			if e == nil {
				e = plan.NewEngine(WithStats())
			} else {
				e.Reset(WithStats())
			}
			fill(e)
			if d := diffFactSets(engineFactSet(fresh, preds), engineFactSet(e, preds)); d != "missing=[] extra=[]" {
				t.Fatalf("seed %d run %d: re-armed engine differs from a fresh one: %s", seed, run, d)
			}
			if a, b := fresh.Stats(), e.Stats(); a.Derived != b.Derived || a.IndexBuilds != b.IndexBuilds || a.IndexBytes != b.IndexBytes {
				t.Fatalf("seed %d run %d: derived/index builds/index bytes %d/%d/%d re-armed, %d/%d/%d fresh",
					seed, run, b.Derived, b.IndexBuilds, b.IndexBytes, a.Derived, a.IndexBuilds, a.IndexBytes)
			}
		}
	}
}

// TestResetOptionsAndSeed checks that Reset applies its own options, not the
// last run's, and that a compiled goal seeds only an engine of its own plan,
// for a goal of its own shape.
func TestResetOptionsAndSeed(t *testing.T) {
	prog := MustParse("e(X, Y) -> t(X, Y).\nt(X, Y), e(Y, Z) -> t(X, Z).")
	goal := Atom{Pred: "t", Terms: []Term{Int(1), Variable("Y")}}
	plan, err := CompileGoal(prog, goal)
	if err != nil {
		t.Fatal(err)
	}
	e, err := plan.NewEngine(goal, WithProvenance(), WithStats())
	if err != nil {
		t.Fatal(err)
	}
	chain := []Fact{{Pred: "e", Args: []any{int64(1), int64(2)}}, {Pred: "e", Args: []any{int64(2), int64(3)}}}
	e.AssertAll(chain)
	if err := e.Run(); err != nil || !e.RecordsProvenance() || e.Stats() == nil {
		t.Fatalf("first run: err %v, provenance %v, stats %v", err, e.RecordsProvenance(), e.Stats())
	}

	e.Reset()
	if e.RecordsProvenance() || e.Stats() != nil || len(e.Facts("t")) != 0 {
		t.Fatalf("Reset kept the last run's provenance %v, stats %v or facts %v", e.RecordsProvenance(), e.Stats(), e.Facts("t"))
	}
	if err := plan.Seed(e, Atom{Pred: "t", Terms: []Term{Variable("X"), Int(3)}}); err == nil || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("seeding a goal of another shape: %v", err)
	}
	whole, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Seed(whole.NewEngine(), goal); err == nil || !strings.Contains(err.Error(), "another program") {
		t.Fatalf("seeding an engine of another program: %v", err)
	}
	if err := plan.Seed(e, goal); err != nil {
		t.Fatal(err)
	}
	e.AssertAll(chain[1:])
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Query(goal); len(got) != 0 {
		t.Fatalf("re-armed engine answers %v from the last run's rows", got)
	}

	e.Reset(WithProvenance())
	if err := plan.Seed(e, goal); err != nil {
		t.Fatal(err)
	}
	e.AssertAll(chain)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	f := Fact{Pred: "t", Args: []any{int64(1), int64(3)}}
	if _, ok := e.Explain(f); !ok {
		t.Fatalf("re-armed engine under WithProvenance does not explain %v", f)
	}
}
