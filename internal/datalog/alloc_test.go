package datalog_test

import (
	"context"
	"runtime"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// registryFacts is the relational image of a fixed registry: the disjoint
// union of eight generated groups of 32 companies and 16 persons, the shape
// of one materialize job.
func registryFacts() []datalog.Fact {
	out := pg.New()
	for salt := int64(0); salt < 8; salt++ {
		g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 32, Persons: 16, Seed: 1_000_000 + 10*salt}).Graph
		ids := make(map[pg.NodeID]pg.NodeID, g.NumNodes())
		for _, id := range g.Nodes() {
			n := g.Node(id)
			ids[id] = out.AddNode(n.Label, n.Props)
		}
		for _, id := range g.Edges() {
			e := g.Edge(id)
			out.MustAddEdge(e.Label, ids[e.From], ids[e.To], e.Props)
		}
	}
	return relstore.CompanyGraphFacts(out)
}

// TestChaseAllocations pins what one sequential control + close-link chase
// allocates, loading included, on a fixed registry. The parent of the slot
// compiler (a map binding, a fresh string per index probe, per emitted
// fact's key and per aggregate contributor key) allocated 44,365 times here;
// slot bindings and key scratch brought it to 12,849, and value rows (no
// []any per fact, no key strings, flat aggregate tables; DESIGN.md §7.8) to
// 1,101 — what remains is mostly table growth; compiling the program's
// column liveness (DESIGN.md §7.9) adds 8. The budget leaves ~13 %
// headroom. A chase that starts allocating per fact, per candidate or per
// duplicate again fails here.
func TestChaseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 1_250
	facts := registryFacts()
	prog := datalog.MustParse(vadalog.ControlProgram + vadalog.CloseLinkProgram)
	derived := 0
	run := func() {
		e, err := datalog.NewEngine(prog, datalog.WithMinAggDelta(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		e.AssertAll(facts)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		derived = e.DerivedCount()
	}
	got := testing.AllocsPerRun(5, run)
	if derived < 1000 {
		t.Fatalf("vacuous registry: %d derived facts", derived)
	}
	t.Logf("%d derived facts, %.0f allocations", derived, got)
	if got > budget {
		t.Errorf("a chase allocates %.0f times, budget %d", got, budget)
	}
}

// TestGoalMissAllocations pins what one point-cold-shaped goal miss
// allocates on the extract-then-assert path: the relational image of a fixed
// generated registry as facts (relstore.CompanyGraphFacts), asserted whole
// into an engine of the compiled demand plan of control(X, Y) with X bound,
// chased and queried. The server streams the image instead (vadalog's
// TestEvalGoalAllocations pins that path); this one is the path the
// benchmark's traced replay times. Extraction is included. Before value rows
// a miss here allocated 39,333 times and 2.81 MB; then 14,017 times and
// 1.79 MB, mostly extraction's boxed numbers and the relations' arenas. Since
// elements hold typed records, not maps of boxed values, extraction boxes
// each string property (~8,000 allocations more), and boxing each node ID
// and each number's rendering once per extraction pays that back: 13,965
// times and 1.91 MB. The budgets were set with ~13 % headroom.
func TestGoalMissAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const allocBudget, byteBudget = 15_850, 2_020_000
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	goalOf := func(x int64) datalog.Atom {
		return datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Int(x), datalog.Variable("Y")}}
	}
	plan, err := datalog.CompileGoal(datalog.MustParse(vadalog.ControlProgram), goalOf(0))
	if err != nil {
		t.Fatal(err)
	}
	var goal datalog.Atom
	answers, facts := 0, 0
	miss := func() {
		e, err := plan.NewEngine(goal, datalog.WithMinAggDelta(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		edb := relstore.CompanyGraphFacts(g)
		e.AssertAll(edb)
		if err := e.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		answers, facts = len(e.Query(goal)), len(edb)
	}
	// The first node that controls another, so the chase has work to do.
	for x := int64(0); answers == 0 && x < 100; x++ {
		goal = goalOf(x)
		miss()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, miss)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 6 // AllocsPerRun adds a warm-up run
	if answers == 0 {
		t.Fatalf("vacuous goal: no answers over %d facts", facts)
	}
	t.Logf("%d facts, %d answers: %.0f allocations, %.0f bytes per miss", facts, answers, allocs, bytes)
	if allocs > allocBudget {
		t.Errorf("a goal miss allocates %.0f times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("a goal miss allocates %.0f bytes, budget %d", bytes, byteBudget)
	}
}
