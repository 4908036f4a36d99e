package datalog_test

import (
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
// slot bindings and key scratch brought it to 12,849 — what remains is
// mostly per new fact, group and contributor — and the budget leaves ~13 %
// headroom. A chase that starts allocating per candidate or per duplicate
// again fails here.
func TestChaseAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 14_500
	facts := registryFacts()
	prog := datalog.MustParse(vadalog.ControlProgram + vadalog.CloseLinkProgram)
	derived := 0
	run := func() {
		e, err := datalog.NewEngine(prog, datalog.WithParallel(1), datalog.WithMinAggDelta(1e-4))
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
