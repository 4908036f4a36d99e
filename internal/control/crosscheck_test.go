package control_test

// Cross-validation of the imperative company-control solver against the
// declarative Vadalog control program on randomized graphgen graphs — both
// implement Definition 2.3, so their AllPairs sets must coincide on every
// input. The declarative side runs through the indexed chase, so this
// doubles as an end-to-end consumer check of the engine work: a bug in index
// maintenance or delta restriction that survived the datalog-level
// differential tests would surface here as a control-pair divergence.
//
// The test lives in package control_test (not control) because it imports
// the vadalog reasoner, which would cycle against package control.

import (
	"fmt"
	"testing"

	"vadalink/internal/control"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
)

func TestAllPairsMatchesDeclarativeOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 15, Companies: 30, Seed: seed})
		g := it.Graph

		want := map[string]bool{}
		for _, p := range control.AllPairs(g) {
			want[fmt.Sprintf("%d->%d", p.From, p.To)] = true
		}

		r := vadalog.NewReasoner(g, vadalog.TaskControl)
		if err := r.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := map[string]bool{}
		for _, p := range r.ControlPairs() {
			got[fmt.Sprintf("%d->%d", p[0], p[1])] = true
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d declarative pairs, %d imperative", seed, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("seed %d: imperative pair %s missing from declarative result", seed, k)
			}
		}
	}
}

// TestUltimateControllersConsistent checks the inverted query against the
// forward one on a random graph: UltimateControllers(g, y) is exactly the
// set of person controllers appearing in AllPairs with controlled node y.
func TestUltimateControllersConsistent(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 15, Companies: 30, Seed: 3})
	g := it.Graph
	persons := map[pg.NodeID]bool{}
	for _, p := range g.NodesWithLabel(pg.LabelPerson) {
		persons[p] = true
	}
	forward := map[pg.NodeID]map[pg.NodeID]bool{}
	for _, p := range control.AllPairs(g) {
		if !persons[p.From] {
			continue
		}
		if forward[p.To] == nil {
			forward[p.To] = map[pg.NodeID]bool{}
		}
		forward[p.To][p.From] = true
	}
	for y, controllers := range forward {
		got := control.UltimateControllers(g, y)
		gotSet := map[pg.NodeID]bool{}
		for _, x := range got {
			gotSet[x] = true
		}
		for x := range controllers {
			if !gotSet[x] {
				t.Fatalf("person controller %d of %d missing from UltimateControllers", x, y)
			}
		}
		for x := range gotSet {
			if !controllers[x] {
				t.Fatalf("UltimateControllers(%d) lists %d, absent from AllPairs", y, x)
			}
		}
	}
}
