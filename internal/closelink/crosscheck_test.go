package closelink_test

// Consumer-level cross-checks of the declarative close-link program through
// the reworked engine: the accumulated-ownership aggregation (a recursive
// msum over share paths) must be identical across the indexed and scan-mode
// chase configurations, and on DAGs it must agree with the imperative
// simple-path solver. Lives in package closelink_test because it
// imports the vadalog reasoner.

import (
	"math"
	"testing"

	"vadalink/internal/closelink"
	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
)

func runReasoner(t *testing.T, g *pg.Graph, opts ...datalog.Option) *vadalog.Reasoner {
	t.Helper()
	r := vadalog.NewReasoner(g, vadalog.TaskCloseLink)
	r.EngineOptions = opts
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCloseLinkEngineConfigsAgree runs the close-link program on random
// graphgen graphs with and without the positional indexes and asserts
// identical closelink pairs and accumulated-ownership values (up to
// float-association noise in the summation order).
func TestCloseLinkEngineConfigsAgree(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 12, Companies: 25, Seed: seed})
		base := runReasoner(t, it.Graph)
		wantPairs := base.CloseLinkPairs()
		wantAcc := base.AccumulatedOwnership()

		r := runReasoner(t, it.Graph, datalog.WithNoIndex())
		gotPairs := r.CloseLinkPairs()
		if len(gotPairs) != len(wantPairs) {
			t.Fatalf("seed %d noindex: %d pairs, want %d", seed, len(gotPairs), len(wantPairs))
		}
		for i := range wantPairs {
			if gotPairs[i] != wantPairs[i] {
				t.Fatalf("seed %d noindex: pair %d = %v, want %v", seed, i, gotPairs[i], wantPairs[i])
			}
		}
		gotAcc := r.AccumulatedOwnership()
		if len(gotAcc) != len(wantAcc) {
			t.Fatalf("seed %d noindex: %d accown groups, want %d", seed, len(gotAcc), len(wantAcc))
		}
		for k, v := range wantAcc {
			if g, ok := gotAcc[k]; !ok || math.Abs(g-v) > 1e-9 {
				t.Fatalf("seed %d noindex: accown%v = %v, want %v", seed, k, gotAcc[k], v)
			}
		}
	}
}

// TestAccumulatedMatchesImperativeOnDAG checks the declarative accumulated
// ownership against the imperative simple-path solver on an acyclic graph,
// where both definitions coincide (on cycles the program computes the
// geometric-series limit instead of simple paths, by design — DESIGN.md §4).
func TestAccumulatedMatchesImperativeOnDAG(t *testing.T) {
	// A layered DAG: layer i owns shares of layer i+1 only.
	g := pg.New()
	var layers [3][]pg.NodeID
	for l := range layers {
		for i := 0; i < 4; i++ {
			layers[l] = append(layers[l], g.AddNode(pg.LabelCompany, pg.Properties{"name": "c"}))
		}
	}
	w := []float64{0.6, 0.3, 0.25, 0.15}
	for l := 0; l < 2; l++ {
		for i, from := range layers[l] {
			for j, to := range layers[l+1] {
				if _, err := g.AddEdge(pg.LabelShareholding, from, to, pg.Properties{pg.WeightProp: w[(i+j)%len(w)]}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	r := runReasoner(t, g)
	acc := r.AccumulatedOwnership()
	for _, x := range layers[0] {
		imp := closelink.AccumulatedFrom(g, x)
		for y, want := range imp {
			got, ok := acc[[2]pg.NodeID{x, y}]
			if !ok || math.Abs(got-want) > 1e-9 {
				t.Fatalf("accown(%d, %d) = %v (ok=%v), imperative says %v", x, y, got, ok, want)
			}
		}
	}
}
