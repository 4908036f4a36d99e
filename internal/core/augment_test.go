package core

import (
	"context"
	"reflect"
	"testing"

	"vadalink/internal/cluster"
	"vadalink/internal/embed"
	"vadalink/internal/family"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

func TestNewRequiresCandidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty candidate list accepted")
	}
}

// baselineOf chases the derived state the control and close-link
// candidates propose from.
func baselineOf(t *testing.T, g pg.View) *whatif.Baseline {
	t.Helper()
	bl, err := whatif.ComputeBaseline(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

// Augmentation adds no shareholding edge, so the baseline the control and
// close-link candidates were given stays the graph's for every round: after
// a clustered multi-round run over all three classes, a fresh chase of the
// augmented graph lands on the same state.
func TestAugmentationKeepsTheBaselineExact(t *testing.T) {
	g := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 40, Companies: 40, Seed: 5}).Graph
	bl := baselineOf(t, g)
	a, err := New(Config{
		FirstLevelK: 2,
		Embed:       embed.Config{Seed: 1, Dims: 8, WalksPerNode: 2, WalkLength: 10, Epochs: 1},
		Reembed:     true,
		Candidates:  []Candidate{&FamilyCandidate{}, ControlCandidate{bl.Control}, CloseLinkCandidate{bl}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added[pg.LabelControl] == 0 || res.Added[pg.LabelCloseLink] == 0 || res.Rounds < 2 {
		t.Fatalf("added %v in %d rounds: the run must weave control and close links over rounds", res.Added, res.Rounds)
	}
	for _, e := range res.AddedEdges {
		if e.Label == pg.LabelShareholding {
			t.Fatalf("augmentation added a shareholding edge %v", e)
		}
	}
	after := baselineOf(t, g)
	if !reflect.DeepEqual(after.Control, bl.Control) || !reflect.DeepEqual(after.CloseLink, bl.CloseLink) ||
		!reflect.DeepEqual(after.Accown, bl.Accown) {
		t.Fatal("the augmented graph's baseline differs from the one the candidates were given")
	}
}

func TestNoClusterControlMatchesDirectSolver(t *testing.T) {
	g, b := pg.Figure2()
	a, err := New(Config{NoCluster: true, Candidates: []Candidate{ControlCandidate{baselineOf(t, g).Control}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added[pg.LabelControl] == 0 {
		t.Fatal("no control edges predicted")
	}
	// Example 2.4: P1 controls C4; P2 controls C5, C6, C7.
	for _, want := range [][2]string{{"P1", "C4"}, {"P2", "C5"}, {"P2", "C6"}, {"P2", "C7"}} {
		if !g.HasEdge(pg.LabelControl, b.ID(want[0]), b.ID(want[1])) {
			t.Errorf("missing control edge %s→%s", want[0], want[1])
		}
	}
}

func TestNoClusterCloseLinksFigure2(t *testing.T) {
	g, b := pg.Figure2()
	a, err := New(Config{NoCluster: true, Candidates: []Candidate{CloseLinkCandidate{baselineOf(t, g)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Run(g); err != nil {
		t.Fatal(err)
	}
	// Example 2.7: (C4, C6) and (C4, C7), in both directions.
	for _, want := range [][2]string{{"C4", "C6"}, {"C6", "C4"}, {"C4", "C7"}, {"C7", "C4"}} {
		if !g.HasEdge(pg.LabelCloseLink, b.ID(want[0]), b.ID(want[1])) {
			t.Errorf("missing close link %s→%s", want[0], want[1])
		}
	}
}

func TestFamilyCandidateFindsPlantedLinks(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 60, Companies: 20, Seed: 3})
	g := it.Graph
	a, err := New(Config{
		NoCluster:  true,
		Candidates: []Candidate{&FamilyCandidate{Classifier: family.NewMulti()}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Added[pg.LabelPartnerOf]+res.Added[pg.LabelSiblingOf]+res.Added[pg.LabelParentOf] == 0 {
		t.Fatal("no family links predicted in exhaustive mode")
	}
	// A decent share of planted pairs must be recovered (as some typed
	// edge; class confusion is acceptable here).
	recovered := 0
	for _, gt := range it.Truth {
		if hasAnyFamilyEdge(g, gt.X, gt.Y) || hasAnyFamilyEdge(g, gt.Y, gt.X) {
			recovered++
		}
	}
	if frac := float64(recovered) / float64(len(it.Truth)); frac < 0.6 {
		t.Errorf("recovered %d/%d = %.2f of planted family pairs, want ≥ 0.6",
			recovered, len(it.Truth), frac)
	}
}

func hasAnyFamilyEdge(g *pg.Graph, a, b pg.NodeID) bool {
	for _, l := range []pg.Label{pg.LabelPartnerOf, pg.LabelSiblingOf, pg.LabelParentOf} {
		if g.HasEdge(l, a, b) {
			return true
		}
	}
	return false
}

func TestClusteredFewerComparisonsThanNaive(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 200, Companies: 50, Seed: 8})

	naiveGraph := it.Graph.Clone()
	naive, _ := New(Config{NoCluster: true, Candidates: []Candidate{&FamilyCandidate{}}})
	naiveRes, err := naive.Run(naiveGraph)
	if err != nil {
		t.Fatal(err)
	}

	clusteredGraph := it.Graph.Clone()
	clustered, _ := New(Config{
		FirstLevelK: 4,
		Embed:       embed.Config{Dims: 8, WalkLength: 8, WalksPerNode: 2, Epochs: 1, Seed: 1},
		Blocker:     cluster.PersonBlocker{},
		Candidates:  []Candidate{&FamilyCandidate{}},
	})
	clusteredRes, err := clustered.Run(clusteredGraph)
	if err != nil {
		t.Fatal(err)
	}

	if clusteredRes.Comparisons >= naiveRes.Comparisons {
		t.Errorf("clustered comparisons %d ≥ naive %d; clustering buys nothing",
			clusteredRes.Comparisons, naiveRes.Comparisons)
	}
	if clusteredRes.Blocks < 2 {
		t.Errorf("blocks = %d, want several", clusteredRes.Blocks)
	}
}

func TestAugmentationTerminates(t *testing.T) {
	reembedding := func(t *testing.T, maxRounds int) *Augmenter {
		a, err := New(Config{
			FirstLevelK: 3,
			Embed:       embed.Config{Dims: 8, WalkLength: 8, WalksPerNode: 2, Epochs: 1, Seed: 2},
			Blocker:     cluster.PersonBlocker{},
			Candidates:  []Candidate{&FamilyCandidate{}},
			Reembed:     true,
			MaxRounds:   maxRounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	graph := func() *pg.Graph {
		return graphgen.NewItalian(graphgen.ItalianConfig{Persons: 80, Companies: 30, Seed: 5}).Graph
	}

	t.Run("fixpoint", func(t *testing.T) {
		const maxRounds = 30
		g, a := graph(), reembedding(t, maxRounds)
		res, err := a.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		// A run that stopped at the cap proves nothing about the fixpoint.
		if res.Rounds >= maxRounds {
			t.Fatalf("rounds = %d reached MaxRounds %d before a fixpoint", res.Rounds, maxRounds)
		}
		res2, err := a.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		for label, n := range res2.Added {
			if n != 0 {
				t.Errorf("second run added %d %s edges; not a fixpoint", n, label)
			}
		}
	})

	t.Run("cap", func(t *testing.T) {
		res, err := reembedding(t, 2).Run(graph())
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 2 {
			t.Errorf("rounds = %d, want the MaxRounds cap 2", res.Rounds)
		}
	})
}

func TestRunIsIdempotentOnEdges(t *testing.T) {
	g, _ := pg.Figure2()
	a, _ := New(Config{NoCluster: true, Candidates: []Candidate{ControlCandidate{baselineOf(t, g).Control}}})
	if _, err := a.Run(g); err != nil {
		t.Fatal(err)
	}
	edges := g.NumEdges()
	if _, err := a.Run(g); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != edges {
		t.Errorf("edge count changed on re-run: %d → %d", edges, g.NumEdges())
	}
}

func TestProposedEdgesCarryProbability(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 40, Companies: 10, Seed: 11})
	a, _ := New(Config{NoCluster: true, Candidates: []Candidate{&FamilyCandidate{}}})
	res, err := a.Run(it.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.AddedEdges {
		p, ok := e.Props["p"].(float64)
		if !ok || p <= 0.5 || p > 1 {
			t.Fatalf("family edge %v has bad probability %v", e, e.Props["p"])
		}
	}
}
