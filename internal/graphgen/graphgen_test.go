package graphgen

import (
	"testing"

	"vadalink/internal/family"
	"vadalink/internal/graphstats"
	"vadalink/internal/pg"
)

func TestBarabasiBasicShape(t *testing.T) {
	g := Barabasi(500, 2, 1)
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d, want 500", g.NumNodes())
	}
	// m=2 gives roughly 2 edges per node (first nodes attach fewer).
	if e := g.NumEdges(); e < 700 || e > 1000 {
		t.Errorf("edges = %d, want ≈ 1000", e)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid company graph: %v", err)
	}
}

func TestBarabasiDeterministic(t *testing.T) {
	g1 := Barabasi(200, 2, 7)
	g2 := Barabasi(200, 2, 7)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", g1.NumEdges(), g2.NumEdges())
	}
	for _, eid := range g1.Edges() {
		e1, e2 := g1.Edge(eid), g2.Edge(eid)
		if e1.From != e2.From || e1.To != e2.To {
			t.Fatal("edge structure differs between same-seed runs")
		}
	}
}

func TestBarabasiScaleFree(t *testing.T) {
	g := Barabasi(2000, 2, 3)
	s := graphstats.Compute(g)
	// Scale-free networks have hubs: max degree far above the average.
	if float64(s.MaxInDegree) < 5*s.AvgInDegree {
		t.Errorf("no hubs: max in-degree %d vs avg %.2f", s.MaxInDegree, s.AvgInDegree)
	}
	// Power-law exponent lands in the usual 1.5–3.5 band for BA graphs.
	if s.PowerLawAlpha < 1.5 || s.PowerLawAlpha > 3.5 {
		t.Errorf("power-law α = %.2f, want ∈ [1.5, 3.5]", s.PowerLawAlpha)
	}
}

func TestNormalizeShares(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	c := g.AddNode(pg.LabelCompany, nil)
	addShares(g, []share{{a, c, 0.9}, {b, c, 0.9}, {a, b, 0.5}})
	var sum float64
	for _, e := range g.InLabel(c, pg.LabelShareholding) {
		w, _ := e.Weight()
		sum += w
	}
	if sum > 1+1e-12 {
		t.Errorf("incoming shares sum to %v after normalization", sum)
	}
	// Proportions preserved: both owners keep equal shares.
	es := g.InLabel(c, pg.LabelShareholding)
	w0, _ := es[0].Weight()
	w1, _ := es[1].Weight()
	if w0 != w1 {
		t.Errorf("proportions not preserved: %v vs %v", w0, w1)
	}
	// A target owned at most 100% keeps its weight.
	if w, _ := g.InLabel(b, pg.LabelShareholding)[0].Weight(); w != 0.5 {
		t.Errorf("share into an under-allocated target rescaled to %v", w)
	}
}

func TestItalianDefaults(t *testing.T) {
	it := NewItalian(ItalianConfig{Persons: 300, Seed: 5})
	g := it.Graph
	if got := len(g.NodesWithLabel(pg.LabelPerson)); got != 300 {
		t.Errorf("persons = %d, want 300", got)
	}
	if got := len(g.NodesWithLabel(pg.LabelCompany)); got != 300 {
		t.Errorf("companies = %d, want 300 (default = persons)", got)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("invalid company graph: %v", err)
	}
}

func TestItalianGroundTruthConsistent(t *testing.T) {
	it := NewItalian(ItalianConfig{Persons: 200, Seed: 9})
	g := it.Graph
	if len(it.Truth) == 0 {
		t.Fatal("no planted ground truth")
	}
	classes := map[family.LinkClass]int{}
	for _, gl := range it.Truth {
		if g.Node(gl.X) == nil || g.Node(gl.Y) == nil {
			t.Fatal("ground-truth link references missing node")
		}
		if g.Node(gl.X).Label != pg.LabelPerson || g.Node(gl.Y).Label != pg.LabelPerson {
			t.Fatal("ground-truth link between non-persons")
		}
		classes[gl.Class]++
	}
	for _, c := range []family.LinkClass{family.PartnerOf, family.SiblingOf, family.ParentOf} {
		if classes[c] == 0 {
			t.Errorf("no planted %s links; classes = %v", c, classes)
		}
	}
}

func TestItalianFamiliesShareAddress(t *testing.T) {
	it := NewItalian(ItalianConfig{Persons: 100, Seed: 2})
	g := it.Graph
	for fam, members := range it.Families {
		if len(members) < 2 {
			continue
		}
		addr := g.Node(members[0]).Props.Map()["addr"]
		for _, m := range members[1:] {
			if g.Node(m).Props.Map()["addr"] != addr {
				t.Errorf("family %s members have different addresses", fam)
			}
		}
	}
}

func TestItalianStatsProfile(t *testing.T) {
	// The generated graph must reproduce the §2 profile qualitatively:
	// avg degree ≈ 1, tiny SCCs, large WCC fragmentation, near-zero
	// clustering coefficient, hubs, self-loops.
	it := NewItalian(ItalianConfig{Persons: 5000, Companies: 5000, Seed: 4})
	s := graphstats.Compute(it.Graph)
	if s.AvgOutDegree < 0.7 || s.AvgOutDegree > 1.3 {
		t.Errorf("avg degree = %.2f, want ≈ 1", s.AvgOutDegree)
	}
	if s.LargestSCC > 30 {
		t.Errorf("largest SCC = %d, want small (paper: 15 on 4M nodes)", s.LargestSCC)
	}
	if s.AvgClustering > 0.05 {
		t.Errorf("clustering coefficient = %.4f, want ≈ 0", s.AvgClustering)
	}
	if float64(s.MaxInDegree) < 10*s.AvgInDegree {
		t.Errorf("no hubs: max in-degree %d", s.MaxInDegree)
	}
	if s.SelfLoops == 0 {
		t.Error("no buy-back self-loops generated")
	}
}

func TestDensityLevels(t *testing.T) {
	prev := 0
	for _, d := range []DensityLevel{Sparse, Normal, Dense, Superdense} {
		g := Barabasi(300, d.EdgesPerNode(), 6)
		if g.NumEdges() <= prev {
			t.Errorf("density %s edges = %d, not above previous %d", d, g.NumEdges(), prev)
		}
		prev = g.NumEdges()
	}
}
