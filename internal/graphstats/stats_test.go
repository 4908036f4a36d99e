package graphstats

import (
	"math"
	"testing"

	"vadalink/internal/pg"
)

func chain(n int) *pg.Graph {
	g := pg.New()
	var ids []pg.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode(pg.LabelCompany, nil))
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(pg.LabelShareholding, ids[i], ids[i+1], pg.Properties{pg.WeightProp: 0.5})
	}
	return g
}

func TestChainStats(t *testing.T) {
	g := chain(5)
	s := Compute(g)
	if s.Nodes != 5 || s.Edges != 4 {
		t.Fatalf("nodes/edges = %d/%d", s.Nodes, s.Edges)
	}
	if s.SCCCount != 5 || s.LargestSCC != 1 {
		t.Errorf("SCC = %d/%d, want 5 components of size 1", s.SCCCount, s.LargestSCC)
	}
	if s.WCCCount != 1 || s.LargestWCC != 5 {
		t.Errorf("WCC = %d/%d, want one component of size 5", s.WCCCount, s.LargestWCC)
	}
	if s.MaxInDegree != 1 || s.MaxOutDegree != 1 {
		t.Errorf("max degrees = %d/%d, want 1/1", s.MaxInDegree, s.MaxOutDegree)
	}
	if s.AvgClustering != 0 {
		t.Errorf("chain clustering = %v, want 0", s.AvgClustering)
	}
}

func TestCycleSCC(t *testing.T) {
	g := pg.New()
	var ids []pg.NodeID
	for i := 0; i < 4; i++ {
		ids = append(ids, g.AddNode(pg.LabelCompany, nil))
	}
	for i := 0; i < 4; i++ {
		g.MustAddEdge(pg.LabelShareholding, ids[i], ids[(i+1)%4], pg.Properties{pg.WeightProp: 0.2})
	}
	// Plus a dangling node.
	g.AddNode(pg.LabelCompany, nil)
	s := Compute(g)
	if s.SCCCount != 2 {
		t.Errorf("SCC count = %d, want 2 (4-cycle + singleton)", s.SCCCount)
	}
	if s.LargestSCC != 4 {
		t.Errorf("largest SCC = %d, want 4", s.LargestSCC)
	}
	if s.WCCCount != 2 {
		t.Errorf("WCC count = %d, want 2", s.WCCCount)
	}
}

func TestTriangleClustering(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	c := g.AddNode(pg.LabelCompany, nil)
	g.MustAddEdge(pg.LabelShareholding, a, b, pg.Properties{pg.WeightProp: 0.2})
	g.MustAddEdge(pg.LabelShareholding, b, c, pg.Properties{pg.WeightProp: 0.2})
	g.MustAddEdge(pg.LabelShareholding, a, c, pg.Properties{pg.WeightProp: 0.2})
	s := Compute(g)
	if math.Abs(s.AvgClustering-1) > 1e-12 {
		t.Errorf("triangle clustering = %v, want 1", s.AvgClustering)
	}
}

func TestSelfLoopsCounted(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	g.MustAddEdge(pg.LabelShareholding, a, a, pg.Properties{pg.WeightProp: 0.1})
	s := Compute(g)
	if s.SelfLoops != 1 {
		t.Errorf("self loops = %d, want 1", s.SelfLoops)
	}
	// A self-loop alone forms one SCC of size 1.
	if s.SCCCount != 1 || s.LargestSCC != 1 {
		t.Errorf("SCC = %d/%d", s.SCCCount, s.LargestSCC)
	}
}

func TestEmptyGraph(t *testing.T) {
	s := Compute(pg.New())
	if s.Nodes != 0 || s.Edges != 0 || s.SCCCount != 0 || s.WCCCount != 0 {
		t.Errorf("empty graph stats = %+v", s)
	}
}

func TestStarDegrees(t *testing.T) {
	g := pg.New()
	hub := g.AddNode(pg.LabelCompany, nil)
	for i := 0; i < 10; i++ {
		leaf := g.AddNode(pg.LabelCompany, nil)
		g.MustAddEdge(pg.LabelShareholding, leaf, hub, pg.Properties{pg.WeightProp: 0.05})
	}
	s := Compute(g)
	if s.MaxInDegree != 10 {
		t.Errorf("hub in-degree = %d, want 10", s.MaxInDegree)
	}
	if s.MaxOutDegree != 1 {
		t.Errorf("max out-degree = %d, want 1", s.MaxOutDegree)
	}
	if s.WCCCount != 1 {
		t.Errorf("WCC = %d, want 1", s.WCCCount)
	}
}

func TestStringRendering(t *testing.T) {
	s := Compute(chain(3))
	out := s.String()
	if out == "" {
		t.Error("empty String()")
	}
}

func TestLargeRandomDoesNotOverflowStack(t *testing.T) {
	// Iterative Tarjan must handle long chains without recursion limits.
	g := chain(200000)
	s := Compute(g)
	if s.SCCCount != 200000 {
		t.Errorf("SCC count = %d", s.SCCCount)
	}
}

func TestConcentration(t *testing.T) {
	g := pg.New()
	p1 := g.AddNode(pg.LabelPerson, nil)
	p2 := g.AddNode(pg.LabelPerson, nil)
	sole := g.AddNode(pg.LabelCompany, nil)     // 100% one owner
	split := g.AddNode(pg.LabelCompany, nil)    // 50/50
	majority := g.AddNode(pg.LabelCompany, nil) // 60/40
	orphan := g.AddNode(pg.LabelCompany, nil)   // no owners
	_ = orphan
	g.MustAddEdgeWeighted(p1, sole, 1.0)
	g.MustAddEdgeWeighted(p1, split, 0.5)
	g.MustAddEdgeWeighted(p2, split, 0.5)
	g.MustAddEdgeWeighted(p1, majority, 0.6)
	g.MustAddEdgeWeighted(p2, majority, 0.4)
	// Buy-back must be ignored.
	g.MustAddEdgeWeighted(sole, sole, 0.1)

	c := ComputeConcentration(g)
	if c.CompaniesWithOwners != 3 {
		t.Errorf("companies with owners = %d, want 3", c.CompaniesWithOwners)
	}
	if c.SoleOwner != 1 {
		t.Errorf("sole-owner companies = %d, want 1", c.SoleOwner)
	}
	if c.MajorityHeld != 2 { // sole (100%) and majority (60%)
		t.Errorf("majority-held = %d, want 2", c.MajorityHeld)
	}
	// HHIs: 1.0, 0.5, 0.52 → mean ≈ 0.673, median 0.52.
	if math.Abs(c.MeanHHI-(1.0+0.5+0.52)/3) > 1e-9 {
		t.Errorf("mean HHI = %v", c.MeanHHI)
	}
	if math.Abs(c.MedianHHI-0.52) > 1e-9 {
		t.Errorf("median HHI = %v", c.MedianHHI)
	}
	if math.Abs(c.MeanTopShare-(1.0+0.5+0.6)/3) > 1e-9 {
		t.Errorf("mean top share = %v", c.MeanTopShare)
	}
}

func TestConcentrationEmpty(t *testing.T) {
	c := ComputeConcentration(pg.New())
	if c.CompaniesWithOwners != 0 || c.MeanHHI != 0 {
		t.Errorf("empty concentration = %+v", c)
	}
}
