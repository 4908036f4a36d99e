package whatif

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"vadalink/internal/pg"
)

// acquisitionGraph is the README example: Alpha holds 25% of Beta, Carol
// holds the majority of Alpha, Delta holds 40% of Beta.
func acquisitionGraph(t *testing.T) (g *pg.Graph, alpha, beta, delta pg.NodeID) {
	t.Helper()
	g = pg.New()
	alpha = g.AddNode(pg.LabelCompany, pg.Properties{"name": "Alpha"})
	beta = g.AddNode(pg.LabelCompany, pg.Properties{"name": "Beta"})
	delta = g.AddNode(pg.LabelCompany, pg.Properties{"name": "Delta"})
	carol := g.AddNode(pg.LabelPerson, pg.Properties{"name": "Carol"})
	mustShare(t, g, alpha, beta, 0.25)
	mustShare(t, g, delta, beta, 0.40)
	mustShare(t, g, carol, alpha, 0.60)
	return g, alpha, beta, delta
}

func mustShare(t *testing.T, g *pg.Graph, from, to pg.NodeID, w float64) pg.EdgeID {
	t.Helper()
	id, err := g.AddShare(from, to, w)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// controls reports whether bl holds control(x, y).
func controls(bl *Baseline, x, y pg.NodeID) bool { return slices.Contains(bl.Control[x], y) }

// successor advances bl under the journal ops leave on an overlay over g:
// the composite relations a commit of the scenario would publish, which
// Evaluate, reporting only the diff, does not build.
func successor(t *testing.T, g pg.View, bl *Baseline, ops []Op) *Baseline {
	t.Helper()
	o := pg.NewOverlay(g)
	if _, _, err := Apply(o, ops); err != nil {
		t.Fatal(err)
	}
	journal, _ := o.Journal()
	next, _, err := bl.Advance(context.Background(), o, journal)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestAcquisitionScenario(t *testing.T) {
	g, alpha, beta, _ := acquisitionGraph(t)
	ctx := context.Background()
	bl, err := ComputeBaseline(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if controls(bl, alpha, beta) {
		t.Fatal("baseline: Alpha already controls Beta at 25%")
	}

	// Alpha acquires an additional 30% of Beta: 55% > 50%.
	ops := []Op{{Op: "addShare", From: alpha, To: beta, W: 0.30}}
	res, err := Evaluate(ctx, g, bl, ops, Options{})
	if err != nil {
		t.Fatal(err)
	}
	next := successor(t, g, bl, ops)
	if !controls(next, alpha, beta) {
		t.Fatal("what-if: Alpha does not control Beta after the acquisition")
	}
	found := false
	for _, p := range res.ControlGained {
		if p == (Pair{alpha, beta}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("ControlGained = %v, want to include [%d %d]", res.ControlGained, alpha, beta)
	}
	if len(res.ControlLost) != 0 {
		t.Fatalf("ControlLost = %v, want none", res.ControlLost)
	}
	// Alpha–Beta become closely linked: Alpha now accumulates 55% ≥ 20% of
	// Beta (Delta–Beta at 40% was a baseline close link already).
	if next.CloseLink[canonical(alpha, beta)] == 0 {
		t.Fatalf("CloseLink = %v, want Alpha–Beta", next.CloseLink)
	}
	if bl.CloseLink[canonical(2, beta)] == 0 || res.CloseLinkLost != nil {
		t.Fatalf("Delta–Beta baseline close link disturbed: lost %v", res.CloseLinkLost)
	}
	// Scoping: only Alpha's reverse cone (Alpha + Carol) is affected.
	if res.AffectedSources >= g.NumNodes() {
		t.Fatalf("AffectedSources = %d, want a strict subset of %d nodes", res.AffectedSources, g.NumNodes())
	}
	if res.Delta.AddedEdges != 1 {
		t.Fatalf("Delta = %+v, want exactly one added edge", res.Delta)
	}
	// The base graph is untouched.
	if g.NumEdges() != 3 {
		t.Fatalf("base graph mutated: %d edges", g.NumEdges())
	}
}

func TestDivestitureScenario(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	e := mustShare(t, g, a, b, 0.8)
	ctx := context.Background()
	bl, err := ComputeBaseline(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !controls(bl, a, b) {
		t.Fatal("baseline: A does not control B at 80%")
	}

	res, err := Evaluate(ctx, g, bl, []Op{{Op: "setShare", Edge: e, W: 0.3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ControlLost) != 1 || res.ControlLost[0] != (Pair{a, b}) {
		t.Fatalf("ControlLost = %v, want exactly [%d %d]", res.ControlLost, a, b)
	}
	// setShare by endpoints instead of edge ID resolves the same edge.
	res2, err := Evaluate(ctx, g, bl, []Op{{Op: "setShare", From: a, To: b, W: 0.3}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.ControlLost) != 1 {
		t.Fatalf("endpoint-addressed setShare: ControlLost = %v", res2.ControlLost)
	}
}

func TestCreatedNodeIDsAreReferenceable(t *testing.T) {
	g, _, beta, _ := acquisitionGraph(t)
	ctx := context.Background()
	bl, err := ComputeBaseline(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A new holding company is created and immediately takes 35% of Beta
	// (Beta has 35% unallocated) — with Alpha's 25% it stays minority.
	newCo := g.NextNodeID()
	ops := []Op{
		{Op: "addNode", Label: "Company", Name: "NewCo"},
		{Op: "addShare", From: newCo, To: beta, W: 0.35},
	}
	res, err := Evaluate(ctx, g, bl, ops, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Created) != 1 || res.Created[0] != newCo {
		t.Fatalf("Created = %v, want [%d]", res.Created, newCo)
	}
	next := successor(t, g, bl, ops)
	if controls(next, newCo, beta) {
		t.Fatal("35% should not control Beta")
	}
	if next.CloseLink[canonical(newCo, beta)] == 0 {
		t.Fatalf("CloseLink = %v, want NewCo–Beta at 35%% ≥ 20%%", next.CloseLink)
	}
}

func TestApplyErrors(t *testing.T) {
	g, alpha, beta, _ := acquisitionGraph(t)
	cases := []struct {
		name string
		ops  []Op
		idx  int
	}{
		{"unknown op", []Op{{Op: "merge"}}, 0},
		{"bad label", []Op{{Op: "addNode", Label: "Bank"}}, 0},
		{"share out of range", []Op{{Op: "addShare", From: alpha, To: beta, W: 1.5}}, 0},
		{"over 100% owned", []Op{{Op: "addShare", From: alpha, To: beta, W: 0.9}}, 0},
		{"share of person", []Op{{Op: "addShare", From: alpha, To: 3, W: 0.5}}, 0},
		{"unknown edge", []Op{{Op: "removeEdge", Edge: 99}}, 0},
		{"unknown node", []Op{{Op: "removeNode", Node: 99}}, 0},
		{"second op bad", []Op{{Op: "addNode"}, {Op: "setShare", Edge: 99, W: 0.5}}, 1},
	}
	for _, tc := range cases {
		o := pg.NewOverlay(g)
		_, _, err := Apply(o, tc.ops)
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Errorf("%s: err = %v, want *OpError", tc.name, err)
			continue
		}
		if oe.Index != tc.idx {
			t.Errorf("%s: error at op %d, want %d", tc.name, oe.Index, tc.idx)
		}
	}
}

func TestEvaluateThresholdMismatch(t *testing.T) {
	g, alpha, beta, _ := acquisitionGraph(t)
	ctx := context.Background()
	bl, err := ComputeBaseline(ctx, g, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Evaluate(ctx, g, bl, []Op{{Op: "addShare", From: alpha, To: beta, W: 0.1}}, Options{Threshold: 0.3})
	if err == nil || !strings.Contains(err.Error(), "threshold") {
		t.Fatalf("err = %v, want threshold mismatch", err)
	}
}

// TestEvaluateNeverTouchesBase pins the isolation contract at the package
// level: a what-if burst over a hooked graph fires zero mutation hooks (the
// seam the WAL hangs on) and leaves the structure untouched.
func TestEvaluateNeverTouchesBase(t *testing.T) {
	g, alpha, beta, delta := acquisitionGraph(t)
	fired := 0
	g.SetMutationHook(func(pg.Mutation) { fired++ })
	nodes, edges := g.NumNodes(), g.NumEdges()
	ctx := context.Background()
	bl, err := ComputeBaseline(ctx, g, 0)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Op{
		{{Op: "addShare", From: alpha, To: beta, W: 0.3}},
		{{Op: "removeNode", Node: delta}},
		{{Op: "addNode"}, {Op: "addShare", From: g.NextNodeID(), To: delta, W: 0.9}},
	}
	for _, ops := range batches {
		if _, err := Evaluate(ctx, g, bl, ops, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if fired != 0 {
		t.Fatalf("mutation hook fired %d times during what-if evaluation", fired)
	}
	if g.NumNodes() != nodes || g.NumEdges() != edges {
		t.Fatalf("base graph changed shape: %d/%d nodes, %d/%d edges", g.NumNodes(), nodes, g.NumEdges(), edges)
	}
}
