package control_test

import (
	"testing"

	"vadalink/internal/control"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
)

// The control edges of the knowledge graph are woven by the rule program
// (vadalog.Reasoner.Apply over Algorithm 5); this test holds that weave to
// the control semantics this package computes.
func TestAnnotateAddsControlEdges(t *testing.T) {
	g, b := pg.Figure2()
	pairs := control.AllPairs(g)
	r := vadalog.NewReasoner(g, vadalog.TaskControl)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	added, err := r.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("Apply added no edges")
	}
	if !g.HasEdge(pg.LabelControl, b.ID("P2"), b.ID("C7")) {
		t.Error("missing P2→C7 control edge")
	}
	// Every control pair of Definition 2.3 lands as an edge.
	for _, p := range pairs {
		if !g.HasEdge(pg.LabelControl, p.From, p.To) {
			t.Errorf("control pair %v not woven", p)
		}
	}
	if again, err := r.Apply(); err != nil || again != 0 {
		t.Errorf("second Apply added %d edges (err %v), want 0", again, err)
	}
}
