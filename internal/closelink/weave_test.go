package closelink_test

import (
	"reflect"
	"testing"

	"vadalink/internal/closelink"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
)

// The close-link edges of the knowledge graph are woven by the rule program
// (vadalog.Reasoner.Apply over Algorithm 6); these tests hold that weave to
// the close-link semantics this package computes.

func TestAnnotateSymmetric(t *testing.T) {
	g, b := pg.Figure2()
	links := closelink.CloseLinks(g, 0.2, closelink.Options{})
	r := vadalog.NewReasoner(g, vadalog.TaskCloseLink)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	added, err := r.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("no close-link edges added")
	}
	if !g.HasEdge(pg.LabelCloseLink, b.ID("C4"), b.ID("C7")) ||
		!g.HasEdge(pg.LabelCloseLink, b.ID("C7"), b.ID("C4")) {
		t.Error("close-link edges must be added in both directions")
	}
	// Every close link of Definition 2.6 lands, both ways round.
	for _, l := range links {
		if !g.HasEdge(pg.LabelCloseLink, l.Pair.A, l.Pair.B) ||
			!g.HasEdge(pg.LabelCloseLink, l.Pair.B, l.Pair.A) {
			t.Errorf("close link %v not woven in both directions", l.Pair)
		}
	}
	if again, err := r.Apply(); err != nil || again != 0 {
		t.Errorf("second Apply added %d (err %v), want 0", again, err)
	}
}

func TestFamilyCloseLinks(t *testing.T) {
	// P1 and P2 are family; P1 owns 75% of D, P2 owns 60% of G → D–G close
	// link through the family (the §1 discussion of D and G).
	g, b := pg.Figure1()
	closeLinks := func(families map[string][]pg.NodeID) [][2]pg.NodeID {
		t.Helper()
		r := vadalog.NewReasoner(g, vadalog.TaskFamilyCloseLink)
		r.Families = families
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return r.CloseLinkPairs()
	}
	links := closeLinks(map[string][]pg.NodeID{"rossi": {b.ID("P1"), b.ID("P2")}})
	dID, gID := b.ID("D"), b.ID("G")
	found := false
	for _, p := range links {
		if p == [2]pg.NodeID{dID, gID} || p == [2]pg.NodeID{gID, dID} {
			found = true
		}
	}
	if !found {
		t.Errorf("missing family close link (D, G); got %v", links)
	}
	// A single-member family adds nothing beyond ordinary close links
	// (requires i ≠ j).
	solo := closeLinks(map[string][]pg.NodeID{"x": {b.ID("P1")}})
	if none := closeLinks(nil); !reflect.DeepEqual(solo, none) {
		t.Errorf("single-member family close links = %v, want the family-free %v", solo, none)
	}
}
