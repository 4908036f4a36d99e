package relstore_test

import (
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// TestGenericFactsPromoteEverything runs the shipped input mapping
// (Algorithm 2) over the relational facts of Figure 1: every node and every
// shareholding comes out as a generic node or link, each with its type.
func TestGenericFactsPromoteEverything(t *testing.T) {
	g, _ := pg.Figure1()
	e, err := datalog.NewEngine(datalog.MustParse(vadalog.InputMapping))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(g))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	nodes, types := len(e.Facts("gnode")), len(e.Facts("gnodetype"))
	links, etypes := len(e.Facts("glink")), len(e.Facts("gedgetype"))
	if nodes != g.NumNodes() || types != g.NumNodes() {
		t.Errorf("node facts = %d/%d, want %d", nodes, types, g.NumNodes())
	}
	if links != g.NumEdges() || etypes != g.NumEdges() {
		t.Errorf("link facts = %d/%d, want %d", links, etypes, g.NumEdges())
	}
}
