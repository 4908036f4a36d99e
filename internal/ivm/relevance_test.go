package ivm

import (
	"testing"

	"vadalink/internal/pg"
)

// TestReachOfClassification pins the commit classifier the query cache and
// the maintainer share: which journals touch the company, person or own
// relations at all (Relevant) — a person or company added with no edges
// does, though it moves no derived pair — and for those, which sources (Up)
// and targets (Down) they reach over the post-commit view. Malformed and
// unknown mutations reach everything.
func TestReachOfClassification(t *testing.T) {
	// a and d own b, b owns c; e stands alone.
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	c := g.AddNode(pg.LabelCompany, nil)
	d := g.AddNode(pg.LabelPerson, nil)
	e := g.AddNode(pg.LabelCompany, nil)
	g.MustAddEdgeWeighted(a, b, 0.4)
	bc := g.MustAddEdgeWeighted(b, c, 0.6)
	g.MustAddEdgeWeighted(d, b, 0.3)
	all := []pg.NodeID{a, b, c, d, e}

	share := func(from, to pg.NodeID) []pg.Mutation {
		return []pg.Mutation{{Kind: pg.MutAddEdge, Edge: &pg.Edge{From: from, To: to, Label: pg.LabelShareholding}}}
	}
	person := []pg.Mutation{{Kind: pg.MutAddNode, Node: &pg.Node{ID: 99, Label: pg.LabelPerson}}}
	cases := []struct {
		name     string
		muts     []pg.Mutation
		relevant bool
		up, down []pg.NodeID // nil with relevant: everything
	}{
		{"empty", nil, false, []pg.NodeID{}, []pg.NodeID{}},
		{"person add", person, true, []pg.NodeID{}, []pg.NodeID{}},
		{"family edge", []pg.Mutation{{Kind: pg.MutAddEdge, Edge: &pg.Edge{From: a, To: e, Label: pg.LabelFamily}}}, false, []pg.NodeID{}, []pg.NodeID{}},
		{"company add", []pg.Mutation{{Kind: pg.MutAddNode, Node: &pg.Node{ID: 98, Label: pg.LabelCompany}}}, true, []pg.NodeID{}, []pg.NodeID{}},
		{"shareholding edge b->c", share(b, c), true, []pg.NodeID{a, b, d}, []pg.NodeID{c}},
		{"weight change b->c", []pg.Mutation{{Kind: pg.MutSetEdgeWeight, Edge: g.Edge(bc)}}, true, []pg.NodeID{a, b, d}, []pg.NodeID{c}},
		{"shareholding edge e->b", share(e, b), true, []pg.NodeID{e}, []pg.NodeID{b, c}},
		{"node remove", []pg.Mutation{{Kind: pg.MutRemoveNode, Node: &pg.Node{ID: e, Label: pg.LabelPerson}}}, true, []pg.NodeID{e}, []pg.NodeID{e}},
		{"mixed irrelevant+relevant", append(person, share(a, b)...), true, []pg.NodeID{a}, []pg.NodeID{b, c}},
		{"nil node", []pg.Mutation{{Kind: pg.MutAddNode}}, true, nil, nil},
		{"nil edge", []pg.Mutation{{Kind: pg.MutAddEdge}}, true, nil, nil},
		{"unknown kind", []pg.Mutation{{Kind: 99}}, true, nil, nil},
	}
	for _, tc := range cases {
		r := ReachOf(g, tc.muts)
		if r.Relevant() != tc.relevant {
			t.Errorf("%s: Relevant() = %v, want %v", tc.name, r.Relevant(), tc.relevant)
		}
		up, down := map[pg.NodeID]bool{}, map[pg.NodeID]bool{}
		for _, n := range tc.up {
			up[n] = true
		}
		for _, n := range tc.down {
			down[n] = true
		}
		for _, n := range all {
			if want := tc.up == nil || up[n]; r.Up(n) != want {
				t.Errorf("%s: Up(%d) = %v, want %v", tc.name, n, r.Up(n), want)
			}
			if want := tc.down == nil || down[n]; r.Down(n) != want {
				t.Errorf("%s: Down(%d) = %v, want %v", tc.name, n, r.Down(n), want)
			}
		}
	}
}
