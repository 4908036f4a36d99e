package pg

import (
	"testing"
)

// TestMutationHookObservesAllKinds: the change-capture seam sees every
// committed mutation, in order, with the graph's own structs.
func TestMutationHookObservesAllKinds(t *testing.T) {
	g := New()
	var got []Mutation
	g.SetMutationHook(func(m Mutation) { got = append(got, m) })

	a := g.AddNode(LabelCompany, Properties{"name": "A"})
	b := g.AddNode(LabelCompany, nil)
	eid := g.MustAddEdgeWeighted(a, b, 0.6)
	if !g.RemoveEdge(eid) {
		t.Fatal("RemoveEdge failed")
	}

	want := []MutationKind{MutAddNode, MutAddNode, MutAddEdge, MutRemoveEdge}
	if len(got) != len(want) {
		t.Fatalf("hook saw %d mutations, want %d", len(got), len(want))
	}
	for i, k := range want {
		if got[i].Kind != k {
			t.Errorf("mutation %d kind = %d, want %d", i, got[i].Kind, k)
		}
	}
	if got[0].Node == nil || got[0].Node.ID != a || got[0].Node.Props["name"] != "A" {
		t.Errorf("AddNode mutation carries %+v", got[0].Node)
	}
	if got[2].Edge == nil || got[2].Edge.From != a || got[2].Edge.To != b {
		t.Errorf("AddEdge mutation carries %+v", got[2].Edge)
	}
	if got[3].Edge == nil || got[3].Edge.ID != eid {
		t.Errorf("RemoveEdge mutation carries %+v", got[3].Edge)
	}

	// Failed mutations are not observed.
	if _, err := g.AddEdge(LabelShareholding, a, 999, nil); err == nil {
		t.Fatal("AddEdge to unknown node succeeded")
	}
	if g.RemoveEdge(eid) {
		t.Fatal("second RemoveEdge succeeded")
	}
	if len(got) != len(want) {
		t.Errorf("failed mutations fired the hook: %d events", len(got))
	}

	// nil uninstalls.
	g.SetMutationHook(nil)
	g.AddNode(LabelPerson, nil)
	if len(got) != len(want) {
		t.Error("uninstalled hook still fired")
	}
}

// TestCloneDoesNotInheritHook: a clone is an independent graph; its
// mutations must not be logged as the original's.
func TestCloneDoesNotInheritHook(t *testing.T) {
	g := New()
	fired := 0
	g.SetMutationHook(func(Mutation) { fired++ })
	c := g.Clone()
	c.AddNode(LabelCompany, nil)
	if fired != 0 {
		t.Errorf("clone mutation fired original hook %d times", fired)
	}
}

func TestRestoreRoundTrip(t *testing.T) {
	g := New()
	a := g.AddNode(LabelCompany, Properties{"name": "A"})
	b := g.AddNode(LabelCompany, Properties{"name": "B"})
	p := g.AddNode(LabelPerson, Properties{"name": "P", "birth": 1960.0})
	e0 := g.MustAddEdgeWeighted(a, b, 0.6)
	e1 := g.MustAddEdgeWeighted(p, a, 0.9)
	g.RemoveEdge(e0) // leave a hole: edge IDs are sparse after removals

	var nodes []Node
	for _, id := range g.Nodes() {
		nodes = append(nodes, *g.Node(id))
	}
	var edges []Edge
	for _, id := range g.Edges() {
		edges = append(edges, *g.Edge(id))
	}
	r, err := restore(nodes, edges, g.nextNode, g.nextEdge)
	if err != nil {
		t.Fatal(err)
	}
	if r.NumNodes() != 3 || r.NumEdges() != 1 {
		t.Fatalf("restored %d/%d, want 3/1", r.NumNodes(), r.NumEdges())
	}
	if e := r.Edge(e1); e == nil || e.From != p || e.To != a {
		t.Fatalf("edge %d not preserved: %+v", e1, r.Edge(e1))
	}
	if r.Edge(e0) != nil {
		t.Fatal("removed edge resurrected")
	}
	// Fresh IDs continue past the persisted counters — no collision with the
	// removed edge's ID.
	nid := r.AddNode(LabelCompany, nil)
	if nid != g.nextNode {
		t.Errorf("post-restore node id = %d, want %d", nid, g.nextNode)
	}
	eid := r.MustAddEdgeWeighted(nid, a, 0.3)
	if eid != g.nextEdge {
		t.Errorf("post-restore edge id = %d, want %d", eid, g.nextEdge)
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	n0 := Node{ID: 0, Label: LabelCompany}
	n1 := Node{ID: 1, Label: LabelCompany}
	cases := []struct {
		name               string
		nodes              []Node
		edges              []Edge
		nextNode, nextEdge int64
	}{
		{"duplicate node id", []Node{n0, n0}, nil, 2, 0},
		{"node id beyond counter", []Node{{ID: 5, Label: LabelCompany}}, nil, 2, 0},
		{"negative node id", []Node{{ID: -1, Label: LabelCompany}}, nil, 2, 0},
		{"edge unknown endpoint", []Node{n0}, []Edge{{ID: 0, Label: LabelControl, From: 0, To: 7}}, 1, 1},
		{"duplicate edge id", []Node{n0, n1},
			[]Edge{{ID: 0, Label: LabelControl, From: 0, To: 1}, {ID: 0, Label: LabelControl, From: 1, To: 0}}, 2, 1},
		{"edge id beyond counter", []Node{n0, n1}, []Edge{{ID: 9, Label: LabelControl, From: 0, To: 1}}, 2, 3},
	}
	for _, c := range cases {
		if _, err := restore(c.nodes, c.edges, NodeID(c.nextNode), EdgeID(c.nextEdge)); err == nil {
			t.Errorf("%s: restore accepted corrupt state", c.name)
		}
	}
}

// refusedReplays are mutations Graph.Replay must refuse on replayBase's
// graph: each names an identifier the graph would not assign, an element it
// does not hold, or a change it cannot make.
func refusedReplays() map[string]Mutation {
	return map[string]Mutation{
		"add node, wrong id":      {Kind: MutAddNode, Node: &Node{ID: 7, Label: LabelCompany}},
		"add node, reused id":     {Kind: MutAddNode, Node: &Node{ID: 0, Label: LabelCompany}},
		"add edge, wrong id":      {Kind: MutAddEdge, Edge: &Edge{ID: 9, Label: LabelShareholding, From: 0, To: 1}},
		"add edge, unknown end":   {Kind: MutAddEdge, Edge: &Edge{ID: 1, Label: LabelShareholding, From: 0, To: 99}},
		"remove unknown edge":     {Kind: MutRemoveEdge, Edge: &Edge{ID: 5}},
		"remove unknown node":     {Kind: MutRemoveNode, Node: &Node{ID: 5}},
		"remove node, live edges": {Kind: MutRemoveNode, Node: &Node{ID: 0}},
		"weight edit, no weight":  {Kind: MutSetEdgeWeight, Edge: &Edge{ID: 0, Props: Properties{}}},
		"weight edit, bad weight": {Kind: MutSetEdgeWeight, Edge: &Edge{ID: 0, Props: Properties{WeightProp: 1.5}}},
		"unknown kind":            {Kind: 42},
	}
}

// replayBase is two companies and a share between them, with a counting
// mutation hook.
func replayBase() (*Graph, *int) {
	g := New()
	a := g.AddNode(LabelCompany, nil)
	b := g.AddNode(LabelCompany, nil)
	g.MustAddEdgeWeighted(a, b, 0.5)
	calls := new(int)
	g.SetMutationHook(func(Mutation) { *calls++ })
	return g, calls
}

// TestReplayRefusalChangesNothing: a refused record leaves the graph, its
// counters and its hook exactly as they were.
func TestReplayRefusalChangesNothing(t *testing.T) {
	for name, m := range refusedReplays() {
		g, calls := replayBase()
		if _, err := g.Replay(m); err == nil {
			t.Errorf("%s: Replay accepted it", name)
		}
		if g.NumNodes() != 2 || g.NumEdges() != 1 || g.NextNodeID() != 2 || g.NextEdgeID() != 1 ||
			g.WeightEdits() != 0 || *calls != 0 {
			t.Errorf("%s: refusal moved the graph: %d nodes, %d edges, next %d/%d, %d weight edits, %d hook calls",
				name, g.NumNodes(), g.NumEdges(), g.NextNodeID(), g.NextEdgeID(), g.WeightEdits(), *calls)
		}
		if e := g.Edge(0); e == nil || e.Props[WeightProp] != 0.5 {
			t.Errorf("%s: refusal moved edge 0 to %+v", name, e)
		}
	}
}

// TestReplayReturnsTheFiredMutation: Replay hands back what the hook saw,
// pointing at the graph's own structs, and copies property maps in.
func TestReplayReturnsTheFiredMutation(t *testing.T) {
	g, _ := replayBase()
	var fired []Mutation
	g.SetMutationHook(func(m Mutation) { fired = append(fired, m) })
	props := Properties{"name": "C"}
	stream := []Mutation{
		{Kind: MutAddNode, Node: &Node{ID: 2, Label: LabelCompany, Props: props}},
		{Kind: MutAddEdge, Edge: &Edge{ID: 1, Label: LabelShareholding, From: 2, To: 1, Props: Properties{WeightProp: 0.2}}},
		{Kind: MutSetEdgeWeight, Edge: &Edge{ID: 1, Props: Properties{WeightProp: 0.3}}},
		{Kind: MutRemoveEdge, Edge: &Edge{ID: 1}},
		{Kind: MutRemoveNode, Node: &Node{ID: 2}},
	}
	for i, m := range stream {
		got, err := g.Replay(m)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if len(fired) != i+1 || got != fired[i] {
			t.Fatalf("step %d: Replay returned %+v, the hook saw %+v", i, got, fired)
		}
		if i == 0 {
			props["name"] = "changed"
			if got.Node != g.Node(2) || got.Node.Props["name"] != "C" {
				t.Fatalf("added node %+v is not the graph's own copy", got.Node)
			}
		}
	}
	if w, _ := fired[2].Edge.Weight(); w != 0.3 || fired[2].Edge.From != 2 {
		t.Fatalf("weight edit fired %+v, want the graph's edge at 0.3", fired[2].Edge)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 || g.WeightEdits() != 1 {
		t.Fatalf("after the stream: %d nodes, %d edges, %d weight edits", g.NumNodes(), g.NumEdges(), g.WeightEdits())
	}
}
