package pg

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddNodeAssignsSequentialIDs(t *testing.T) {
	g := New()
	a := g.AddNode(LabelCompany, nil)
	b := g.AddNode(LabelPerson, nil)
	if a == b {
		t.Fatalf("node IDs collide: %d", a)
	}
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if g.Node(a).Label != LabelCompany {
		t.Errorf("node %d label = %s, want Company", a, g.Node(a).Label)
	}
	if g.Node(b).Label != LabelPerson {
		t.Errorf("node %d label = %s, want Person", b, g.Node(b).Label)
	}
}

func TestAddEdgeRejectsMissingEndpoints(t *testing.T) {
	g := New()
	a := g.AddNode(LabelCompany, nil)
	if _, err := g.AddEdge(LabelShareholding, a, NodeID(99), nil); err == nil {
		t.Error("AddEdge with missing target: want error, got nil")
	}
	if _, err := g.AddEdge(LabelShareholding, NodeID(99), a, nil); err == nil {
		t.Error("AddEdge with missing source: want error, got nil")
	}
}

func TestAdjacency(t *testing.T) {
	g := New()
	a := g.AddNode(LabelCompany, nil)
	b := g.AddNode(LabelCompany, nil)
	c := g.AddNode(LabelCompany, nil)
	e1, _ := g.AddShare(a, b, 0.5)
	e2, _ := g.AddShare(a, c, 0.3)
	e3, _ := g.AddShare(b, c, 0.7)

	if got := g.Out(a); len(got) != 2 || got[0] != e1 || got[1] != e2 {
		t.Errorf("Out(a) = %v, want [%d %d]", got, e1, e2)
	}
	if got := g.In(c); len(got) != 2 || got[0] != e2 || got[1] != e3 {
		t.Errorf("In(c) = %v, want [%d %d]", got, e2, e3)
	}
	if !g.HasEdge(LabelShareholding, a, b) {
		t.Error("HasEdge(a,b) = false, want true")
	}
	if g.HasEdge(LabelShareholding, b, a) {
		t.Error("HasEdge(b,a) = true, want false")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New()
	a := g.AddNode(LabelCompany, nil)
	b := g.AddNode(LabelCompany, nil)
	e, _ := g.AddShare(a, b, 0.5)
	if !g.RemoveEdge(e) {
		t.Fatal("RemoveEdge returned false for live edge")
	}
	if g.RemoveEdge(e) {
		t.Error("RemoveEdge returned true for already-removed edge")
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges = %d after removal, want 0", g.NumEdges())
	}
	if len(g.Out(a)) != 0 || len(g.In(b)) != 0 {
		t.Errorf("adjacency not cleaned: out=%v in=%v", g.Out(a), g.In(b))
	}
	if got := g.EdgesWithLabel(LabelShareholding); len(got) != 0 {
		t.Errorf("EdgesWithLabel after removal = %v, want empty", got)
	}
}

func TestLabelIndexes(t *testing.T) {
	g := New()
	c1 := g.AddNode(LabelCompany, nil)
	p1 := g.AddNode(LabelPerson, nil)
	c2 := g.AddNode(LabelCompany, nil)
	if got := g.NodesWithLabel(LabelCompany); len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Errorf("NodesWithLabel(Company) = %v", got)
	}
	if got := g.NodesWithLabel(LabelPerson); len(got) != 1 || got[0] != p1 {
		t.Errorf("NodesWithLabel(Person) = %v", got)
	}
}

func TestValidateCompanyGraph(t *testing.T) {
	g := New()
	c := g.AddNode(LabelCompany, nil)
	p := g.AddNode(LabelPerson, nil)
	if _, err := g.AddShare(p, c, 0.4); err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}

	// Shareholding into a person is invalid.
	bad := New()
	c2 := bad.AddNode(LabelCompany, nil)
	p2 := bad.AddNode(LabelPerson, nil)
	bad.MustAddEdge(LabelShareholding, c2, p2, Properties{WeightProp: 0.5})
	if err := bad.Validate(); err == nil {
		t.Error("shareholding into a Person accepted, want error")
	}

	// Out-of-range weight is invalid.
	bad2 := New()
	a := bad2.AddNode(LabelCompany, nil)
	b := bad2.AddNode(LabelCompany, nil)
	bad2.MustAddEdge(LabelShareholding, a, b, Properties{WeightProp: 1.5})
	if err := bad2.Validate(); err == nil {
		t.Error("share amount 1.5 accepted, want error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, b := Figure1()
	c := g.Clone()
	// Mutating the clone must not affect the original.
	c.Node(b.ID("C")).Props["name"] = "mutated"
	id, _ := c.AddShare(b.ID("C"), b.ID("D"), 0.1)
	_ = id
	if g.Node(b.ID("C")).Props["name"] != "C" {
		t.Error("clone shares node property map with original")
	}
	if g.NumEdges() == c.NumEdges() {
		t.Error("adding edge to clone changed original edge count")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g, _ := Figure2()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes/edges, want %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for _, id := range g.Nodes() {
		if got.Node(id) == nil || got.Node(id).Label != g.Node(id).Label {
			t.Errorf("node %d lost or relabelled in round trip", id)
		}
	}
	// New IDs must not collide with restored ones.
	n := got.AddNode(LabelCompany, nil)
	if got.Node(n) == nil || g.Node(n) != nil && n < NodeID(g.NumNodes()) {
		t.Errorf("fresh node ID %d collides with restored IDs", n)
	}
}

func TestFigure1Invariants(t *testing.T) {
	g, b := Figure1()
	if err := g.Validate(); err != nil {
		t.Fatalf("Figure1 invalid: %v", err)
	}
	if n := len(g.NodesWithLabel(LabelCompany)); n != 8 {
		t.Errorf("Figure1 companies = %d, want 8", n)
	}
	if n := len(g.NodesWithLabel(LabelPerson)); n != 2 {
		t.Errorf("Figure1 persons = %d, want 2", n)
	}
	// P1 directly owns 80% of C.
	var found bool
	for _, e := range g.OutLabel(b.ID("P1"), LabelShareholding) {
		if e.To == b.ID("C") {
			w, _ := e.Weight()
			if w != 0.8 {
				t.Errorf("P1→C share = %v, want 0.8", w)
			}
			found = true
		}
	}
	if !found {
		t.Error("missing P1→C shareholding")
	}
}

func TestBuilderPanicsOnLabelConflict(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("builder accepted same key as both Company and Person")
		}
	}()
	b := NewBuilder()
	b.Company("X")
	b.Person("X")
}

// Property: for any sequence of edge insertions among a fixed node set, every
// edge is reachable through both its endpoints' adjacency lists.
func TestAdjacencyConsistencyProperty(t *testing.T) {
	f := func(pairs []struct{ F, T uint8 }) bool {
		g := New()
		const n = 16
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(LabelCompany, nil)
		}
		for _, p := range pairs {
			from, to := ids[int(p.F)%n], ids[int(p.T)%n]
			if _, err := g.AddShare(from, to, 0.5); err != nil {
				return false
			}
		}
		for _, eid := range g.Edges() {
			e := g.Edge(eid)
			if !containsEdge(g.Out(e.From), eid) || !containsEdge(g.In(e.To), eid) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func containsEdge(s []EdgeID, id EdgeID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}

func TestWriteDOT(t *testing.T) {
	g, b := Figure2()
	g.MustAddEdge(LabelControl, b.ID("P2"), b.ID("C7"), nil)
	g.MustAddEdge(LabelCloseLink, b.ID("C4"), b.ID("C7"), nil)
	g.MustAddEdge(LabelCloseLink, b.ID("C7"), b.ID("C4"), nil)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph company", "shape=ellipse", "shape=box",
		"color=green", "color=magenta", "80%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
	// Symmetric close link rendered once.
	if n := strings.Count(out, "close link"); n != 1 {
		t.Errorf("close link rendered %d times, want 1", n)
	}
}

func TestNeighborhood(t *testing.T) {
	g, b := Figure1()
	// 1 hop around D: P1 (owner), E and F (owned).
	sub, mapping := NeighborhoodOf(g, b.ID("D"), 1)
	if len(mapping) != 4 {
		t.Fatalf("1-hop ego of D has %d nodes, want 4 (D, P1, E, F)", len(mapping))
	}
	for _, orig := range []NodeID{b.ID("D"), b.ID("P1"), b.ID("E"), b.ID("F")} {
		if _, ok := mapping[orig]; !ok {
			t.Errorf("node %d missing from ego network", orig)
		}
	}
	// Induced edges present: D→E, D→F, P1→D, P1→E, E→F.
	if sub.NumEdges() != 5 {
		t.Errorf("induced edges = %d, want 5", sub.NumEdges())
	}
	// 0 hops: just the center.
	solo, m := NeighborhoodOf(g, b.ID("D"), 0)
	if solo.NumNodes() != 1 || len(m) != 1 {
		t.Errorf("0-hop ego = %d nodes", solo.NumNodes())
	}
	// Unknown center: empty.
	empty, _ := NeighborhoodOf(g, NodeID(999), 2)
	if empty.NumNodes() != 0 {
		t.Error("unknown center produced nodes")
	}
}
