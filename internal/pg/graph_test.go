package pg

import (
	"bytes"
	"fmt"
	"math"
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

// TestValidateCompanyGraph: Validate accepts a valid graph, and an edge that
// breaks Definition 2.2 is refused where it enters; smuggled into the
// graph's edge slice past the mutator, it is reported by Validate with the
// same text, since both walk one check.
func TestValidateCompanyGraph(t *testing.T) {
	g := New()
	c := g.AddNode(LabelCompany, nil)
	p := g.AddNode(LabelPerson, nil)
	e, err := g.AddShare(p, c, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}
	for name, bad := range map[string]Edge{
		"into a Person":   {From: c, To: p, Props: weightRecord(0.5)},
		"share 1.5":       {From: p, To: c, Props: weightRecord(1.5)},
		"share NaN":       {From: p, To: c, Props: weightRecord(math.NaN())},
		"no share amount": {From: p, To: c},
	} {
		refused := g.Clone()
		_, err := refused.AddEdge(LabelShareholding, bad.From, bad.To, bad.Props)
		if err == nil {
			t.Errorf("%s: AddEdge accepted it", name)
			continue
		}
		smuggled := g.Clone()
		bad.ID, bad.Label = smuggled.NextEdgeID(), LabelShareholding
		smuggled.edges = append(smuggled.edges, &bad)
		smuggled.numEdges++
		if verr := smuggled.Validate(); verr == nil || verr.Error() != err.Error() {
			t.Errorf("%s: Validate reports %v, AddEdge refused with %v", name, verr, err)
		}
	}
	if err := g.SetEdgeWeight(e, math.NaN()); err == nil {
		t.Error("SetEdgeWeight(NaN) accepted")
	}
}

// dumpGraph renders everything a graph holds by value — elements with their
// properties, adjacency and label orders, counters — so a write through a
// shared element shows up in every graph that shares it.
func dumpGraph(t *testing.T, g *Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "next %d/%d, %d weight edits\n", g.NextNodeID(), g.NextEdgeID(), g.WeightEdits())
	for _, id := range g.Nodes() {
		fmt.Fprintf(&buf, "%d out %v in %v\n", id, g.Out(id), g.In(id))
	}
	for _, l := range []Label{LabelCompany, LabelPerson} {
		fmt.Fprintf(&buf, "%s %v\n", l, g.NodesWithLabel(l))
	}
	fmt.Fprintf(&buf, "%s %v\n", LabelShareholding, g.EdgesWithLabel(LabelShareholding))
	return buf.String()
}

// TestCloneDiverges: a clone shares its elements with its origin, so every
// mutation must leave the other graph as it was — in both directions — and
// an element stays pointer-equal in both until one of them writes it.
func TestCloneDiverges(t *testing.T) {
	_, b := Figure1()
	share := b.Graph().Out(b.ID("P1"))[0]
	mutations := map[string]func(g *Graph) error{
		"AddNode": func(g *Graph) error { g.AddNode(LabelCompany, Properties{"name": "M"}); return nil },
		"AddEdge": func(g *Graph) error { _, err := g.AddShare(b.ID("P2"), b.ID("L"), 0.1); return err },
		"RemoveEdge": func(g *Graph) error {
			if !g.RemoveEdge(share) {
				return fmt.Errorf("edge %d missing", share)
			}
			return nil
		},
		"RemoveNode": func(g *Graph) error {
			if !g.RemoveNode(b.ID("E")) {
				return fmt.Errorf("node E missing")
			}
			return nil
		},
		"SetEdgeWeight": func(g *Graph) error { return g.SetEdgeWeight(share, 0.35) },
		"Replay": func(g *Graph) error {
			_, err := g.Replay(Mutation{Kind: MutSetEdgeWeight, Edge: &Edge{ID: share, Props: rec(Properties{WeightProp: 0.45})}})
			return err
		},
	}
	for name, mutate := range mutations {
		for _, writeClone := range []bool{true, false} {
			g, _ := Figure1()
			c := g.Clone()
			written, kept, side := g, c, "origin"
			if writeClone {
				written, kept, side = c, g, "clone"
			}
			before := dumpGraph(t, kept)
			if err := mutate(written); err != nil {
				t.Fatalf("%s on the %s: %v", name, side, err)
			}
			if dumpGraph(t, written) == before {
				t.Fatalf("%s on the %s changed nothing", name, side)
			}
			if got := dumpGraph(t, kept); got != before {
				t.Errorf("%s on the %s moved the other graph:\n%s\nwant\n%s", name, side, got, before)
			}
		}
	}

	g, _ := Figure1()
	c := g.Clone()
	for _, id := range g.Nodes() {
		if c.Node(id) != g.Node(id) {
			t.Errorf("node %d copied by Clone, want shared", id)
		}
	}
	for _, id := range g.Edges() {
		if c.Edge(id) != g.Edge(id) {
			t.Errorf("edge %d copied by Clone, want shared", id)
		}
	}
	old := g.Edge(share)
	if err := c.SetEdgeWeight(share, 0.35); err != nil {
		t.Fatal(err)
	}
	if c.Edge(share) == old || g.Edge(share) != old {
		t.Errorf("a weight edit on the clone did not replace its edge %d, or replaced the origin's", share)
	}
	for _, id := range g.Edges() {
		if id != share && c.Edge(id) != g.Edge(id) {
			t.Errorf("edge %d unshared by a write to edge %d", id, share)
		}
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
