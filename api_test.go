package vadalink_test

import (
	"cmp"
	"errors"
	"math"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"vadalink"
)

// The tests in this file exercise the public facade the way a downstream
// user would, keeping the README snippets honest.

func TestQuickstartSnippet(t *testing.T) {
	g, b := vadalink.Figure1()
	controlled := vadalink.Controls(g, b.ID("P1"))
	if len(controlled) != 4 {
		t.Errorf("P1 controls %d companies, want 4 (C, D, E, F)", len(controlled))
	}
	links, err := vadalink.CloseLinks(g, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(links) == 0 {
		t.Error("no close links on Figure 1")
	}
}

func TestBuildYourOwnGraph(t *testing.T) {
	b := vadalink.NewBuilder()
	b.Person("Alice")
	b.Company("Acme")
	b.Company("Sub")
	b.Own("Alice", "Acme", 0.6).Own("Acme", "Sub", 0.8)
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	got := vadalink.Controls(g, b.ID("Alice"))
	if len(got) != 2 {
		t.Errorf("Alice controls %d, want 2", len(got))
	}
	if phi, err := vadalink.Accumulated(g, b.ID("Alice"), b.ID("Sub")); err != nil || phi != 0.48 {
		t.Errorf("Φ(Alice, Sub) = %v, %v; want 0.48", phi, err)
	}
}

// TestWholeNumberShareCounts: a share amount given as a whole number, a Go
// int or an int64, is the share it names. It used to be stored as given, so
// Edge.Weight read no weight and the relational image held own(A, B, 0):
// A controlled nothing with "w": 1 and B with "w": 1.0.
func TestWholeNumberShareCounts(t *testing.T) {
	for _, w := range []any{1, int64(1), 1.0} {
		g := vadalink.NewBuilder().Graph()
		a := g.AddNode(vadalink.LabelCompany, vadalink.Properties{"name": "A"})
		b := g.AddNode(vadalink.LabelCompany, vadalink.Properties{"name": "B"})
		e, err := g.AddEdge(vadalink.LabelShareholding, a, b, vadalink.Properties{"w": w})
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := g.Edge(e).Weight(); !ok || got != 1 {
			t.Errorf(`"w": %#v reads weight %v, %v`, w, got, ok)
		}
		if got := vadalink.Controls(g, a); !slices.Equal(got, []vadalink.NodeID{b}) {
			t.Errorf(`A with "w": %#v controls %v, want [%d]`, w, got, b)
		}
	}
}

// On a full cross-holding (A and B holding 100 % of each other, B holding
// 15 % of C) the walk-sum Φ(A, C) diverges. Control does not need Φ, so every
// control read answers; Accumulated answers pairs whose cone avoids the
// cycle and fails, rather than running on, for pairs whose cone holds it;
// CloseLinks, which chases Φ from every source, fails.
func TestFacadeTerminatesOnAFullCrossHolding(t *testing.T) {
	b := vadalink.NewBuilder()
	b.Person("P")
	for _, c := range []string{"A", "B", "C", "D", "E"} {
		b.Company(c)
	}
	b.Own("A", "B", 1).Own("B", "A", 1).Own("B", "C", 0.15).Own("P", "D", 0.6).Own("D", "E", 0.6)
	g := b.Graph()
	id := b.ID
	done := make(chan struct{})
	go func() {
		defer close(done)
		if got := vadalink.Controls(g, id("A")); !slices.Equal(got, []vadalink.NodeID{id("B")}) {
			t.Errorf("Controls(A) = %v, want [B]", got)
		}
		want := []vadalink.ControlPair{{id("A"), id("B")}, {id("B"), id("A")}, {id("D"), id("E")}, {id("P"), id("D")}, {id("P"), id("E")}}
		slices.SortFunc(want, func(x, y vadalink.ControlPair) int {
			return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To))
		})
		if got := vadalink.AllControlPairs(g); !slices.Equal(got, want) {
			t.Errorf("AllControlPairs = %v, want %v", got, want)
		}
		if got := vadalink.UltimateControllers(g, id("E")); !slices.Equal(got, []vadalink.NodeID{id("P")}) {
			t.Errorf("UltimateControllers(E) = %v, want [P]", got)
		}
		if got := vadalink.Orphans(g); !slices.Equal(got, []vadalink.NodeID{id("A"), id("B"), id("C")}) {
			t.Errorf("Orphans = %v, want [A B C]", got)
		}
		if phi, err := vadalink.Accumulated(g, id("P"), id("E")); err != nil || math.Abs(phi-0.36) > 1e-12 {
			t.Errorf("Φ(P, E) = %v, %v; want 0.36", phi, err)
		}
		var be *vadalink.BudgetExceededError
		if phi, err := vadalink.Accumulated(g, id("A"), id("C")); !errors.As(err, &be) {
			t.Errorf("Φ(A, C) = %v, %v; want a budget error: the walk sum diverges", phi, err)
		}
		if links, err := vadalink.CloseLinks(g, 0.2); !errors.As(err, &be) {
			t.Errorf("CloseLinks = %v, %v; want a budget error: the walk sum diverges", links, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the facade reads did not return within a minute")
	}
}

// names maps node IDs to their names.
func names(g *vadalink.Graph, ids []vadalink.NodeID) map[string]bool {
	out := map[string]bool{}
	for _, id := range ids {
		name, _ := g.Node(id).Props.Str("name")
		out[name] = true
	}
	return out
}

// TestFigure1FamilyControl checks the family-business conclusion of the
// introduction: P1 and P2 together control L (F owns 20%, I owns 40%, and
// the pair controls both F and I).
func TestFigure1FamilyControl(t *testing.T) {
	g, b := vadalink.Figure1()
	joint := names(g, vadalink.GroupControls(g, []vadalink.NodeID{b.ID("P1"), b.ID("P2")}))
	if !joint["L"] {
		t.Errorf("P1+P2 should jointly control L; got %v", joint)
	}
	// Joint control subsumes individual control.
	for _, want := range []string{"C", "D", "E", "F", "G", "H", "I"} {
		if !joint[want] {
			t.Errorf("P1+P2 should jointly control %s; got %v", want, joint)
		}
	}
	if joint["P1"] || joint["P2"] {
		t.Errorf("members are reported as controlled: %v", joint)
	}
}

func TestOrphans(t *testing.T) {
	g, _ := vadalink.Figure1()
	orphans := names(g, vadalink.Orphans(g))
	if !orphans["L"] {
		t.Errorf("L should be an orphan (no single controller); got %v", orphans)
	}
	for _, c := range []string{"C", "D", "E", "F", "G", "H", "I"} {
		if orphans[c] {
			t.Errorf("%s has an ultimate controller; must not be an orphan", c)
		}
	}
}

func TestAugmentThroughFacade(t *testing.T) {
	it := vadalink.NewItalian(vadalink.ItalianConfig{Persons: 100, Companies: 40, Seed: 2})
	res, err := vadalink.DetectFamilies(it.Graph, 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Added {
		total += n
	}
	if total == 0 {
		t.Error("DetectFamilies added nothing")
	}
}

func TestCustomRulesThroughFacade(t *testing.T) {
	prog, err := vadalink.ParseRules(`
		own(X, Y, W), W > 0.9 -> wholly(X, Y).
	`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := vadalink.NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(nil)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestReasonerThroughFacade(t *testing.T) {
	g, b := vadalink.Figure2()
	r := vadalink.NewReasoner(g, vadalink.TaskControl|vadalink.TaskCloseLink)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.ControlPairs()) == 0 || len(r.CloseLinkPairs()) == 0 {
		t.Error("combined tasks produced no results")
	}
	_ = b
}

func TestAPIHandlerThroughFacade(t *testing.T) {
	g, _ := vadalink.Figure2()
	srv := httptest.NewServer(vadalink.APIHandler(g))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("stats status = %d", resp.StatusCode)
	}
}

func TestStatsThroughFacade(t *testing.T) {
	g := vadalink.Barabasi(500, 2, 1)
	s := vadalink.Stats(g)
	if s.Nodes != 500 {
		t.Errorf("nodes = %d", s.Nodes)
	}
}

func TestSnapshotThroughFacade(t *testing.T) {
	g, _ := vadalink.Figure1()
	path := t.TempDir() + "/kg.snap"
	if err := vadalink.SaveSnapshot(path, g); err != nil {
		t.Fatal(err)
	}
	got, err := vadalink.LoadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Errorf("snapshot round trip lost elements")
	}
}

func TestConcentrationThroughFacade(t *testing.T) {
	g, _ := vadalink.Figure1()
	c := vadalink.OwnershipConcentration(g)
	if c.CompaniesWithOwners == 0 || c.MeanHHI <= 0 {
		t.Errorf("concentration = %+v", c)
	}
}
