package relstore

import (
	"fmt"
	"maps"
	"math"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
)

func TestCompanyGraphFacts(t *testing.T) {
	g, b := pg.Figure2()
	facts := CompanyGraphFacts(g)
	var companies, persons, owns int
	for _, f := range facts {
		switch f.Pred {
		case PredCompany:
			companies++
		case PredPerson:
			persons++
		case PredOwn:
			owns++
		}
	}
	if companies != 4 || persons != 3 || owns != 8 {
		t.Errorf("facts: %d companies, %d persons, %d owns; want 4/3/8", companies, persons, owns)
	}
	// Spot-check one own fact: P1 → C4 with 0.8.
	found := false
	for _, f := range facts {
		if f.Pred == PredOwn && f.Args[0] == int64(b.ID("P1")) && f.Args[1] == int64(b.ID("C4")) {
			if f.Args[2].(float64) != 0.8 {
				t.Errorf("own(P1,C4) weight = %v, want 0.8", f.Args[2])
			}
			found = true
		}
	}
	if !found {
		t.Error("missing own(P1, C4, 0.8) fact")
	}
}

func TestApplyPredictedLinks(t *testing.T) {
	g, b := pg.Figure2()
	prog := datalog.MustParse(`in(X, Y) -> control(X, Y).`)
	e, err := datalog.NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.Assert(datalog.Fact{Pred: "in", Args: []any{int64(b.ID("P1")), int64(b.ID("C4"))}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	added, err := ApplyPredictedLinks(g, e)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	if !g.HasEdge(pg.LabelControl, b.ID("P1"), b.ID("C4")) {
		t.Error("control edge not materialized")
	}
	// Re-applying must be idempotent.
	added, err = ApplyPredictedLinks(g, e)
	if err != nil {
		t.Fatal(err)
	}
	if added != 0 {
		t.Errorf("re-apply added = %d, want 0", added)
	}
}

func TestApplyPredictedLinksRejectsUnknownNode(t *testing.T) {
	g, _ := pg.Figure2()
	prog := datalog.MustParse(`in(X, Y) -> control(X, Y).`)
	e, _ := datalog.NewEngine(prog)
	e.Assert(datalog.Fact{Pred: "in", Args: []any{int64(999), int64(1000)}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyPredictedLinks(g, e); err == nil {
		t.Error("unknown node accepted, want error")
	}
}

func TestRoundTripThroughInputMappingRules(t *testing.T) {
	// Run the concrete facts through Algorithm 2-style promotion rules in
	// the engine itself and check the generic model comes out consistent.
	g, _ := pg.Figure2()
	src := `
		company(Id, N, B, A, S) -> gnode(Id), gnodetype(Id, "Company").
		person(Id, N, B, A, S) -> gnode(Id), gnodetype(Id, "Person").
		own(X, Y, W), Z = #ske(X, Y) -> glink(Z, X, Y, W), gedgetype(Z, "Shareholding").
	`
	e, err := datalog.NewEngine(datalog.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(CompanyGraphFacts(g))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(e.Facts("gnode")); got != g.NumNodes() {
		t.Errorf("gnode facts = %d, want %d", got, g.NumNodes())
	}
	if got := len(e.Facts("glink")); got != g.NumEdges() {
		t.Errorf("glink facts = %d, want %d", got, g.NumEdges())
	}
}

// TestPropStringMatchesFmt pins the rendering of a property as a fact
// argument to fmt's %v, byte for byte, on every kind propValue handles: each
// comes out as that string.
func TestPropStringMatchesFmt(t *testing.T) {
	for _, v := range []any{
		float64(1970), 1970.5, 1e21, 1e-7, math.Copysign(0, -1), 1234567.0, 0.1, math.Inf(1), math.NaN(),
		int64(-42), int64(1 << 62), 7,
		true, false,
		"Rome", "",
	} {
		props, err := pg.NewRecord(pg.Properties{"p": v})
		if err != nil {
			t.Fatal(err)
		}
		p, _ := props.Lookup("p")
		if got, want := propValue(p), fmt.Sprint(v); got != want {
			t.Errorf("propValue(%#v) = %#v, fmt.Sprint gives %q", v, got, want)
		}
	}
	if got := propValue(pg.Scalar{}); got != "" {
		t.Errorf("missing property renders %#v, want \"\"", got)
	}
}

// TestPropValueKeepsStrings pins that a string property is read as the
// record's own bytes: rendering it allocates nothing.
func TestPropValueKeepsStrings(t *testing.T) {
	props, _ := pg.NewRecord(pg.Properties{"name": "Rome"})
	if n := testing.AllocsPerRun(100, func() { v, _ := props.Lookup("name"); _ = propValue(v) }); n != 0 {
		t.Errorf("a string property allocates %.0f times, want 0", n)
	}
}

// nodeReads counts the node lookups made through a view.
type nodeReads struct {
	pg.View
	n int
}

func (v *nodeReads) Node(id pg.NodeID) *pg.Node {
	v.n++
	return v.View.Node(id)
}

// factSet renders the facts of the image's relations held by e, or given.
func factSet(e *datalog.Engine, facts []datalog.Fact) map[string]bool {
	if e != nil {
		facts = nil
		for _, p := range []string{PredCompany, PredPerson, PredOwn} {
			facts = append(facts, e.Facts(p)...)
		}
	}
	out := map[string]bool{}
	for _, f := range facts {
		out[f.Key()] = true
	}
	return out
}

// propGraph is Figure 2 with properties on P2 and a second parcel P2 → C5,
// seen through an overlay that adds one more. Node IDs are Figure 2's.
func propGraph() (pg.View, *pg.Builder) {
	b := pg.NewBuilder()
	for _, c := range []string{"C4", "C5", "C6", "C7"} {
		b.Company(c)
	}
	b.Person("P1")
	b.PersonWith("P2", pg.Properties{"birth": 1970.0, "addr": "Milano"})
	b.Person("P3")
	b.Own("P1", "C4", 0.8).
		Own("P2", "C5", 0.6).
		Own("P2", "C6", 0.55).
		Own("C5", "C7", 0.5).
		Own("C6", "C7", 0.25).
		Own("P3", "C4", 0.4).
		Own("P3", "C6", 0.5).
		Own("C4", "C5", 0.4)
	g := b.Graph()
	g.MustAddEdgeWeighted(b.ID("P2"), b.ID("C5"), 0.1)
	o := pg.NewOverlay(g)
	o.MustAddEdge(pg.LabelShareholding, b.ID("P3"), b.ID("C5"), pg.Properties{"w": 0.05})
	return o, b
}

// TestLoadStreamsTheImage pins that Load streams exactly CompanyGraphFacts'
// rows into an engine that does not prune, and that an engine pruning to a
// program that reads no property never looks a node up.
func TestLoadStreamsTheImage(t *testing.T) {
	v, b := propGraph()
	want := factSet(nil, CompanyGraphFacts(v))
	if !want[datalog.Fact{Pred: PredOwn, Args: []any{int64(b.ID("P2")), int64(b.ID("C5")), 0.7}}.Key()] {
		t.Errorf("parallel parcels P2 → C5 do not sum to 0.7: %v", want)
	}
	if !want[datalog.Fact{Pred: PredPerson, Args: []any{int64(b.ID("P2")), "P2", "1970", "Milano", ""}}.Key()] {
		t.Errorf("P2's row lacks its properties: %v", want)
	}

	prog := datalog.MustParse(`
company(X, N, B, A, S) -> ccand(X, X).
person(X, N, B, A, S) -> ccand(X, X).
ccand(X, Z), own(Z, Y, W), X != Y, S = msum(W, <Z>), S > 0.5 -> ccand(X, Y).
ccand(X, Y), X != Y -> control(X, Y).
`)
	e, _ := datalog.NewEngine(prog)
	Load(e, v)
	if got := factSet(e, nil); !maps.Equal(got, want) {
		t.Errorf("Load streamed %v, want %v", got, want)
	}

	counted := &nodeReads{View: v}
	e, _ = datalog.NewEngine(prog)
	e.Prune("control")
	Load(e, counted)
	if counted.n != 0 {
		t.Errorf("a pruned load looked %d nodes up", counted.n)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Has(datalog.Fact{Pred: "control", Args: []any{int64(b.ID("P2")), int64(b.ID("C7"))}}) {
		t.Error("the pruned image lost control(P2, C7)")
	}
}

// TestLoadScope pins that a scoped load streams the rows Load streams for
// its nodes and sources, and nothing else.
func TestLoadScope(t *testing.T) {
	v, b := propGraph()
	nodes := map[pg.NodeID]bool{b.ID("P2"): true, b.ID("C7"): true}
	sources := map[pg.NodeID]bool{b.ID("P2"): true, b.ID("C4"): true}
	want := map[string]bool{}
	for _, f := range CompanyGraphFacts(v) {
		id, _ := NodeID(f.Args[0])
		if f.Pred == PredOwn && sources[id] || f.Pred != PredOwn && nodes[id] {
			want[f.Key()] = true
		}
	}
	e, _ := datalog.NewEngine(datalog.MustParse(`own(X, Y, W) -> p(X, Y).`))
	LoadScope(e, v, nodes, sources)
	if got := factSet(e, nil); len(want) != 5 || !maps.Equal(got, want) {
		t.Errorf("LoadScope streamed %v, want %v", got, want)
	}
}
