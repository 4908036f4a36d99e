package vadalog

import (
	"math"
	"strings"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

func TestAllProgramsParse(t *testing.T) {
	for name, src := range map[string]string{
		"InputMapping":           InputMapping,
		"ControlProgram":         ControlProgram,
		"CloseLinkProgram":       CloseLinkProgram,
		"PartnerProgram":         PartnerProgram,
		"FamilyControlProgram":   FamilyControlProgram,
		"FamilyCloseLinkProgram": FamilyCloseLinkProgram,
		"OutputMapping":          OutputMapping,
	} {
		if _, err := datalog.Parse(src); err != nil {
			t.Errorf("%s does not parse: %v", name, err)
		}
	}
}

// TestProgramLineCounts keeps the §5 understandability claim honest: each
// problem is expressed in a handful of rules ("20-30 lines of Vadalog rules
// against 1k+ lines of Python code for the three cases at hand").
func TestProgramLineCounts(t *testing.T) {
	countRules := func(src string) int {
		prog := datalog.MustParse(src)
		return len(prog.Rules)
	}
	total := countRules(ControlProgram) + countRules(CloseLinkProgram) + countRules(PartnerProgram)
	if total > 30 {
		t.Errorf("the three problems take %d rules, more than the paper's 20-30 line claim", total)
	}
	if total < 5 {
		t.Errorf("suspiciously few rules (%d); programs are probably broken", total)
	}
}

func TestControlProgramFigure1(t *testing.T) {
	g, b := pg.Figure1()
	r := NewReasoner(g, TaskControl)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[[2]pg.NodeID]bool{}
	for _, p := range r.ControlPairs() {
		got[p] = true
	}
	for _, want := range [][2]string{
		{"P1", "C"}, {"P1", "D"}, {"P1", "E"}, {"P1", "F"},
		{"P2", "G"}, {"P2", "H"}, {"P2", "I"},
	} {
		if !got[[2]pg.NodeID{b.ID(want[0]), b.ID(want[1])}] {
			t.Errorf("missing control %s→%s", want[0], want[1])
		}
	}
	if got[[2]pg.NodeID{b.ID("P1"), b.ID("L")}] || got[[2]pg.NodeID{b.ID("P2"), b.ID("L")}] {
		t.Error("L must not be controlled individually")
	}
}

func TestCloseLinkProgramFigure2(t *testing.T) {
	g, b := pg.Figure2()
	r := NewReasoner(g, TaskCloseLink)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	// Accumulated ownership Φ(C4, C7) = 0.2 (Example 2.7); the graph is
	// acyclic so the geometric and simple-path semantics coincide.
	acc := r.AccumulatedOwnership()
	if v := acc[[2]pg.NodeID{b.ID("C4"), b.ID("C7")}]; math.Abs(v-0.2) > 1e-9 {
		t.Errorf("Φ(C4, C7) = %v, want 0.2", v)
	}
	got := map[[2]pg.NodeID]bool{}
	for _, p := range r.CloseLinkPairs() {
		got[p] = true
	}
	for _, want := range [][2]string{{"C4", "C6"}, {"C6", "C4"}, {"C4", "C7"}, {"C7", "C4"}} {
		if !got[[2]pg.NodeID{b.ID(want[0]), b.ID(want[1])}] {
			t.Errorf("missing close link %s→%s", want[0], want[1])
		}
	}
}

func TestPartnerProgram(t *testing.T) {
	g := pg.New()
	mario := g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Mario", "surname": "Rossi", "birth": 1960.0,
		"addr": "Via Garibaldi 12", "city": "Roma",
	})
	elena := g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Elena", "surname": "Rossi", "birth": 1962.0,
		"addr": "Via Garibaldi 12", "city": "Roma",
	})
	carlo := g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Carlo", "surname": "Verdi", "birth": 1950.0,
		"addr": "Piazza Dante 1", "city": "Napoli",
	})
	r := NewReasoner(g, TaskPartner)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[[2]pg.NodeID]bool{}
	for _, p := range r.PartnerPairs() {
		got[p] = true
	}
	if !got[[2]pg.NodeID{mario, elena}] {
		t.Error("missing partnerof(mario, elena)")
	}
	if got[[2]pg.NodeID{mario, carlo}] {
		t.Error("invented partnerof(mario, carlo)")
	}
}

// TestFamilyControlProgram reproduces the §1 family-business example on
// Figure 1: the family {P1, P2} controls L.
func TestFamilyControlProgram(t *testing.T) {
	g, b := pg.Figure1()
	r := NewReasoner(g, TaskFamilyControl)
	r.Families = map[string][]pg.NodeID{
		"rossi": {b.ID("P1"), b.ID("P2")},
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	found := map[pg.NodeID]bool{}
	for _, y := range r.FamilyControls("rossi") {
		found[y] = true
	}
	if !found[b.ID("L")] {
		t.Errorf("family must control L; got %v", r.FamilyControls("rossi"))
	}
	// And everything the members control individually.
	for _, c := range []string{"C", "D", "E", "F", "G", "H", "I"} {
		if !found[b.ID(c)] {
			t.Errorf("family must control %s", c)
		}
	}
}

func TestFamilyCloseLinkProgram(t *testing.T) {
	g, b := pg.Figure1()
	r := NewReasoner(g, TaskFamilyCloseLink)
	r.Families = map[string][]pg.NodeID{
		"rossi": {b.ID("P1"), b.ID("P2")},
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[[2]pg.NodeID]bool{}
	for _, p := range r.CloseLinkPairs() {
		got[p] = true
	}
	// D (P1 owns 75%) and G (P2 owns 60%): family close link, the §1
	// low-risk-differentiation example.
	if !got[[2]pg.NodeID{b.ID("D"), b.ID("G")}] && !got[[2]pg.NodeID{b.ID("G"), b.ID("D")}] {
		t.Error("missing family close link D–G")
	}
}

func TestReasonerApply(t *testing.T) {
	g, b := pg.Figure2()
	r := NewReasoner(g, TaskControl)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	added, err := r.Apply()
	if err != nil {
		t.Fatal(err)
	}
	if added == 0 {
		t.Fatal("Apply added nothing")
	}
	if !g.HasEdge(pg.LabelControl, b.ID("P2"), b.ID("C7")) {
		t.Error("control edge P2→C7 not materialized")
	}
}

func TestReasonerNoTasks(t *testing.T) {
	g, _ := pg.Figure2()
	r := NewReasoner(g, 0)
	if err := r.Run(); err == nil {
		t.Error("no-task reasoner ran without error")
	}
}

func TestProgramsAreCommented(t *testing.T) {
	// Each shipped program carries its Algorithm reference — part of the
	// "understandability" architecture property.
	for name, src := range map[string]string{
		"ControlProgram": ControlProgram, "CloseLinkProgram": CloseLinkProgram,
	} {
		if !strings.Contains(src, "Algorithm") {
			t.Errorf("%s lacks its algorithm reference comment", name)
		}
	}
}

// TestInfluenceProgramExample32 reproduces Example 3.2: influence edges
// propagate to spouses, and the spouse's validity interval is invented as a
// labeled null (same null for both symmetric directions' shared variables).
func TestInfluenceProgramExample32(t *testing.T) {
	g := pg.New()
	x := g.AddNode(pg.LabelPerson, pg.Properties{"name": "X"})
	y := g.AddNode(pg.LabelPerson, pg.Properties{"name": "Y"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	if _, err := g.AddShare(x, c, 0.4); err != nil {
		t.Fatal(err)
	}

	prog, err := datalog.Parse(InfluenceProgram)
	if err != nil {
		t.Fatal(err)
	}
	e, err := datalog.NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(g))
	e.Assert(datalog.Fact{Pred: "married", Args: []any{int64(x), int64(y)}})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Has(datalog.Fact{Pred: "influence", Args: []any{int64(x), int64(c)}}) {
		t.Error("missing influence(X, C) [Rule 1]")
	}
	// Rule 2 via the spouse edge: Y influences C too.
	found := false
	for _, f := range e.Facts("influence") {
		if f.Args[0] == int64(y) && f.Args[1] == int64(c) {
			found = true
		}
	}
	if !found {
		t.Errorf("missing influence(Y, C) [Rule 2 via spouse]; influence = %v", e.Facts("influence"))
	}
	// Spouse symmetry with shared nulls.
	spouses := e.Facts("spouse")
	if len(spouses) != 2 {
		t.Fatalf("spouse facts = %v, want both directions", spouses)
	}
	if _, ok := spouses[0].Args[2].(datalog.Null); !ok {
		t.Errorf("spouse interval is not a labeled null: %v", spouses[0])
	}
}

// TestShippedProgramsWarded checks the paper's complexity claim end to end:
// every rule program this repository ships lies in the warded fragment, so
// the PTIME data-complexity guarantee of Warded Datalog± applies.
func TestShippedProgramsWarded(t *testing.T) {
	for name, src := range map[string]string{
		"InputMapping":           InputMapping,
		"ControlProgram":         ControlProgram,
		"CloseLinkProgram":       CloseLinkProgram,
		"PartnerProgram":         PartnerProgram,
		"FamilyControlProgram":   FamilyControlProgram,
		"FamilyCloseLinkProgram": FamilyCloseLinkProgram,
		"OutputMapping":          OutputMapping,
		"InfluenceProgram":       InfluenceProgram,
		"GenericAugmentProgram":  GenericAugmentProgram,
	} {
		rep := datalog.CheckWarded(datalog.MustParse(src))
		if !rep.Warded {
			for _, v := range rep.Violations {
				t.Errorf("%s rule %d not warded: %s\n  %s", name, v.RuleIndex, v.Reason, v.Rule)
			}
		}
	}
}
