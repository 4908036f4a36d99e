package vadalink_test

// The scenario test builds one realistic conglomerate and walks it through
// every subsystem: direct solvers, declarative programs, augmentation,
// explanation and statistics — the end-to-end behaviour a supervision
// analyst would rely on.

import (
	"strings"
	"testing"

	"vadalink"
)

// buildConglomerate constructs:
//
//	           Nonna (1932)            Bianchi family
//	          /      \
//	Aldo (1958)   Bruna (1960) ⚭ Carlo Neri (1959)
//	     |             |
//	60% BancaAlfa   55% ImmoBeta
//	     |             |
//	BancaAlfa 30% + ImmoBeta 25% → RetailGamma (joint family control)
//	BancaAlfa 15% + ImmoBeta 10% → EnerDelta  (close link via commons)
//	Fondo (independent) 45% → EnerDelta
func buildConglomerate() (*vadalink.Graph, *vadalink.Builder) {
	b := vadalink.NewBuilder()
	for _, p := range []struct {
		key, name, surname string
		birth              float64
		addr, city         string
	}{
		{"Nonna", "Maria", "Bianchi", 1932, "Via Verdi 2", "Milano"},
		{"Aldo", "Aldo", "Bianchi", 1958, "Via Verdi 2", "Milano"},
		{"Bruna", "Bruna", "Bianchi", 1960, "Via Verdi 2", "Milano"},
		{"Carlo", "Carlo", "Neri", 1959, "Via Verdi 2", "Milano"},
		{"Fondo", "Franco", "Esposito", 1970, "Corso Napoli 9", "Napoli"},
	} {
		b.PersonWith(p.key, vadalink.Properties{
			"name": p.name, "surname": p.surname, "birth": p.birth,
			"addr": p.addr, "city": p.city,
		})
	}
	for _, c := range []string{"BancaAlfa", "ImmoBeta", "RetailGamma", "EnerDelta"} {
		b.Company(c)
	}
	b.Own("Aldo", "BancaAlfa", 0.60).
		Own("Bruna", "ImmoBeta", 0.55).
		Own("BancaAlfa", "RetailGamma", 0.30).
		Own("ImmoBeta", "RetailGamma", 0.25).
		Own("BancaAlfa", "EnerDelta", 0.15).
		Own("ImmoBeta", "EnerDelta", 0.10).
		Own("Fondo", "EnerDelta", 0.45)
	return b.Graph(), b
}

func TestScenarioIndividualControl(t *testing.T) {
	g, b := buildConglomerate()
	aldo := vadalink.Controls(g, b.ID("Aldo"))
	if len(aldo) != 1 || aldo[0] != b.ID("BancaAlfa") {
		t.Errorf("Aldo alone controls %v, want only BancaAlfa (RetailGamma needs the family)", aldo)
	}
	if got := vadalink.Controls(g, b.ID("Fondo")); len(got) != 0 {
		t.Errorf("Fondo (45%%) controls %v, want nothing", got)
	}
}

func TestScenarioFamilyControl(t *testing.T) {
	g, b := buildConglomerate()
	family := []vadalink.NodeID{b.ID("Nonna"), b.ID("Aldo"), b.ID("Bruna"), b.ID("Carlo")}
	joint := map[vadalink.NodeID]bool{}
	for _, c := range vadalink.GroupControls(g, family) {
		joint[c] = true
	}
	// The family pools BancaAlfa (30%) and ImmoBeta (25%) → 55% of Gamma.
	if !joint[b.ID("RetailGamma")] {
		t.Error("the family should control RetailGamma jointly")
	}
	// But 15% + 10% of Delta is not a majority even jointly.
	if joint[b.ID("EnerDelta")] {
		t.Error("the family must not control EnerDelta (25% jointly)")
	}
}

func TestScenarioCloseLinks(t *testing.T) {
	g, b := buildConglomerate()
	links, err := vadalink.CloseLinks(g, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	has := func(x, y string) bool {
		a, c := b.ID(x), b.ID(y)
		if c < a {
			a, c = c, a
		}
		for _, l := range links {
			if l.A == a && l.B == c {
				return true
			}
		}
		return false
	}
	// BancaAlfa owns 30% of Gamma: direct close link.
	if !has("BancaAlfa", "RetailGamma") {
		t.Error("missing close link BancaAlfa–RetailGamma")
	}
	// Gamma and Delta share no common ≥20% owner: Alfa has 30%/15%, Beta
	// 25%/10%; no close link between them.
	if has("RetailGamma", "EnerDelta") {
		t.Error("RetailGamma–EnerDelta close link invented")
	}
}

func TestScenarioFamilyDetection(t *testing.T) {
	g, _ := buildConglomerate()
	res, err := vadalink.DetectFamilies(g.Clone(), 1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range res.Added {
		total += n
	}
	if total == 0 {
		t.Fatal("no family links detected in the household")
	}
}

func TestScenarioDeclarativeAgreesWithDirect(t *testing.T) {
	g, _ := buildConglomerate()
	r := vadalink.NewReasoner(g, vadalink.TaskControl)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	direct := vadalink.AllControlPairs(g)
	decl := r.ControlPairs()
	if len(direct) != len(decl) {
		t.Fatalf("solver disagreement: direct %d pairs, declarative %d", len(direct), len(decl))
	}
	for i, p := range direct {
		if decl[i][0] != p.From || decl[i][1] != p.To {
			t.Fatalf("pair %d differs: %v vs %v", i, p, decl[i])
		}
	}
}

func TestScenarioExplainFamilyControlPath(t *testing.T) {
	g, b := buildConglomerate()
	r := vadalink.NewReasoner(g, vadalink.TaskControl)
	r.EngineOptions = append(r.EngineOptions, vadalink.WithProvenance())
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	tree := r.ExplainControl(b.ID("Aldo"), b.ID("BancaAlfa"))
	if tree == nil {
		t.Fatal("no explanation for a true control pair")
	}
	joined := strings.Join(tree, "\n")
	if !strings.Contains(joined, "own") || !strings.Contains(joined, "[given]") {
		t.Errorf("explanation lacks grounding:\n%s", joined)
	}
}

func TestScenarioUBO(t *testing.T) {
	g, b := buildConglomerate()
	ubos := vadalink.UltimateControllers(g, b.ID("BancaAlfa"))
	if len(ubos) != 1 || ubos[0] != b.ID("Aldo") {
		t.Errorf("BancaAlfa UBOs = %v, want [Aldo]", ubos)
	}
	orphans := map[vadalink.NodeID]bool{}
	for _, c := range vadalink.Orphans(g) {
		orphans[c] = true
	}
	if !orphans[b.ID("RetailGamma")] || !orphans[b.ID("EnerDelta")] {
		t.Error("RetailGamma and EnerDelta have no single person controller; must be orphans")
	}
}

func TestScenarioStats(t *testing.T) {
	g, _ := buildConglomerate()
	s := vadalink.Stats(g)
	if s.Nodes != 9 || s.Edges != 7 {
		t.Errorf("stats = %d nodes / %d edges", s.Nodes, s.Edges)
	}
	if s.LargestSCC != 1 {
		t.Errorf("conglomerate has no ownership cycles; largest SCC = %d", s.LargestSCC)
	}
}
