package family

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"rossi", "rossi", 0},
		{"rossi", "rosso", 1},
		{"bianchi", "bianco", 2},
		{"über", "uber", 1}, // runes, not bytes
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetry := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(symmetry, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("symmetry:", err)
	}
	identity := func(a string) bool { return Levenshtein(a, a) == 0 }
	if err := quick.Check(identity, &quick.Config{MaxCount: 50}); err != nil {
		t.Error("identity:", err)
	}
	triangle := func(a, b, c string) bool {
		return Levenshtein(a, c) <= Levenshtein(a, b)+Levenshtein(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 100}); err != nil {
		t.Error("triangle inequality:", err)
	}
}

func TestNormalizedLevenshteinRange(t *testing.T) {
	f := func(a, b string) bool {
		d := NormalizedLevenshtein(a, b)
		return d >= 0 && d <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if d := NormalizedLevenshtein("", ""); d != 0 {
		t.Errorf("NormalizedLevenshtein empty = %v, want 0", d)
	}
}

func TestSoundex(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Robert", "R163"},
		{"Rupert", "R163"},
		{"Ashcraft", "A261"},
		{"Ashcroft", "A261"},
		{"Tymczak", "T522"},
		{"Pfister", "P236"}, // first two letters share a code: coded once

		{"Rossi", "R200"},
		{"Russo", "R200"},
		{"", "0000"},
	}
	for _, c := range cases {
		if got := Soundex(c.in); got != c.want {
			t.Errorf("Soundex(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestGrahamCombination(t *testing.T) {
	if p := Graham([]float64{0.5, 0.5}); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("Graham(0.5,0.5) = %v, want 0.5", p)
	}
	// Two strong signals combine super-additively.
	if p := Graham([]float64{0.9, 0.9}); p <= 0.9 {
		t.Errorf("Graham(0.9,0.9) = %v, want > 0.9", p)
	}
	// One strong pro and one strong con roughly cancel.
	if p := Graham([]float64{0.9, 0.1}); math.Abs(p-0.5) > 1e-9 {
		t.Errorf("Graham(0.9,0.1) = %v, want 0.5", p)
	}
	// Monotonicity: raising one pᵢ never lowers the combination.
	f := func(a, b uint8) bool {
		pa := float64(a%99+1) / 100
		pb := float64(b%99+1) / 100
		lo, hi := pa, pb
		if lo > hi {
			lo, hi = hi, lo
		}
		return Graham([]float64{0.7, hi}) >= Graham([]float64{0.7, lo})-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error("monotonicity:", err)
	}
}

func samplePersons() (Person, Person, Person) {
	mario := Person{Name: "Mario", Surname: "Rossi", Birth: 1960, Addr: "Via Garibaldi 12", City: "Roma"}
	luigi := Person{Name: "Luigi", Surname: "Rossi", Birth: 1962, Addr: "Via Garibaldi 12", City: "Roma"}
	anna := Person{Name: "Anna", Surname: "Bianchi", Birth: 1975, Addr: "Corso Milano 3", City: "Torino"}
	return mario, luigi, anna
}

func TestClassifierDefaultPriors(t *testing.T) {
	c := NewClassifier()
	mario, luigi, anna := samplePersons()
	pSame := c.LinkProbability(mario, luigi)
	pDiff := c.LinkProbability(mario, anna)
	if pSame <= 0.5 {
		t.Errorf("same-family pair probability = %v, want > 0.5", pSame)
	}
	if pDiff >= 0.5 {
		t.Errorf("unrelated pair probability = %v, want < 0.5", pDiff)
	}
	if !c.Linked(mario, luigi) || c.Linked(mario, anna) {
		t.Error("Linked decisions inconsistent with probabilities")
	}
}

func TestClassifierTrain(t *testing.T) {
	mario, luigi, anna := samplePersons()
	giovanna := Person{Name: "Giovanna", Surname: "Rossi", Birth: 1990, Addr: "Via Garibaldi 12", City: "Roma"}
	carlo := Person{Name: "Carlo", Surname: "Verdi", Birth: 1950, Addr: "Piazza Dante 1", City: "Napoli"}

	examples := []LabelledPair{
		{X: mario, Y: luigi, Linked: true},
		{X: mario, Y: giovanna, Linked: true},
		{X: luigi, Y: giovanna, Linked: true},
		{X: mario, Y: anna, Linked: false},
		{X: luigi, Y: carlo, Linked: false},
		{X: anna, Y: carlo, Linked: false},
		{X: giovanna, Y: carlo, Linked: false},
	}
	c := NewClassifier()
	if err := c.Train(examples); err != nil {
		t.Fatal(err)
	}
	for i, f := range c.Features {
		if f.PGivenLink <= 0 || f.PGivenLink >= 1 || f.PGivenNoLink <= 0 || f.PGivenNoLink >= 1 {
			t.Errorf("feature %d (%s): probabilities not smoothed: %v / %v",
				i, f.Name, f.PGivenLink, f.PGivenNoLink)
		}
	}
	if !c.Linked(mario, luigi) {
		t.Error("trained classifier rejects a clear positive")
	}
	if c.Linked(mario, carlo) {
		t.Error("trained classifier accepts a clear negative")
	}
}

func TestTrainRequiresBothClasses(t *testing.T) {
	mario, luigi, _ := samplePersons()
	c := NewClassifier()
	err := c.Train([]LabelledPair{{X: mario, Y: luigi, Linked: true}})
	if err == nil {
		t.Error("training with a single class accepted, want error")
	}
}

func TestMultiClassify(t *testing.T) {
	m := NewMulti()
	mario, luigi, anna := samplePersons()

	// Same surname, 2-year gap, same address: sibling-shaped.
	if class, p := m.Classify(mario, luigi); class != SiblingOf {
		t.Errorf("Classify(mario, luigi) = %v (p=%v), want SiblingOf", class, p)
	}
	// Parent-shaped: same surname, 30-year gap, same address.
	figlia := Person{Name: "Giulia", Surname: "Rossi", Birth: 1990, Addr: "Via Garibaldi 12", City: "Roma"}
	if class, _ := m.Classify(mario, figlia); class != ParentOf {
		t.Errorf("Classify(mario, figlia) = %v, want ParentOf", class)
	}
	// Partner-shaped: different surname, small gap, same address and city.
	moglie := Person{Name: "Elena", Surname: "Ferrari", Birth: 1963, Addr: "Via Garibaldi 12", City: "Roma"}
	if class, _ := m.Classify(mario, moglie); class != PartnerOf {
		t.Errorf("Classify(mario, moglie) = %v, want PartnerOf", class)
	}
	// Unrelated: no class.
	if class, p := m.Classify(mario, anna); class != "" {
		t.Errorf("Classify(mario, anna) = %v (p=%v), want none", class, p)
	}
}

func TestPersonFromNode(t *testing.T) {
	g := nodeGraph()
	p := PersonFromNode(g)
	if p.Name != "Mario" || p.Surname != "Rossi" || p.Birth != 1960 || p.City != "Roma" {
		t.Errorf("PersonFromNode = %+v", p)
	}
}

func TestFeatureProbabilityClamped(t *testing.T) {
	c := NewClassifier()
	c.Prior = 0.5
	f := &Feature{Name: "x", Threshold: 1, PGivenLink: 1, PGivenNoLink: 0}
	if p := c.featureProbability(f, true); p >= 1 || p <= 0 {
		t.Errorf("featureProbability not clamped: %v", p)
	}
	if p := c.featureProbability(f, false); p >= 1 || p <= 0 {
		t.Errorf("featureProbability not clamped: %v", p)
	}
}

func TestExplainFeatureEvidence(t *testing.T) {
	c := NewClassifier()
	mario, luigi, anna := samplePersons()
	ev := c.Explain(mario, luigi)
	if len(ev) != len(c.Features) {
		t.Fatalf("evidence entries = %d, want %d", len(ev), len(c.Features))
	}
	// The Graham combination of the evidence equals LinkProbability.
	ps := make([]float64, len(ev))
	firedCount := 0
	for i, e := range ev {
		ps[i] = e.P
		if e.Fired {
			firedCount++
		}
	}
	if got, want := Graham(ps), c.LinkProbability(mario, luigi); math.Abs(got-want) > 1e-12 {
		t.Errorf("evidence combination %.6f != probability %.6f", got, want)
	}
	if firedCount == 0 {
		t.Error("no features fired for two brothers at the same address")
	}
	// Unrelated pair: surname feature must not fire.
	for _, e := range c.Explain(mario, anna) {
		if e.Feature == "surname" && e.Fired {
			t.Error("surname fired for Rossi vs Bianchi")
		}
	}
}
