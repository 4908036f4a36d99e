package family

import (
	"fmt"
	"math"
	"sort"

	"vadalink/internal/pg"
)

// LinkClass is a personal-connection class ("PartnerOf", "SiblingOf", ...).
type LinkClass string

// The family link classes of the paper's running examples.
const (
	PartnerOf LinkClass = "PartnerOf"
	SiblingOf LinkClass = "SiblingOf"
	ParentOf  LinkClass = "ParentOf"
)

// Person is the feature view of a person node used by the classifier.
type Person struct {
	Name    string // first name
	Surname string
	Birth   float64 // birth year
	Addr    string  // street address
	City    string
}

// PersonFromNode extracts the classifier features from a property-graph
// person node. Missing properties default to zero values.
func PersonFromNode(n *pg.Node) Person {
	p := Person{}
	p.Name, _ = n.Props.Str("name")
	p.Surname, _ = n.Props.Str("surname")
	p.Birth, _ = n.Props.Num("birth")
	p.Addr, _ = n.Props.Str("addr")
	p.City, _ = n.Props.Str("city")
	return p
}

// Feature is one comparison feature fᵢ: a distance over a pair of persons
// and the threshold Tᵢ below which the feature "fires".
type Feature struct {
	Name      string
	Threshold float64
	// Distance returns d(fᵢˣ, fᵢʸ) ≥ 0.
	Distance func(x, y Person) float64

	// Estimated statistics (set by Train or by hand):
	// PGivenLink   = P(d < T | L)
	// PGivenNoLink = P(d < T | ¬L)
	PGivenLink   float64
	PGivenNoLink float64
}

// Fires reports whether the feature's distance is under its threshold for
// the pair.
func (f *Feature) Fires(x, y Person) bool {
	return f.Distance(x, y) < f.Threshold
}

// DefaultFeatures returns the feature set used for Italian person records:
// surname similarity, address similarity, same city, birth-year proximity,
// and phonetic surname match. Statistics are sensible priors; Train refines
// them.
func DefaultFeatures() []Feature {
	return []Feature{
		{
			Name: "surname", Threshold: 0.25,
			Distance:   func(x, y Person) float64 { return NormalizedLevenshtein(x.Surname, y.Surname) },
			PGivenLink: 0.95, PGivenNoLink: 0.02,
		},
		{
			Name: "soundex", Threshold: 0.5,
			Distance: func(x, y Person) float64 {
				if Soundex(x.Surname) == Soundex(y.Surname) {
					return 0
				}
				return 1
			},
			PGivenLink: 0.97, PGivenNoLink: 0.05,
		},
		{
			Name: "addr", Threshold: 0.3,
			Distance:   func(x, y Person) float64 { return NormalizedLevenshtein(x.Addr, y.Addr) },
			PGivenLink: 0.8, PGivenNoLink: 0.01,
		},
		{
			Name: "city", Threshold: 0.5,
			Distance: func(x, y Person) float64 {
				if x.City == y.City {
					return 0
				}
				return 1
			},
			PGivenLink: 0.9, PGivenNoLink: 0.1,
		},
		{
			Name: "birth", Threshold: 15,
			Distance:   func(x, y Person) float64 { return AbsDiff(x.Birth, y.Birth) },
			PGivenLink: 0.7, PGivenNoLink: 0.3,
		},
	}
}

// Classifier is the multi-feature Bayesian link classifier. One Classifier
// decides one link class; use Multi for the full multi-class setting.
type Classifier struct {
	Features []Feature
	// Prior is P(L), the a-priori likelihood of a link between a candidate
	// pair. Because the classifier only ever sees pairs that already share a
	// block (the clustering of Algorithm 3 pre-selects plausible pairs), the
	// relevant prior is the within-block link rate, which defaults to the
	// uninformative 0.5 — the assumption of Graham's original combination.
	// Train replaces it with the empirical rate of the training pairs.
	Prior float64
}

// NewClassifier returns a classifier over the default features.
func NewClassifier() *Classifier {
	return &Classifier{Features: DefaultFeatures(), Prior: 0.5}
}

// LabelledPair is a training example.
type LabelledPair struct {
	X, Y   Person
	Linked bool
}

// Train estimates P(d < T | L) and P(d < T | ¬L) for every feature from
// labelled pairs, with Laplace smoothing, and sets the prior P(L) to the
// label frequency. It returns an error when either class is absent.
func (c *Classifier) Train(examples []LabelledPair) error {
	var nLink, nNoLink int
	for _, ex := range examples {
		if ex.Linked {
			nLink++
		} else {
			nNoLink++
		}
	}
	if nLink == 0 || nNoLink == 0 {
		return fmt.Errorf("family: training needs both positive and negative examples (got %d/%d)", nLink, nNoLink)
	}
	for i := range c.Features {
		f := &c.Features[i]
		var firesLink, firesNoLink int
		for _, ex := range examples {
			if f.Fires(ex.X, ex.Y) {
				if ex.Linked {
					firesLink++
				} else {
					firesNoLink++
				}
			}
		}
		// Laplace smoothing keeps probabilities off the 0/1 walls, which
		// would make the Graham combination degenerate.
		f.PGivenLink = (float64(firesLink) + 1) / (float64(nLink) + 2)
		f.PGivenNoLink = (float64(firesNoLink) + 1) / (float64(nNoLink) + 2)
	}
	c.Prior = float64(nLink) / float64(len(examples))
	return nil
}

// featureProbability computes pᵢ = P(L | d < Tᵢ) by Bayes' rule, or the
// complementary P(L | d ≥ Tᵢ) when the feature does not fire.
func (c *Classifier) featureProbability(f *Feature, fires bool) float64 {
	prior := c.Prior
	if prior == 0 {
		prior = 0.5
	}
	pl, pn := f.PGivenLink, f.PGivenNoLink
	if !fires {
		pl, pn = 1-pl, 1-pn
	}
	num := pl * prior
	den := num + pn*(1-prior)
	if den == 0 {
		return 0.5
	}
	p := num / den
	// Clamp away from 0 and 1 so a single feature cannot dominate the
	// Graham combination absolutely.
	const clamp = 1e-4
	return math.Min(1-clamp, math.Max(clamp, p))
}

// Graham combines per-feature probabilities into a single probability:
// p = Π pᵢ / (Π pᵢ + Π (1 − pᵢ)). It is the combination rule the paper
// cites (Graham's "A Plan for Spam" formula).
func Graham(ps []float64) float64 {
	num, den := 1.0, 1.0
	for _, p := range ps {
		num *= p
		den *= 1 - p
	}
	if num+den == 0 {
		return 0.5
	}
	return num / (num + den)
}

// LinkProbability computes the combined probability that x and y are linked.
func (c *Classifier) LinkProbability(x, y Person) float64 {
	ps := make([]float64, len(c.Features))
	for i := range c.Features {
		f := &c.Features[i]
		ps[i] = c.featureProbability(f, f.Fires(x, y))
	}
	return Graham(ps)
}

// Linked reports whether the combined probability exceeds 0.5, the decision
// rule of Algorithm 7 (#LinkProbability(...) > 0.5).
func (c *Classifier) Linked(x, y Person) bool {
	return c.LinkProbability(x, y) > 0.5
}

// Multi is a multi-class classifier: one binary classifier per link class
// plus class-specific refinements (e.g. partners rarely share a birth year
// ±0 while siblings are close in age).
type Multi struct {
	Base    *Classifier
	Classes []LinkClass
}

// NewMulti returns a multi-class classifier over the default classes.
func NewMulti() *Multi {
	return &Multi{
		Base:    NewClassifier(),
		Classes: []LinkClass{PartnerOf, SiblingOf, ParentOf},
	}
}

// Classify returns the most plausible link class for the pair and its
// probability, or ("", p) when no class clears the 0.5 decision threshold.
// Class discrimination uses the base probability gated by class-specific
// demographic rules on the age difference:
//
//	ParentOf:  18 ≤ age(x) − age(y) ≤ 55 (x born earlier)
//	SiblingOf: |Δage| ≤ 15 and same surname
//	PartnerOf: |Δage| ≤ 20 (surname may differ)
func (m *Multi) Classify(x, y Person) (LinkClass, float64) {
	p := m.Base.LinkProbability(x, y)
	if p <= 0.5 {
		return "", p
	}
	// gap > 0 means x was born earlier than y (x is the older one).
	gap := y.Birth - x.Birth
	dAge := gap
	sameSurname := NormalizedLevenshtein(x.Surname, y.Surname) < 0.25

	type cand struct {
		class LinkClass
		score float64
	}
	var cands []cand
	if gap >= 18 && gap <= 55 && sameSurname {
		cands = append(cands, cand{ParentOf, p * 0.95})
	}
	if math.Abs(dAge) <= 15 && sameSurname {
		cands = append(cands, cand{SiblingOf, p * 0.9})
	}
	if math.Abs(dAge) <= 20 {
		cands = append(cands, cand{PartnerOf, p * 0.85})
	}
	if len(cands) == 0 {
		return "", p
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	return cands[0].class, p
}
