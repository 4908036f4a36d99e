package core

import (
	"cmp"
	"slices"

	"vadalink/internal/family"
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// FamilyCandidate predicts personal connections (Algorithm 7) with the
// Bayesian multi-feature classifier of the family package. It only compares
// person–person pairs inside a block.
type FamilyCandidate struct {
	// Classifier decides pair linkage; nil uses family.NewMulti().
	Classifier *family.Multi
	// Only, when non-empty, restricts predictions to one link class.
	Only pg.Label
}

// Class implements Candidate. A FamilyCandidate restricted to one class
// reports it; the unrestricted variant reports the generic PartnerOf label
// for bookkeeping although it emits all three family classes.
func (f *FamilyCandidate) Class() pg.Label {
	if f.Only != "" {
		return f.Only
	}
	return pg.LabelPartnerOf
}

// Propose implements Candidate.
func (f *FamilyCandidate) Propose(g pg.View, block []pg.NodeID) []ProposedEdge {
	clf := f.Classifier
	if clf == nil {
		clf = family.NewMulti()
	}
	var persons []pg.NodeID
	for _, id := range block {
		if n := g.Node(id); n != nil && n.Label == pg.LabelPerson {
			persons = append(persons, id)
		}
	}
	var out []ProposedEdge
	for i := 0; i < len(persons); i++ {
		pi := family.PersonFromNode(g.Node(persons[i]))
		for j := 0; j < len(persons); j++ {
			if i == j {
				continue
			}
			pj := family.PersonFromNode(g.Node(persons[j]))
			class, prob := clf.Classify(pi, pj)
			if class == "" {
				continue
			}
			label := pg.Label(class)
			if f.Only != "" && label != f.Only {
				continue
			}
			out = append(out, ProposedEdge{
				From:  persons[i],
				To:    persons[j],
				Label: label,
				Props: pg.Properties{"p": prob},
			})
		}
	}
	return out
}

// ControlCandidate predicts company-control links (Algorithm 5 /
// Definition 2.3): the pairs of Control whose two endpoints share the block.
// Ownership chains may leave the block, so Control is derived on the full
// graph; keeping only in-block pairs is the completeness/granularity
// trade-off Section 4.4 discusses.
type ControlCandidate struct {
	// Control is the control relation of the graph being augmented: each
	// controller's controlled nodes, in the order they are proposed. It stays
	// exact for every round: augmentation adds no shareholding edge.
	Control map[pg.NodeID][]pg.NodeID
}

// Class implements Candidate.
func (ControlCandidate) Class() pg.Label { return pg.LabelControl }

// Propose implements Candidate.
func (c ControlCandidate) Propose(_ pg.View, block []pg.NodeID) []ProposedEdge {
	inBlock := blockSet(block)
	var out []ProposedEdge
	for _, x := range block {
		for _, y := range c.Control[x] {
			if inBlock[y] {
				out = append(out, ProposedEdge{From: x, To: y, Label: pg.LabelControl})
			}
		}
	}
	return out
}

// CloseLinkCandidate predicts close links (Algorithm 6 / Definition 2.6):
// the close-link pairs of Baseline whose two endpoints share the block, at
// the baseline's threshold, each proposed in both directions.
type CloseLinkCandidate struct {
	// Baseline is the derived state of the graph being augmented; like
	// ControlCandidate.Control it stays exact for every round.
	Baseline *whatif.Baseline
}

// Class implements Candidate.
func (CloseLinkCandidate) Class() pg.Label { return pg.LabelCloseLink }

// Propose implements Candidate.
func (c CloseLinkCandidate) Propose(_ pg.View, block []pg.NodeID) []ProposedEdge {
	inBlock := blockSet(block)
	var pairs []whatif.Pair
	for p := range c.Baseline.CloseLink {
		if inBlock[p[0]] && inBlock[p[1]] {
			pairs = append(pairs, p)
		}
	}
	slices.SortFunc(pairs, func(x, y whatif.Pair) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	out := make([]ProposedEdge, 0, 2*len(pairs))
	for _, p := range pairs {
		out = append(out,
			ProposedEdge{From: p[0], To: p[1], Label: pg.LabelCloseLink},
			ProposedEdge{From: p[1], To: p[0], Label: pg.LabelCloseLink})
	}
	return out
}

// blockSet is the membership set of a block.
func blockSet(block []pg.NodeID) map[pg.NodeID]bool {
	in := make(map[pg.NodeID]bool, len(block))
	for _, id := range block {
		in[id] = true
	}
	return in
}
