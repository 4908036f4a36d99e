// Package control solves the Company Control problem of Definition 2.3 of
// the Vada-Link paper: a company (or person) x controls a company y if
//
//	(i)  x directly owns more than 50% of y, or
//	(ii) x controls a set of companies that jointly — and possibly together
//	     with x itself — own more than 50% of y.
//
// The solver is the classic monotone fixpoint over the lattice of controlled
// sets (the logic-programming formulation the paper cites): the controlled
// set of x only grows and accumulated vote fractions only grow, so the
// fixpoint is reached in at most |N| rounds.
//
// The package also implements family control (the extension discussed with
// Algorithm 8): joint control exercised by a group of persons (e.g. a family)
// pooling their shares.
package control

import (
	"sort"

	"vadalink/internal/pg"
)

// Threshold is the vote-majority threshold of Definition 2.3. Control
// requires strictly more than Threshold of the voting shares.
const Threshold = 0.5

// RightProp is the edge property naming the legal right attached to a share
// (the Italian register distinguishes ownership, bare ownership, usufruct,
// pledge, ...). Only voting shares count toward control.
const RightProp = "right"

// nonVotingRights lists share rights that carry no voting power: the bare
// owner has ceded voting rights to the usufructuary, and a pledged share
// votes with the creditor.
var nonVotingRights = map[string]bool{
	"bare ownership": true,
	"pledge":         true,
}

// votes reports the voting power of a shareholding edge: its share amount,
// or 0 when the attached legal right carries no votes.
func votes(e *pg.Edge) float64 {
	w, ok := e.Weight()
	if !ok {
		return 0
	}
	if right, ok := e.Props[RightProp].(string); ok && nonVotingRights[right] {
		return 0
	}
	return w
}

// Controls computes the set of companies controlled by x, per Definition
// 2.3. The result excludes x itself and is sorted.
func Controls(g pg.View, x pg.NodeID) []pg.NodeID {
	return GroupControls(g, []pg.NodeID{x})
}

// GroupControls computes the set of companies jointly controlled by the
// given group of nodes pooling their shares (family control: Algorithm 8).
// A company y is group-controlled if the members plus the already
// group-controlled companies jointly own more than 50% of y. Members
// themselves are never reported as controlled.
func GroupControls(g pg.View, members []pg.NodeID) []pg.NodeID {
	holders := make(map[pg.NodeID]bool, len(members))
	for _, m := range members {
		holders[m] = true
	}
	member := make(map[pg.NodeID]bool, len(members))
	for _, m := range members {
		member[m] = true
	}

	// voteCount[y] = total voting share of y held by current holders
	// (members + controlled companies). Rebuilt incrementally as holders
	// grow.
	voteCount := make(map[pg.NodeID]float64)
	addHolder := func(h pg.NodeID) []pg.NodeID {
		var promoted []pg.NodeID
		for _, e := range g.OutLabel(h, pg.LabelShareholding) {
			if e.From == e.To {
				// Self-loops (buy-backs) carry no external voting power.
				continue
			}
			w := votes(e)
			if w == 0 {
				continue
			}
			voteCount[e.To] += w
			if voteCount[e.To] > Threshold && !holders[e.To] && !member[e.To] {
				promoted = append(promoted, e.To)
			}
		}
		return promoted
	}

	queue := append([]pg.NodeID(nil), members...)
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, y := range addHolder(h) {
			if !holders[y] {
				holders[y] = true
				queue = append(queue, y)
			}
		}
	}

	var out []pg.NodeID
	for y := range holders {
		if !member[y] {
			out = append(out, y)
		}
	}
	// A company whose votes crossed the threshold after it was enqueued is
	// already in holders; companies that crossed later via other holders are
	// found because every holder addition re-checks its targets. One final
	// sweep catches companies that crossed the threshold exactly when the
	// last holder was added but were never promoted (cannot happen by
	// construction, but the sweep makes the invariant explicit and cheap).
	for y, v := range voteCount {
		if v > Threshold && !member[y] && !holders[y] {
			out = append(out, y)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pair is one control relationship: From controls To.
type Pair struct {
	From, To pg.NodeID
}

// AllPairs computes every control relationship in the graph by running the
// fixpoint from every node that owns at least one share. The result is
// sorted by (From, To). This is the quadratic-in-the-worst-case baseline the
// clustered augmentation of the core package avoids.
func AllPairs(g pg.View) []Pair {
	var out []Pair
	for _, x := range g.Nodes() {
		if len(g.OutLabel(x, pg.LabelShareholding)) == 0 {
			continue
		}
		for _, y := range Controls(g, x) {
			out = append(out, Pair{From: x, To: y})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// UltimateControllers returns the persons who control company y, directly
// or through arbitrary ownership chains — the ultimate-beneficial-owner
// question of the anti-money-laundering use case the paper's introduction
// names. The result is sorted.
func UltimateControllers(g pg.View, y pg.NodeID) []pg.NodeID {
	var out []pg.NodeID
	for _, p := range g.NodesWithLabel(pg.LabelPerson) {
		if len(g.OutLabel(p, pg.LabelShareholding)) == 0 {
			continue
		}
		for _, c := range Controls(g, p) {
			if c == y {
				out = append(out, p)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Orphans returns the companies with no ultimate controller — widely-held
// or foreign-controlled entities, interesting as supervision blind spots.
func Orphans(g pg.View) []pg.NodeID {
	controlled := map[pg.NodeID]bool{}
	for _, p := range g.NodesWithLabel(pg.LabelPerson) {
		if len(g.OutLabel(p, pg.LabelShareholding)) == 0 {
			continue
		}
		for _, c := range Controls(g, p) {
			controlled[c] = true
		}
	}
	var out []pg.NodeID
	for _, c := range g.NodesWithLabel(pg.LabelCompany) {
		if !controlled[c] {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
