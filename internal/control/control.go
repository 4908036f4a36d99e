// Package control is the reference solver for the Company Control problem
// of Definition 2.3 of the Vada-Link paper: a company (or person) x controls
// a company y if
//
//	(i)  x directly owns more than 50% of y, or
//	(ii) x controls a set of companies that jointly — and possibly together
//	     with x itself — own more than 50% of y.
//
// Nothing in production calls it. The served definition is Algorithm 5
// (vadalog.ControlProgram) over own/3, read by every control route, the
// augmentation candidates and the facade (DESIGN.md §5); this package is the
// independent, imperative statement of the same definition that tests and
// the benchmark check the served answers against. Like the program, it
// counts every share, whatever its right.
//
// The solver is the classic monotone fixpoint over the lattice of controlled
// sets (the logic-programming formulation the paper cites): the controlled
// set of x only grows and accumulated shares only grow, so the fixpoint is
// reached in at most |N| rounds.
package control

import (
	"sort"

	"vadalink/internal/pg"
)

// Threshold is the majority threshold of Definition 2.3. Control requires
// strictly more than Threshold of the shares.
const Threshold = 0.5

// Controls computes the set of companies controlled by x, per Definition
// 2.3. The result excludes x itself and is sorted.
func Controls(g pg.View, x pg.NodeID) []pg.NodeID {
	// held[y] = total share of y held by x and the companies it controls,
	// grown as they are found.
	held := make(map[pg.NodeID]float64)
	controlled := map[pg.NodeID]bool{}
	queue := []pg.NodeID{x}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, e := range g.OutLabel(h, pg.LabelShareholding) {
			if e.From == e.To {
				// Self-loops (buy-backs) carry no external voting power.
				continue
			}
			w, ok := e.Weight()
			if !ok {
				continue
			}
			held[e.To] += w
			if held[e.To] > Threshold && e.To != x && !controlled[e.To] {
				controlled[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	var out []pg.NodeID
	for y := range controlled {
		out = append(out, y)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pair is one control relationship: From controls To.
type Pair struct {
	From, To pg.NodeID
}

// AllPairs computes every control relationship in the graph by running the
// fixpoint from every node that owns at least one share, in ascending order:
// the result is sorted by (From, To).
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
