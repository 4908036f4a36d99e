// Package closelink is the simple-path reference for the Close Link (asset
// eligibility) problem of Definitions 2.5 and 2.6 of the Vada-Link paper.
//
// The accumulated ownership Φ(x, y) of x over y is the sum, over all simple
// paths from x to y, of the product of the share amounts along the path
// (Definition 2.5). Two companies x and y are in a close-link relationship
// for threshold t if Φ(x, y) ≥ t, Φ(y, x) ≥ t, or some third party z has
// Φ(z, x) ≥ t and Φ(z, y) ≥ t (Definition 2.6 — the ECB "closely-linked
// entity" rule with t = 0.20).
//
// Nothing in production calls it. The served Φ is Algorithm 6's fixpoint
// (vadalog.CloseLinkProgram, whatif.Baseline), a sum over walks that equals
// the simple-path sum on acyclic graphs and exceeds it on ownership cycles
// (DESIGN.md §5). This package enumerates simple paths by depth-first search
// with an on-path visited set, so tests and the benchmark use it as the
// acyclic reference. Contributions below minProduct and paths longer than
// maxDepth are cut; both bounds are lossless on realistic company graphs
// (share products decay geometrically).
package closelink

import (
	"sort"

	"vadalink/internal/pg"
)

// DefaultThreshold is the ECB regulation threshold: 20%.
const DefaultThreshold = 0.2

// Options is empty: the enumeration's bounds are the constants minProduct
// and maxDepth.
type Options struct{}

const (
	// minProduct prunes paths whose accumulated product falls below it; such
	// paths can contribute at most minProduct each.
	minProduct = 1e-9
	// maxDepth bounds path length in edges.
	maxDepth = 64
)

// AccumulatedFrom computes Φ(x, ·) for every node reachable from x over
// shareholding edges, in a single simple-path enumeration.
func AccumulatedFrom(g pg.View, x pg.NodeID) map[pg.NodeID]float64 {
	acc := make(map[pg.NodeID]float64)
	onPath := make(map[pg.NodeID]bool)
	var dfs func(n pg.NodeID, product float64, depth int)
	dfs = func(n pg.NodeID, product float64, depth int) {
		if depth >= maxDepth {
			return
		}
		onPath[n] = true
		for _, e := range g.OutLabel(n, pg.LabelShareholding) {
			w, ok := e.Weight()
			if !ok {
				continue
			}
			p := product * w
			if p < minProduct {
				continue
			}
			if onPath[e.To] {
				// Revisiting a node on the current path would make the path
				// non-simple (this also skips self-loops).
				continue
			}
			acc[e.To] += p
			dfs(e.To, p, depth+1)
		}
		onPath[n] = false
	}
	dfs(x, 1, 0)
	return acc
}

// Pair is an unordered close-link pair, stored with A < B.
type Pair struct {
	A, B pg.NodeID
}

// Reason explains why a pair is closely linked.
type Reason int

// Close-link reasons, matching the three conditions of Definition 2.6.
const (
	ReasonDirect      Reason = iota // Φ(A,B) ≥ t or Φ(B,A) ≥ t
	ReasonCommonOwner               // some z has Φ(z,A) ≥ t and Φ(z,B) ≥ t
)

// Link is a close-link finding.
type Link struct {
	Pair   Pair
	Reason Reason
	// Via is the common third party for ReasonCommonOwner.
	Via pg.NodeID
}

// CloseLinks computes every close-link pair among companies for threshold t
// (conditions (i)–(iii) of Definition 2.6); t ≤ 0 means DefaultThreshold.
// Persons are considered as potential common third parties z but never as
// members of a reported pair. The options are ignored.
func CloseLinks(g pg.View, t float64, _ Options) []Link {
	if t <= 0 {
		t = DefaultThreshold
	}
	isCompany := func(n pg.NodeID) bool { return g.Node(n).Label == pg.LabelCompany }

	seen := make(map[Pair]bool)
	var out []Link
	add := func(a, b pg.NodeID, r Reason, via pg.NodeID) {
		if b < a {
			a, b = b, a
		}
		p := Pair{A: a, B: b}
		if seen[p] {
			return
		}
		seen[p] = true
		out = append(out, Link{Pair: p, Reason: r, Via: via})
	}

	for _, z := range g.Nodes() {
		if len(g.OutLabel(z, pg.LabelShareholding)) == 0 {
			continue
		}
		acc := AccumulatedFrom(g, z)
		// Targets owned ≥ t by z.
		var heavy []pg.NodeID
		for y, v := range acc {
			if v >= t && isCompany(y) {
				heavy = append(heavy, y)
			}
		}
		sort.Slice(heavy, func(i, j int) bool { return heavy[i] < heavy[j] })

		// Condition (i)/(ii): z itself is a company owning ≥ t of y.
		if isCompany(z) {
			for _, y := range heavy {
				add(z, y, ReasonDirect, z)
			}
		}
		// Condition (iii): companies jointly heavily owned by z.
		for i := 0; i < len(heavy); i++ {
			for j := i + 1; j < len(heavy); j++ {
				add(heavy[i], heavy[j], ReasonCommonOwner, z)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pair.A != out[j].Pair.A {
			return out[i].Pair.A < out[j].Pair.A
		}
		return out[i].Pair.B < out[j].Pair.B
	})
	return out
}
