// Package closelink solves the Close Link (asset eligibility) problem of
// Definitions 2.5 and 2.6 of the Vada-Link paper.
//
// The accumulated ownership Φ(x, y) of x over y is the sum, over all simple
// paths from x to y, of the product of the share amounts along the path
// (Definition 2.5). Two companies x and y are in a close-link relationship
// for threshold t if Φ(x, y) ≥ t, Φ(y, x) ≥ t, or some third party z has
// Φ(z, x) ≥ t and Φ(z, y) ≥ t (Definition 2.6 — the ECB "closely-linked
// entity" rule with t = 0.20).
//
// The solver enumerates simple paths by depth-first search with an on-path
// visited set, which matches Definition 2.5 exactly (the Datalog variant in
// the vadalog package computes the geometric-series semantics instead; see
// DESIGN.md for the discussion). Pruning options bound the exponential
// worst case: contributions below MinProduct and paths longer than MaxDepth
// are cut, both defaulting to values that are lossless on realistic company
// graphs (share products decay geometrically).
package closelink

import (
	"context"
	"sort"

	"vadalink/internal/pg"
)

// DefaultThreshold is the ECB regulation threshold: 20%.
const DefaultThreshold = 0.2

// Options tune the simple-path enumeration.
type Options struct {
	// MinProduct prunes paths whose accumulated product falls below this
	// value; such paths can contribute at most MinProduct each. Zero means
	// the default 1e-9.
	MinProduct float64
	// MaxDepth bounds path length in edges. Zero means the default 64.
	MaxDepth int
}

func (o Options) withDefaults() Options {
	if o.MinProduct == 0 {
		o.MinProduct = 1e-9
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 64
	}
	return o
}

// checkInterval is how many DFS edge expansions pass between context polls
// in the Ctx variants.
const checkInterval = 1024

// Accumulated computes Φ(x, y) per Definition 2.5.
func Accumulated(g pg.View, x, y pg.NodeID, opts Options) float64 {
	return AccumulatedFrom(g, x, opts)[y]
}

// AccumulatedCtx is Accumulated under a context; it returns the context's
// error when the enumeration is cut short (the value is then a lower bound).
func AccumulatedCtx(ctx context.Context, g pg.View, x, y pg.NodeID, opts Options) (float64, error) {
	acc, err := AccumulatedFromCtx(ctx, g, x, opts)
	return acc[y], err
}

// AccumulatedFrom computes Φ(x, ·) for every node reachable from x over
// shareholding edges, in a single simple-path enumeration.
func AccumulatedFrom(g pg.View, x pg.NodeID, opts Options) map[pg.NodeID]float64 {
	acc, _ := AccumulatedFromCtx(context.Background(), g, x, opts)
	return acc
}

// AccumulatedFromCtx is AccumulatedFrom under a context. The simple-path
// enumeration is worst-case exponential, so in a service it must be
// interruptible: the DFS polls the context every checkInterval edge
// expansions and unwinds with the context's error, returning the (partial,
// hence lower-bound) accumulation gathered so far.
func AccumulatedFromCtx(ctx context.Context, g pg.View, x pg.NodeID, opts Options) (map[pg.NodeID]float64, error) {
	opts = opts.withDefaults()
	acc := make(map[pg.NodeID]float64)
	onPath := make(map[pg.NodeID]bool)
	steps := 0
	var cancelErr error
	var dfs func(n pg.NodeID, product float64, depth int)
	dfs = func(n pg.NodeID, product float64, depth int) {
		if cancelErr != nil || depth >= opts.MaxDepth {
			return
		}
		onPath[n] = true
		for _, e := range g.OutLabel(n, pg.LabelShareholding) {
			if steps++; steps%checkInterval == 0 {
				if err := ctx.Err(); err != nil {
					cancelErr = err
					break
				}
			}
			w, ok := e.Weight()
			if !ok {
				continue
			}
			p := product * w
			if p < opts.MinProduct {
				continue
			}
			if onPath[e.To] {
				// Revisiting a node on the current path would make the path
				// non-simple (this also skips self-loops).
				continue
			}
			acc[e.To] += p
			dfs(e.To, p, depth+1)
			if cancelErr != nil {
				break
			}
		}
		onPath[n] = false
	}
	dfs(x, 1, 0)
	return acc, cancelErr
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
// (conditions (i)–(iii) of Definition 2.6). Persons are considered as
// potential common third parties z but never as members of a reported pair.
func CloseLinks(g pg.View, t float64, opts Options) []Link {
	out, _ := CloseLinksCtx(context.Background(), g, t, opts)
	return out
}

// CloseLinksCtx is CloseLinks under a context: it stops between third
// parties (and inside each Φ enumeration) when the context is cancelled,
// returning the links found so far plus the context's error.
func CloseLinksCtx(ctx context.Context, g pg.View, t float64, opts Options) ([]Link, error) {
	if t <= 0 {
		t = DefaultThreshold
	}
	isCompany := func(n pg.NodeID) bool { return g.Node(n).Label == pg.LabelCompany }

	seen := make(map[Pair]bool)
	var out []Link
	add := func(a, b pg.NodeID, r Reason, via pg.NodeID) {
		if a == b {
			return
		}
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
		if err := ctx.Err(); err != nil {
			return out, err
		}
		if len(g.OutLabel(z, pg.LabelShareholding)) == 0 {
			continue
		}
		acc, err := AccumulatedFromCtx(ctx, g, z, opts)
		if err != nil {
			return out, err
		}
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
	return out, nil
}
