package closelink

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vadalink/internal/pg"
)

// bruteForcePhi enumerates all simple paths naively (independent of the
// production DFS) and sums their products — the reference implementation for
// Definition 2.5.
func bruteForcePhi(g *pg.Graph, x, y pg.NodeID) float64 {
	var total float64
	visited := map[pg.NodeID]bool{}
	var rec func(n pg.NodeID, product float64)
	rec = func(n pg.NodeID, product float64) {
		visited[n] = true
		for _, e := range g.OutLabel(n, pg.LabelShareholding) {
			w, ok := e.Weight()
			if !ok {
				continue
			}
			p := product * w
			if e.To == y {
				// A simple path ends the moment it reaches y.
				total += p
				continue
			}
			if visited[e.To] {
				continue
			}
			rec(e.To, p)
		}
		delete(visited, n)
	}
	rec(x, 1)
	return total
}

// randomDAGish builds a small random ownership graph (cycles allowed).
func randomDAGish(r *rand.Rand, n, edges int) *pg.Graph {
	g := pg.New()
	var ids []pg.NodeID
	for i := 0; i < n; i++ {
		ids = append(ids, g.AddNode(pg.LabelCompany, nil))
	}
	for i := 0; i < edges; i++ {
		a, b := ids[r.Intn(n)], ids[r.Intn(n)]
		if a == b {
			continue
		}
		g.MustAddEdgeWeighted(a, b, 0.05+0.9*r.Float64())
	}
	return g
}

// Property: the production simple-path DFS matches the brute-force reference
// on random small graphs.
func TestAccumulatedMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAGish(r, 7, 12)
		ids := g.Nodes()
		for trial := 0; trial < 5; trial++ {
			x := ids[r.Intn(len(ids))]
			y := ids[r.Intn(len(ids))]
			if x == y {
				continue
			}
			got := AccumulatedFrom(g, x)[y]
			want := bruteForcePhi(g, x, y)
			if math.Abs(got-want) > 1e-9 {
				t.Logf("seed %d: Φ(%d,%d) = %v, brute force %v", seed, x, y, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Φ is monotone — adding an edge never decreases any Φ(x, y) for
// pairs not involving the new edge's endpoints as blockers (in fact it never
// decreases at all: more paths can only add non-negative contributions).
func TestAccumulatedMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomDAGish(r, 6, 8)
		ids := g.Nodes()
		x, y := ids[0], ids[len(ids)-1]
		before := AccumulatedFrom(g, x)[y]
		a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
		if a != b {
			g.MustAddEdgeWeighted(a, b, 0.3)
		}
		after := AccumulatedFrom(g, x)[y]
		return after >= before-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Φ(x, y) ≤ 1 when every company's incoming shares sum to ≤ 1
// (you cannot accumulate more than the whole company).
func TestAccumulatedBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := pg.New()
		var ids []pg.NodeID
		for i := 0; i < 8; i++ {
			ids = append(ids, g.AddNode(pg.LabelCompany, nil))
		}
		incoming := map[pg.NodeID]float64{}
		for i := 0; i < 16; i++ {
			a, b := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
			if a == b {
				continue
			}
			room := 1 - incoming[b]
			if room <= 0.02 {
				continue
			}
			w := 0.01 + r.Float64()*(room-0.01)
			incoming[b] += w
			g.MustAddEdgeWeighted(a, b, w)
		}
		for _, x := range ids {
			for y, v := range AccumulatedFrom(g, x) {
				if v > 1+1e-9 {
					t.Logf("seed %d: Φ(%d,%d) = %v > 1", seed, x, y, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
