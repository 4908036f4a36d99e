package whatif

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// busiestShare returns the shareholding of g with the most sources upstream
// of its owner: the scenario with the widest cone a one-edge what-if has.
func busiestShare(g pg.View) pg.EdgeID {
	var share pg.EdgeID
	most := 0
	for _, id := range g.EdgesWithLabel(pg.LabelShareholding) {
		if n := len(ReverseReachable(map[pg.NodeID]bool{g.Edge(id).From: true}, g)); n > most {
			share, most = id, n
		}
	}
	return share
}

// TestAdvanceAllocations pins what one scoped step allocates on a fixed
// registry: halving the shareholding with the most sources upstream.
// Parsing and planning the maintenance program on every step cost ~670 of
// the ~2,660 allocations it once made; later work on the graph and the chase
// brought the step to ~740, and it made ~755 once the splice copied the
// baseline's maps and control rows were grouped by source; streaming the
// cone's rows into the scoped chase (relstore.LoadScope) instead of building
// a Fact per row brought it to ~655. The budget leaves ~8 % headroom. It may only be tightened, so that per-step work of that
// kind cannot creep back.
func TestAdvanceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 710
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 64, Persons: 32, Seed: 11}).Graph
	bl := baseline(t, g)
	o := pg.NewOverlay(g)
	share := busiestShare(g)
	w, _ := g.Edge(share).Weight()
	if err := o.SetEdgeWeight(share, w/2); err != nil {
		t.Fatal(err)
	}
	journal, err := o.Journal()
	if err != nil {
		t.Fatal(err)
	}
	var st Step
	got := testing.AllocsPerRun(20, func() {
		if _, st, err = bl.Advance(context.Background(), o, journal); err != nil {
			t.Fatal(err)
		}
	})
	if st.Affected == 0 {
		t.Fatal("vacuous step: no affected source")
	}
	t.Logf("%d affected sources, %.0f allocations", st.Affected, got)
	if got > budget {
		t.Errorf("a what-if step allocates %.0f times, budget %d", got, budget)
	}
}

// TestEvaluateCostIsIndependentOfRegistry: a what-if costs its cone, not the
// registry. One fixed scenario inside the first group of a registry of 1 and
// of 8 disjoint groups must allocate as often and as many bytes, within
// 10 %: Evaluate reads the baseline by key and builds no successor, so the
// seven groups the scenario cannot reach cost it nothing.
func TestEvaluateCostIsIndependentOfRegistry(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	groups := make([]*pg.Graph, 8)
	for i := range groups {
		groups[i] = graphgen.NewItalian(graphgen.ItalianConfig{Companies: 64, Persons: 32, Seed: int64(11 + i)}).Graph
	}
	// The first group is copied first, so it has the same IDs in both
	// registries and so does the scenario.
	small, large := disjointUnion(groups[:1]), disjointUnion(groups)
	share := busiestShare(small)
	w, _ := small.Edge(share).Weight()
	ops := []Op{{Op: "setShare", Edge: share, W: w / 2}}

	type cost struct{ allocs, bytes float64 }
	var diffs []Step
	measure := func(g *pg.Graph) cost {
		bl := baseline(t, g)
		var res *Result
		allocs, bytes := allocsPerRun(20, func() {
			var err error
			if res, err = Evaluate(context.Background(), g, bl, ops, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		diffs = append(diffs, Step{res.AffectedSources, res.ControlGained, res.ControlLost, res.CloseLinkGained, res.CloseLinkLost})
		return cost{allocs, bytes}
	}
	one, eight := measure(small), measure(large)
	if diffs[0].Affected == 0 {
		t.Fatal("vacuous scenario: no affected source")
	}
	if !reflect.DeepEqual(diffs[0], diffs[1]) {
		t.Fatalf("the scenario's diff differs between registries: %+v vs %+v", diffs[0], diffs[1])
	}
	t.Logf("1 group (%d nodes): %.0f allocations, %.0f B; 8 groups (%d nodes): %.0f allocations, %.0f B",
		small.NumNodes(), one.allocs, one.bytes, large.NumNodes(), eight.allocs, eight.bytes)
	if eight.allocs > 1.1*one.allocs {
		t.Errorf("Evaluate allocates %.0f times over 8 groups, %.0f over 1", eight.allocs, one.allocs)
	}
	if eight.bytes > 1.1*one.bytes {
		t.Errorf("Evaluate allocates %.0f B over 8 groups, %.0f B over 1", eight.bytes, one.bytes)
	}
}

// disjointUnion copies groups into one graph, in order.
func disjointUnion(groups []*pg.Graph) *pg.Graph {
	out := pg.New()
	for _, g := range groups {
		ids := make(map[pg.NodeID]pg.NodeID, g.NumNodes())
		for _, id := range g.Nodes() {
			n := g.Node(id)
			ids[id] = out.AddNode(n.Label, n.Props)
		}
		for _, id := range g.Edges() {
			e := g.Edge(id)
			out.MustAddEdge(e.Label, ids[e.From], ids[e.To], e.Props)
		}
	}
	return out
}

// allocsPerRun is testing.AllocsPerRun reporting bytes too: the mean heap
// allocations and bytes of one call of f, after a warm-up call, on one P.
func allocsPerRun(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
