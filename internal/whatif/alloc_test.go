package whatif

import (
	"context"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// TestAdvanceAllocations pins what one scoped what-if step allocates on a
// fixed registry: halving the shareholding with the most sources upstream.
// Parsing and planning the maintenance program on every step cost ~670 of
// the ~2,660 allocations it once made; ~1,990 remain, and the budget leaves
// ~10 % headroom over them. It may only be tightened, so that per-step work
// of that kind cannot creep back.
func TestAdvanceAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const budget = 2_200
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 64, Persons: 32, Seed: 11}).Graph
	bl := baseline(t, g)
	o := pg.NewOverlay(g)
	// The shareholding with the most sources upstream of its owner.
	var share pg.EdgeID
	most := 0
	for _, id := range g.EdgesWithLabel(pg.LabelShareholding) {
		if n := len(ReverseReachable(map[pg.NodeID]bool{g.Edge(id).From: true}, g)); n > most {
			share, most = id, n
		}
	}
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
