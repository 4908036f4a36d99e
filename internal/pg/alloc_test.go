package pg_test

import (
	"runtime"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// TestCloneAllocations pins the bytes one Clone of a fixed generated
// registry allocates. A clone shares nodes, edges and property maps with its
// origin and copies only the identifier maps and the adjacency and label
// slices, each index into one backing array: 39 allocations and 62 B per
// node-or-edge here, against 20,219 allocations and 482 B when Clone copied
// every element and property map. The budgets leave ~15 % headroom; a Clone
// that starts copying elements, or allocating per adjacency list, again fails
// here.
func TestCloneAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const allocBudget, byteBudget = 45, 426_000
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	elements := g.NumNodes() + g.NumEdges()
	var c *pg.Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() { c = g.Clone() })
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 6 // AllocsPerRun adds a warm-up run
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone holds %d/%d nodes/edges, want %d/%d", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	t.Logf("%d nodes and edges: %.0f allocations, %.0f bytes (%.1f B per element) per clone",
		elements, allocs, bytes, bytes/float64(elements))
	if allocs > allocBudget {
		t.Errorf("a clone allocates %.0f times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("a clone allocates %.0f bytes, budget %d", bytes, byteBudget)
	}
}
