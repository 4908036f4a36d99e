package vadalog

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// TestEvalGoalAllocations pins what one point goal allocates through
// Control.Goal, the path of every qcache miss on a control question: the
// memoized demand plan of control(X, Y) with X bound, the relational image
// of a fixed generated registry streamed into its engine, the chase and the
// answers. Through relstore.CompanyGraphFacts and AssertAll the same miss
// allocated ~14,000 times and ~1.79 MB, a boxed value per ID and weight and
// a Fact per row. Streamed and pruned into a fresh engine it allocated 152
// times and 0.70 MB, mostly the relations' arenas and indexes. On an engine
// of the plan's free list, re-armed with those buffers (datalog.Engine.Reset),
// it allocates 105 times and 32 kB. The budgets leave ~13 % headroom, so a
// miss that stops reusing its plan's scratch, or a []Fact or []any
// intermediate, cannot come back. No collection runs while it measures: one
// would empty the free list, which holds its engines weakly
// (TestIdleScratchIsCollected).
func TestEvalGoalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const allocBudget, byteBudget = 119, 36_500
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	goal := firstControllingGoal(t, g)
	answers := 0
	miss := func() {
		res, err := Control.Goal(context.Background(), g, goal, datalog.WithMinAggDelta(1e-4))
		if err != nil || res.RunErr != nil {
			t.Fatal(err, res.RunErr)
		}
		answers = len(res.Answers)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, miss)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 6 // AllocsPerRun adds a warm-up run
	if answers == 0 {
		t.Fatal("vacuous goal: no answers")
	}
	t.Logf("%d answers: %.0f allocations, %.0f bytes per miss", answers, allocs, bytes)
	if allocs > allocBudget {
		t.Errorf("a goal miss allocates %.0f times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("a goal miss allocates %.0f bytes, budget %d", bytes, byteBudget)
	}
}

// firstControllingGoal returns control(x, Y) for the first node x that
// controls another, so the chase has work to do.
func firstControllingGoal(t *testing.T, g pg.View) datalog.Atom {
	t.Helper()
	for x := int64(0); x < 100; x++ {
		goal := datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Int(x), datalog.Variable("Y")}}
		res, err := Control.Goal(context.Background(), g, goal)
		if err != nil || res.RunErr != nil {
			t.Fatal(err, res.RunErr)
		}
		if len(res.Answers) > 0 {
			return goal
		}
	}
	t.Fatal("no node among the first 100 controls another")
	return datalog.Atom{}
}

// TestIdleScratchIsCollected holds the free lists to their contract: an
// engine lies idle in one only until the next collection, so the heap a
// collection leaves after a burst of misses is the heap before it. A
// benchmark's live heap is read after one runtime.GC; a free list that held
// its engines strongly, or a sync.Pool, whose victims outlive one
// collection, would add an engine's scratch (~0.7 MB here) to it.
func TestIdleScratchIsCollected(t *testing.T) {
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	goal := firstControllingGoal(t, g)
	gp, err := Control.goalPlan(goal)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range 20 {
		if _, err := Control.Goal(context.Background(), g, goal); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g) // live in both readings
	if e := gp.free.take(); e != nil {
		t.Error("an idle engine outlived a collection")
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap after 20 misses and a collection: %+d bytes", grew)
	if grew > 64<<10 {
		t.Errorf("a burst of misses left %d bytes live after a collection, want none of its scratch", grew)
	}
}
