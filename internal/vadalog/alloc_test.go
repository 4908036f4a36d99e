package vadalog

import (
	"context"
	"runtime"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
)

// TestEvalGoalAllocations pins what one point goal allocates through
// EvalGoal, the path of every qcache miss on a control question: the
// memoized demand plan of control(X, Y) with X bound, the relational image
// of a fixed generated registry streamed into its engine, the chase and the
// answers. Through relstore.CompanyGraphFacts and AssertAll the same miss
// allocated ~14,000 times and ~1.79 MB, a boxed value per ID and weight and
// a Fact per row. Streamed and pruned it allocated 170 times and 0.88 MB
// while own/3's rows were summed per (from, to) pair under a registry-sized
// map; summed per owner in a reused buffer it allocates 152 times and
// 0.70 MB, mostly the relations' arenas and indexes. The budgets leave
// ~13 % headroom, so a []Fact or []any intermediate, or a per-pair map,
// cannot come back.
func TestEvalGoalAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const allocBudget, byteBudget = 172, 790_000
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	var goal datalog.Atom
	answers := 0
	miss := func() {
		res, err := EvalGoal(context.Background(), g, ControlProgram, goal, datalog.WithMinAggDelta(1e-4))
		if err != nil || res.RunErr != nil {
			t.Fatal(err, res.RunErr)
		}
		answers = len(res.Answers)
	}
	// The first node that controls another, so the chase has work to do.
	for x := int64(0); answers == 0 && x < 100; x++ {
		goal = datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Int(x), datalog.Variable("Y")}}
		miss()
	}
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
