package datalog_test

// Deterministic scaling regression tests, no wall clock: the work of a chase
// over K disjoint copies of one ownership group, counted in facts offered to
// unification (ChaseStats.Candidates), must be exactly K times the work of
// one copy. The join plan that kept the delta occurrence at its textual
// position failed this by a factor that grew with K (the whole relation
// scanned, and per row the whole delta) while deriving the same facts in the
// same rounds with an index hit ratio of ~1.
//
// External test package: the shipped programs live in internal/vadalog,
// which imports this package.

import (
	"fmt"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/vadalog"
)

// groupEDB is one fixed, acyclic ownership group — ten companies, two
// persons, several owners sharing targets so accumulated ownership sums
// over parallel paths and common-owner pairs form — with node ids offset by
// base so copies are disjoint.
func groupEDB(base int64) []datalog.Fact {
	var fs []datalog.Fact
	for i := int64(0); i < 10; i++ {
		fs = append(fs, datalog.Fact{Pred: "company", Args: []any{base + i, fmt.Sprintf("C%d", base+i), "", "", "bank"}})
	}
	for i := int64(10); i < 12; i++ {
		fs = append(fs, datalog.Fact{Pred: "person", Args: []any{base + i, fmt.Sprintf("P%d", base+i), "1970", "", ""}})
	}
	for _, o := range []struct {
		from, to int64
		w        float64
	}{
		{10, 0, 0.6}, {10, 1, 0.3}, {11, 1, 0.4}, {11, 2, 0.8},
		{0, 1, 0.3}, {0, 3, 0.55}, {1, 3, 0.25}, {1, 4, 0.7}, {2, 4, 0.2}, {2, 5, 0.51},
		{3, 6, 0.6}, {4, 6, 0.3}, {4, 7, 0.9}, {5, 7, 0.05}, {5, 8, 1.0},
		{6, 9, 0.5}, {7, 9, 0.45}, {8, 9, 0.05},
	} {
		fs = append(fs, own(base+o.from, base+o.to, o.w))
	}
	return fs
}

func own(from, to int64, w float64) datalog.Fact {
	return datalog.Fact{Pred: "own", Args: []any{from, to, w}}
}

// registryEngine loads k disjoint copies of the group into a sequential,
// stats-collecting engine for src and runs it to fixpoint.
func registryEngine(t *testing.T, src string, k int) *datalog.Engine {
	t.Helper()
	e, err := datalog.NewEngine(datalog.MustParse(src), datalog.WithParallel(1), datalog.WithStats())
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < k; g++ {
		e.AssertAll(groupEDB(int64(g) * 100))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestChaseWorkIsLinearInDisjointGroups(t *testing.T) {
	src := vadalog.ControlProgram + vadalog.CloseLinkProgram
	small, large := registryEngine(t, src, 4).Stats(), registryEngine(t, src, 16).Stats()
	if small.Candidates == 0 || small.Derived == 0 || small.Duplicates == 0 {
		t.Fatalf("vacuous group: %d candidates, %d derived, %d duplicates", small.Candidates, small.Derived, small.Duplicates)
	}
	if large.Rounds != small.Rounds {
		t.Errorf("rounds: %d at 16 groups, %d at 4", large.Rounds, small.Rounds)
	}
	if large.Derived != 4*small.Derived || large.Duplicates != 4*small.Duplicates {
		t.Errorf("derived/duplicates: %d/%d at 16 groups, want 4 x %d/%d", large.Derived, large.Duplicates, small.Derived, small.Duplicates)
	}
	if large.Candidates != 4*small.Candidates {
		t.Errorf("candidates: %d at 16 groups, want 4 x %d = %d", large.Candidates, small.Candidates, 4*small.Candidates)
	}
	for i, r := range small.Rules {
		if got := large.Rules[i].Candidates; got != 4*r.Candidates {
			t.Errorf("rule %s: %d candidates at 16 groups, want 4 x %d", r.Rule, got, r.Candidates)
		}
	}
}
