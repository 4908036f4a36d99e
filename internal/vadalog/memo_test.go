package vadalog

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// freshGoal answers a goal the way EvalGoal did before plans were memoized:
// a fresh parse and a fresh NewGoalEngine, falling back to a fresh NewEngine
// on ErrNotDemandable.
func freshGoal(t *testing.T, g pg.View, progSrc string, goal datalog.Atom) *GoalResult {
	t.Helper()
	prog, err := datalog.Parse(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	res := &GoalResult{Mode: GoalModeMagic}
	e, err := datalog.NewGoalEngine(prog, goal)
	if nd := (*datalog.ErrNotDemandable)(nil); errors.As(err, &nd) {
		res.Mode = GoalModeFull
		e, err = datalog.NewEngine(prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(g))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	res.Answers = e.Query(goal)
	return res
}

// TestMemoizedGoalPlans checks every goal shape the server sends, each asked
// with three constants so that most asks reuse a memoized plan: the answers
// and mode from EvalGoal must equal a fresh evaluation.
func TestMemoizedGoalPlans(t *testing.T) {
	g := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 120, Companies: 180, Seed: 5}).Graph
	r := NewReasoner(g, TaskControl|TaskCloseLink)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	control, closeLinks := r.ControlPairs(), r.CloseLinkPairs()
	if len(control) < 3 || len(closeLinks) < 3 {
		t.Fatalf("generator produced %d control and %d close-link pairs", len(control), len(closeLinks))
	}
	shapes := []struct {
		format string // $x controls $y; $c has a close link
		mode   string
	}{
		{"control($x, Y)", GoalModeMagic},
		{"control(X, $y)", GoalModeMagic},
		{"control($x, $y)", GoalModeMagic},
		{"control(X, X)", GoalModeFull},
		{"control(X, Y)", GoalModeFull},
		{"own($x, Y, W)", GoalModeMagic},
		{"company($y, N, B, A, S)", GoalModeMagic},
		{"closelink($c, Y)", GoalModeMagic},
	}
	type ask struct {
		text, progSrc, mode string
		goal                datalog.Atom
		want                *GoalResult
	}
	var asks []ask
	for _, sh := range shapes {
		for i := 0; i < 3; i++ {
			text := strings.NewReplacer(
				"$x", fmt.Sprint(control[i][0]), "$y", fmt.Sprint(control[i][1]), "$c", fmt.Sprint(closeLinks[i][0]),
			).Replace(sh.format)
			goal, err := datalog.ParseGoal(text)
			if err != nil {
				t.Fatal(err)
			}
			progSrc, _ := ProgramForGoal(goal.Pred)
			asks = append(asks, ask{text, progSrc, sh.mode, goal, freshGoal(t, g, progSrc, goal)})
		}
	}
	// Every ask at once: under -race this also checks the memo's
	// concurrent first use and reuse.
	var wg sync.WaitGroup
	answered := make([]bool, len(asks))
	for i, a := range asks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := EvalGoal(context.Background(), g, a.progSrc, a.goal)
			if err != nil {
				t.Errorf("%s: %v", a.text, err)
				return
			}
			if got.Mode != a.mode || a.want.Mode != a.mode {
				t.Errorf("%s: mode %s, fresh %s, want %s", a.text, got.Mode, a.want.Mode, a.mode)
			}
			if !reflect.DeepEqual(got.Answers, a.want.Answers) {
				t.Errorf("%s: memoized answers %v, fresh %v", a.text, got.Answers, a.want.Answers)
			}
			answered[i] = len(got.Answers) > 0
		}()
	}
	wg.Wait()
	if n := len(slices.DeleteFunc(answered, func(b bool) bool { return !b })); n < len(asks)-3 { // control(X, X) has none
		t.Fatalf("vacuous: only %d of %d goals have answers", n, len(asks))
	}

	sp, err := shipped(ControlProgram)
	if err != nil {
		t.Fatal(err)
	}
	memoized := map[string]bool{}
	sp.plans.Range(func(k, _ any) bool { memoized[k.(string)] = true; return true })
	for _, shape := range []string{"control#bf", "control#fb", "control#bb", "control#ff", "own#bff", "company#bffff"} {
		if !memoized[shape] {
			t.Errorf("shape %s is not memoized; have %v", shape, memoized)
		}
	}

	// A goal whose predicate and arity the program does not mention is
	// answered, and memoizes nothing: the memo stays bounded by the program.
	goal, err := datalog.ParseGoal(fmt.Sprintf("control(%d, Y, Z)", control[0][0]))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := EvalGoal(context.Background(), g, ControlProgram, goal); err != nil || len(res.Answers) != 0 {
		t.Fatalf("control/3: %v answers, err %v", res, err)
	}
	sp.plans.Range(func(k, _ any) bool {
		if k.(string) == "control#bff" {
			t.Error("a goal shape the program does not define was memoized")
		}
		return true
	})
}
