package vadalog

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// recycleAsk is one goal of the recycling harness, with what a fresh engine
// of its plan answers.
type recycleAsk struct {
	name    string
	p       *Program
	g       pg.View
	goal    datalog.Atom
	opts    []datalog.Option
	ctx     context.Context
	want    *GoalResult
	wantWhy []string // the derivation tree of the goal, under provenance
}

// freshPlanGoal answers a goal as Goal does, on a new engine of the same
// memoized plan: the oracle a recycled engine must equal.
func freshPlanGoal(t *testing.T, a *recycleAsk) (*GoalResult, *datalog.Engine) {
	t.Helper()
	gp, err := a.p.goalPlan(a.goal)
	if err != nil {
		t.Fatal(err)
	}
	res := &GoalResult{Mode: GoalModeMagic}
	var e *datalog.Engine
	if gp.plan != nil {
		if e, err = gp.plan.NewEngine(a.goal, a.opts...); err != nil {
			t.Fatal(err)
		}
	} else {
		res.Mode = GoalModeFull
		e = a.p.full.NewEngine(a.opts...)
	}
	e.Prune(a.goal.Pred)
	relstore.Load(e, a.g)
	res.RunErr = e.RunContext(a.ctx)
	res.Answers = e.Query(a.goal)
	res.Stats = e.Stats()
	return res, e
}

// chaseCounts is the part of a chase report that does not depend on the
// clock: equal on a fresh and a recycled engine of one plan.
func chaseCounts(st *datalog.ChaseStats) [8]int64 {
	if st == nil {
		return [8]int64{}
	}
	return [8]int64{int64(st.Rounds), int64(st.Derived), int64(st.Duplicates), st.Candidates,
		st.IndexHits, st.IndexScans, st.IndexBuilds, st.IndexBytes}
}

// limitOf names the limit a run tripped, "" when it finished.
func limitOf(err error) datalog.Limit {
	var be *datalog.BudgetExceededError
	if errors.As(err, &be) {
		return be.Limit
	}
	if err != nil {
		return "error: " + datalog.Limit(err.Error())
	}
	return ""
}

// explainPair renders the derivation tree of control(x, y) on e.
func explainPair(e *datalog.Engine, goal datalog.Atom) []string {
	f := datalog.Fact{Pred: goal.Pred, Args: []any{goal.Terms[0].(datalog.Constant).Value, goal.Terms[1].(datalog.Constant).Value}}
	if !e.Has(f) {
		return nil
	}
	return datalog.StripDemandMarkers(e.ExplainTree(f, 0))
}

// TestRecycledEnginesMatchFresh is the differential harness of engine
// recycling: goals of every shape the server asks (control bound forward,
// backward and both ways, unbound, and the accown and closelink goals) over
// a larger and a smaller registry, a run that trips its budget, a cancelled
// run and a provenance goal, interleaved on concurrent goroutines through
// the same plans' free lists, so that an engine's buffers grow and shrink
// between runs and a tripped or cancelled run's engine serves the next goal.
// Every result must equal a fresh engine's of the same plan: answers, mode,
// the tripped limit and the chase's counts, and under provenance the
// derivation tree, which a recycled engine must record too.
func TestRecycledEnginesMatchFresh(t *testing.T) {
	// No collection may empty the free lists: every goal after the first
	// few of a shape must run on a recycled engine.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	control, err := Compile(ControlProgram)
	if err != nil {
		t.Fatal(err)
	}
	closeLink, err := Compile(CloseLinkProgram)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	stats := []datalog.Option{datalog.WithStats(), datalog.WithMinAggDelta(1e-9)}
	var asks []*recycleAsk
	for _, gc := range []struct {
		name string
		cfg  graphgen.ItalianConfig
	}{
		{"larger", graphgen.ItalianConfig{Persons: 200, Companies: 400, Seed: 9}},
		{"smaller", graphgen.ItalianConfig{Persons: 30, Companies: 60, Seed: 4}},
	} {
		g := graphgen.NewItalian(gc.cfg).Graph
		r := NewReasoner(g, TaskControl|TaskCloseLink)
		if err := r.Run(); err != nil {
			t.Fatal(err)
		}
		pairs, links := r.ControlPairs(), r.CloseLinkPairs()
		if len(pairs) == 0 || len(links) == 0 {
			t.Fatalf("%s: %d control and %d close-link pairs", gc.name, len(pairs), len(links))
		}
		x, y, c := pairs[0][0], pairs[len(pairs)-1][1], links[0][0]
		ask := func(name string, p *Program, text string, ctx context.Context, opts ...datalog.Option) *recycleAsk {
			goal, err := datalog.ParseGoal(text)
			if err != nil {
				t.Fatal(err)
			}
			a := &recycleAsk{name: gc.name + " " + name + " " + text, p: p, g: g, goal: goal, opts: opts, ctx: ctx}
			asks = append(asks, a)
			return a
		}
		ask("bf", control, fmt.Sprintf("control(%d, Y)", x), context.Background(), stats...)
		ask("fb", control, fmt.Sprintf("control(X, %d)", y), context.Background(), stats...)
		ask("bb", control, fmt.Sprintf("control(%d, %d)", pairs[0][0], pairs[0][1]), context.Background(), stats...)
		ask("ff", control, "control(X, Y)", context.Background(), stats...)
		ask("accown", closeLink, fmt.Sprintf("accown(%d, Y, W)", c), context.Background(), stats...)
		ask("closelink", closeLink, fmt.Sprintf("closelink(%d, Y)", c), context.Background(), stats...)
		ask("tripped", closeLink, fmt.Sprintf("closelink(%d, Y)", c), context.Background(),
			datalog.WithStats(), datalog.WithBudget(datalog.Budget{MaxFacts: 3}))
		ask("cancelled", control, fmt.Sprintf("control(%d, Y)", x), cancelled, stats...)
		ask("provenance", control, fmt.Sprintf("control(%d, %d)", pairs[0][0], pairs[0][1]), context.Background(),
			datalog.WithStats(), datalog.WithProvenance())
	}
	for _, a := range asks {
		var e *datalog.Engine
		a.want, e = freshPlanGoal(t, a)
		if e.RecordsProvenance() {
			if a.wantWhy = explainPair(e, a.goal); a.wantWhy == nil {
				t.Fatalf("%s: vacuous: the fresh engine explains nothing", a.name)
			}
		}
	}
	for _, want := range []struct {
		name  string
		limit datalog.Limit
	}{{"larger tripped", datalog.LimitFacts}, {"larger cancelled", datalog.LimitCancelled}} {
		for _, a := range asks {
			if strings.HasPrefix(a.name, want.name) && limitOf(a.want.RunErr) != want.limit {
				t.Fatalf("%s: vacuous: a fresh run stopped at %q, want %q", a.name, limitOf(a.want.RunErr), want.limit)
			}
		}
	}

	const goroutines, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for range rounds {
				for _, i := range rng.Perm(len(asks)) {
					a := asks[i]
					got, err := a.p.Goal(a.ctx, a.g, a.goal, a.opts...)
					if err != nil {
						t.Errorf("%s: %v", a.name, err)
						return
					}
					if !reflect.DeepEqual(got.Answers, a.want.Answers) {
						t.Errorf("%s: recycled answers %v, fresh %v", a.name, got.Answers, a.want.Answers)
					}
					if got.Mode != a.want.Mode || limitOf(got.RunErr) != limitOf(a.want.RunErr) {
						t.Errorf("%s: recycled mode %s stopped at %q, fresh %s at %q", a.name,
							got.Mode, limitOf(got.RunErr), a.want.Mode, limitOf(a.want.RunErr))
					}
					if chaseCounts(got.Stats) != chaseCounts(a.want.Stats) {
						t.Errorf("%s: recycled chase counts %v, fresh %v", a.name, chaseCounts(got.Stats), chaseCounts(a.want.Stats))
					}
					switch {
					case a.wantWhy == nil && got.Engine != nil:
						t.Errorf("%s: Goal handed out an engine without provenance", a.name)
					case a.wantWhy != nil && got.Engine == nil:
						t.Errorf("%s: Goal handed out no engine under provenance", a.name)
					case a.wantWhy != nil && !reflect.DeepEqual(explainPair(got.Engine, a.goal), a.wantWhy):
						t.Errorf("%s: recycled explanation %q, fresh %q", a.name, explainPair(got.Engine, a.goal), a.wantWhy)
					}
				}
			}
		}()
	}
	wg.Wait()

	// With no collection, every engine a goal made is idle in its shape's
	// free list, apart from those handed out under provenance. However many
	// times a shape was asked, it needs at most one engine per goroutine.
	idle := 0
	for _, p := range []*Program{control, closeLink} {
		p.plans.Range(func(shape, v any) bool {
			gp := v.(*goalPlan)
			n := 0
			for gp.free.take() != nil {
				n++
			}
			if n > goroutines {
				t.Errorf("shape %s: %d idle engines after its goals, want at most %d", shape, n, goroutines)
			}
			idle += n
			return true
		})
	}
	if idle == 0 {
		t.Error("vacuous: no engine went back to a free list")
	}
}
