package vadalog

// The goal-mode differential harness: demand-driven answers must equal full
// evaluation on every binding pattern, goal predicate, and graph family the
// serving tier exercises — Barabási scale-free graphs (the paper's §6
// synthetic workload) and Italian-register-like graphs, over control,
// accown, and closelink goals. This is the acceptance gate for the magic-
// sets rewrite: the rewrite prunes derivation, never answers.

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// fullAnswers evaluates the goal by full bottom-up chase, as the oracle.
func fullAnswers(t *testing.T, g pg.View, progSrc string, goal datalog.Atom) []string {
	t.Helper()
	prog, err := datalog.Parse(progSrc)
	if err != nil {
		t.Fatal(err)
	}
	e, err := datalog.NewEngine(prog, datalog.WithMinAggDelta(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(g))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return bindingKeys(e.Query(goal))
}

// goalAnswers evaluates through EvalGoal and asserts demand mode when the
// goal is demandable.
func goalAnswers(t *testing.T, g pg.View, progSrc string, goal datalog.Atom, wantMode string) []string {
	t.Helper()
	res, err := EvalGoal(context.Background(), g, progSrc, goal, datalog.WithMinAggDelta(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	if res.RunErr != nil {
		t.Fatalf("goal run: %v", res.RunErr)
	}
	if wantMode != "" && res.Mode != wantMode {
		t.Fatalf("goal %v evaluated in mode %s, want %s", goal, res.Mode, wantMode)
	}
	return bindingKeys(res.Answers)
}

func bindingKeys(bs []datalog.Binding) []string {
	keys := make([]string, 0, len(bs))
	for _, b := range bs {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		s := ""
		for _, v := range vars {
			val := b[datalog.Variable(v)]
			if f, ok := val.(float64); ok {
				// Aggregate totals: round to the comparison tolerance so both
				// evaluation orders produce one key.
				s += fmt.Sprintf("%s=%.6f;", v, f)
			} else {
				s += fmt.Sprintf("%s=%v;", v, val)
			}
		}
		keys = append(keys, s)
	}
	sort.Strings(keys)
	return keys
}

func diffAnswers(t *testing.T, full, demand []string, what string) {
	t.Helper()
	if len(full) != len(demand) {
		t.Fatalf("%s: full %d answers, demand %d", what, len(full), len(demand))
	}
	for i := range full {
		if full[i] != demand[i] {
			t.Fatalf("%s: answer %d: full %q, demand %q", what, i, full[i], demand[i])
		}
	}
}

func TestGoalDifferentialHarness(t *testing.T) {
	graphs := []struct {
		name string
		g    pg.View
	}{
		{"barabasi-200", graphgen.Barabasi(200, 2, 7)},
		{"barabasi-400", graphgen.Barabasi(400, 1, 11)},
		{"italian-200", graphgen.NewItalian(graphgen.ItalianConfig{Persons: 100, Companies: 100, Seed: 3}).Graph},
		{"italian-300", graphgen.NewItalian(graphgen.ItalianConfig{Persons: 120, Companies: 180, Seed: 5}).Graph},
	}
	for _, gc := range graphs {
		// Pick probe nodes that actually own something, so bound goals are
		// non-trivial; plus one arbitrary node for the empty-cone case.
		var owners []pg.NodeID
		for _, n := range gc.g.Nodes() {
			if len(gc.g.OutLabel(n, pg.LabelShareholding)) > 0 {
				owners = append(owners, n)
			}
			if len(owners) == 3 {
				break
			}
		}
		if len(owners) == 0 {
			t.Fatalf("%s: generator produced no shareholding edges", gc.name)
		}
		a := owners[0]
		b := owners[len(owners)-1]

		cases := []struct {
			prog string
			goal string
			mode string
		}{
			// control: forward, reverse, fully bound.
			{ControlProgram, fmt.Sprintf("control(%d, Y)", a), GoalModeMagic},
			{ControlProgram, fmt.Sprintf("control(X, %d)", b), GoalModeMagic},
			{ControlProgram, fmt.Sprintf("control(%d, %d)", a, b), GoalModeMagic},
			// accown: forward and reverse cones (the aggregate-soundness path).
			{CloseLinkProgram, fmt.Sprintf("accown(%d, Y, W)", a), GoalModeMagic},
			{CloseLinkProgram, fmt.Sprintf("accown(X, %d, W)", b), GoalModeMagic},
			// closelink: bound one side; the symmetry rule forces mixed
			// forward/reverse demand through accown.
			{CloseLinkProgram, fmt.Sprintf("closelink(%d, Y)", a), GoalModeMagic},
			{CloseLinkProgram, fmt.Sprintf("closelink(%d, %d)", a, b), GoalModeMagic},
			// free goals fall back to full evaluation and still answer.
			{ControlProgram, "control(X, Y)", GoalModeFull},
		}
		for _, tc := range cases {
			goal, err := datalog.ParseGoal(tc.goal)
			if err != nil {
				t.Fatal(err)
			}
			diffAnswers(t,
				fullAnswers(t, gc.g, tc.prog, goal),
				goalAnswers(t, gc.g, tc.prog, goal, tc.mode),
				gc.name+" "+tc.goal)
		}
	}
}

// TestGoalControlsMatchesReasoner pins the forward control goal the server's
// /v1/control asks to the declarative reasoner: control(x, Y) under EvalGoal
// must return exactly the reasoner's pairs from source x.
func TestGoalControlsMatchesReasoner(t *testing.T) {
	g, _ := pg.Figure2()
	r := NewReasoner(g, TaskControl)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	bySource := map[pg.NodeID][]pg.NodeID{}
	for _, p := range r.ControlPairs() {
		bySource[p[0]] = append(bySource[p[0]], p[1])
	}
	for src, want := range bySource {
		goal, _ := datalog.ParseGoal(fmt.Sprintf("control(%d, Y)", src))
		res, err := EvalGoal(context.Background(), g, ControlProgram, goal)
		if err != nil || res.RunErr != nil {
			t.Fatalf("EvalGoal: %v / %v", err, res.RunErr)
		}
		if res.Mode != GoalModeMagic {
			t.Fatalf("control(%d, Y) should be demandable", src)
		}
		got := map[pg.NodeID]bool{}
		for _, b := range res.Answers {
			if id, ok := b[datalog.Variable("Y")].(int64); ok {
				got[pg.NodeID(id)] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("control(%d, Y): got %v, want %v", src, got, want)
		}
		for _, y := range want {
			if !got[y] {
				t.Fatalf("control(%d, Y) misses %d", src, y)
			}
		}
	}
}

func TestProgramForGoal(t *testing.T) {
	for pred, want := range map[string]bool{
		"control": true, "ccand": true, "accown": true, "closelink": true,
		"clcand": true, "company": true, "person": true, "own": true,
		"unknown": false, "partnerof": false,
	} {
		if _, ok := ProgramForGoal(pred); ok != want {
			t.Errorf("ProgramForGoal(%q) = %v, want %v", pred, ok, want)
		}
	}
}

// TestGoalEnginesLoadPruned pins where a goal engine prunes the relational
// image: a control goal never reads a node's properties, so its engine holds
// none; a goal on company/5 answers them whole; and an engine with
// provenance, whose derivation trees print leaf facts, holds them all.
func TestGoalEnginesLoadPruned(t *testing.T) {
	g, b := pg.Figure2()
	p2, c5 := int64(b.ID("P2")), int64(b.ID("C5"))
	names := func(e *datalog.Engine, pred string) map[any]bool {
		out := map[any]bool{}
		for _, f := range e.Facts(pred) {
			out[f.Args[1]] = true
		}
		return out
	}
	control := datalog.Atom{Pred: "control", Terms: []datalog.Term{datalog.Int(p2), datalog.Variable("Y")}}
	// Goal hands out no engine without provenance, so this reads the one
	// its goal ran on before it goes back to the free list.
	_, res, e, err := Control.goal(context.Background(), g, control, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(e, "person"); len(got) != 1 || !got[""] {
		t.Errorf("control goal loaded person names %v, want none", got)
	}
	if len(res.Answers) != 3 {
		t.Errorf("control(P2, Y) = %v, want 3 answers", res.Answers)
	}

	res, err = EvalGoal(context.Background(), g, ControlProgram, control, datalog.WithProvenance())
	if err != nil {
		t.Fatal(err)
	}
	if got := names(res.Engine, "person"); !got["P2"] {
		t.Errorf("provenance engine loaded person names %v, want P2's", got)
	}

	company := datalog.Atom{Pred: "company", Terms: []datalog.Term{datalog.Int(c5),
		datalog.Variable("N"), datalog.Variable("B"), datalog.Variable("A"), datalog.Variable("S")}}
	res, err = EvalGoal(context.Background(), g, ControlProgram, company)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0]["N"] != "C5" {
		t.Errorf("company(C5, N, B, A, S) = %v, want its name", res.Answers)
	}
}
