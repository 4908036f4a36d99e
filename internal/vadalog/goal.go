package vadalog

import (
	"context"
	"errors"
	"sort"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// Goal-oriented evaluation: the entry point behind every demand-driven read
// path (/v1/query and the point forms of the reasoning endpoints). EvalGoal
// rewrites the program with magic sets when the goal has bound arguments the
// rewrite can exploit, and transparently falls back to full bottom-up
// evaluation when the program is outside the demandable fragment — the
// answers are the same either way, only the amount of derived state differs.

// GoalModeMagic and GoalModeFull report how a goal was evaluated.
const (
	GoalModeMagic = "magic"
	GoalModeFull  = "full"
)

// GoalResult carries the answers of one goal evaluation.
type GoalResult struct {
	// Answers holds one binding of the goal's free variables per answer,
	// deduplicated and deterministic. For predicates holding a monotone
	// aggregate (accown), answers report the final per-group totals, not the
	// intermediate values the chase materializes along the way.
	Answers []datalog.Binding
	// Mode is GoalModeMagic when demand transformation ran, GoalModeFull
	// after an ErrNotDemandable fallback.
	Mode string
	// Engine is the engine the goal ran on, exposed for explanation
	// (ExplainTree) and stats.
	Engine *datalog.Engine
	// RunErr is the chase error, if any: a budget exhaustion leaves the
	// partial answers readable, exactly like Reasoner.Run.
	RunErr error
}

// ProgramForGoal selects the built-in rule program defining a goal
// predicate. The extensional predicates of the relational image (company,
// person, own) resolve to the control program — any program works, the goal
// is answered from the asserted facts alone.
func ProgramForGoal(pred string) (string, bool) {
	switch pred {
	case "control", "ccand", "company", "person", "own":
		return ControlProgram, true
	case "accown", "closelink", "clcand":
		return CloseLinkProgram, true
	default:
		return "", false
	}
}

// EvalGoal evaluates one goal atom over the relational image of g under the
// given program source. The demand transformation is attempted first; a
// typed refusal (ErrNotDemandable) downgrades to full evaluation with the
// mode reported in the result. Any other construction or parse error is
// returned as-is.
func EvalGoal(ctx context.Context, g pg.View, progSrc string, goal datalog.Atom, opts ...datalog.Option) (*GoalResult, error) {
	prog, err := datalog.Parse(progSrc)
	if err != nil {
		return nil, err
	}
	res := &GoalResult{Mode: GoalModeMagic}
	e, err := datalog.NewGoalEngine(prog, goal, opts...)
	if err != nil {
		var nd *datalog.ErrNotDemandable
		if !errors.As(err, &nd) {
			return nil, err
		}
		res.Mode = GoalModeFull
		if e, err = datalog.NewEngine(prog, opts...); err != nil {
			return nil, err
		}
	}
	e.AssertAll(relstore.CompanyGraphFacts(g))
	res.Engine = e
	res.RunErr = e.RunContext(ctx)
	res.Answers = finalizeAnswers(prog, goal, e)
	return res, nil
}

// finalizeAnswers extracts the goal's answers from a finished engine. For
// goal predicates carrying a monotone aggregate in some head position, the
// chase's fact store holds every intermediate total; the meaningful answers
// are the per-group maxima (the same reduction ivm and AccumulatedOwnership
// apply), unified back against the goal atom.
func finalizeAnswers(prog *datalog.Program, goal datalog.Atom, e *datalog.Engine) []datalog.Binding {
	aggPos := aggregatePositions(prog, goal.Pred, len(goal.Terms))
	if len(aggPos) == 0 {
		return e.Query(goal)
	}
	pos := aggPos[0]
	groupCols := make([]int, 0, len(goal.Terms)-1)
	for i := range goal.Terms {
		if i != pos {
			groupCols = append(groupCols, i)
		}
	}
	var out []datalog.Binding
	for _, f := range e.MaxByGroup(goal.Pred, pos, groupCols...) {
		if b, ok := datalog.UnifyFact(goal, f); ok {
			out = append(out, b)
		}
	}
	return out
}

// aggregatePositions finds the head argument positions of pred that hold a
// monotone-aggregate target anywhere in the program, sorted.
func aggregatePositions(prog *datalog.Program, pred string, arity int) []int {
	set := map[int]bool{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Kind != datalog.LitAgg {
				continue
			}
			for _, h := range r.Head {
				if h.Pred != pred || len(h.Terms) != arity {
					continue
				}
				for i, t := range h.Terms {
					if v, ok := t.(datalog.Variable); ok && v == l.Var {
						set[i] = true
					}
				}
			}
		}
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
