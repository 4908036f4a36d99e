package vadalog

import (
	"context"
	"errors"
	"sync"

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
	// deduplicated and deterministic. A predicate holding a monotone
	// aggregate (accown) answers one binding per group, at its final total.
	Answers []datalog.Binding
	// Mode is GoalModeMagic when demand transformation ran, GoalModeFull
	// after an ErrNotDemandable fallback.
	Mode string
	// Engine is the engine the goal ran on, exposed for explanation
	// (ExplainTree) and stats. Unless it records provenance, it loaded the
	// relational image pruned (datalog.Engine.Prune): a relation other than
	// the goal's holds "" where the program never reads.
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
//
// A program ProgramForGoal names (ControlProgram, CloseLinkProgram) is
// parsed and compiled once per process, and so is its demand plan for each
// goal shape asked of it; any other text is parsed and compiled on every
// call.
func EvalGoal(ctx context.Context, g pg.View, progSrc string, goal datalog.Atom, opts ...datalog.Option) (*GoalResult, error) {
	if progSrc == ControlProgram || progSrc == CloseLinkProgram {
		sp, err := shipped(progSrc)
		if err != nil {
			return nil, err
		}
		plan, err := sp.goalPlan(goal)
		if err != nil {
			return nil, err
		}
		return runGoal(ctx, g, goal, plan, sp.full, opts)
	}
	prog, err := datalog.Parse(progSrc)
	if err != nil {
		return nil, err
	}
	return EvalParsedGoal(ctx, g, prog, goal, opts...)
}

// EvalParsedGoal is EvalGoal over a program its caller has parsed already.
// It compiles the program for the goal on every call.
func EvalParsedGoal(ctx context.Context, g pg.View, prog *datalog.Program, goal datalog.Atom, opts ...datalog.Option) (*GoalResult, error) {
	plan, err := compileGoal(prog, goal)
	if err != nil {
		return nil, err
	}
	var full *datalog.Compiled
	if plan == nil {
		if full, err = datalog.Compile(prog); err != nil {
			return nil, err
		}
	}
	return runGoal(ctx, g, goal, plan, full, opts)
}

// compileGoal is datalog.CompileGoal with a refusal (ErrNotDemandable) turned
// into a nil plan: the goal is answered by full evaluation.
func compileGoal(prog *datalog.Program, goal datalog.Atom) (*datalog.CompiledGoal, error) {
	plan, err := datalog.CompileGoal(prog, goal)
	var nd *datalog.ErrNotDemandable
	if errors.As(err, &nd) {
		return nil, nil
	}
	return plan, err
}

// runGoal answers goal over g on an engine of the demand plan, or of full —
// the program compiled whole — when plan is nil. The engine loads g's
// relational image streamed and pruned to what the plan can observe, the
// goal's own relation whole.
func runGoal(ctx context.Context, g pg.View, goal datalog.Atom, plan *datalog.CompiledGoal, full *datalog.Compiled, opts []datalog.Option) (*GoalResult, error) {
	res := &GoalResult{Mode: GoalModeMagic}
	var e *datalog.Engine
	if plan != nil {
		var err error
		if e, err = plan.NewEngine(goal, opts...); err != nil {
			return nil, err
		}
	} else {
		res.Mode = GoalModeFull
		e = full.NewEngine(opts...)
	}
	e.Prune(goal.Pred)
	relstore.Load(e, g)
	res.Engine = e
	res.RunErr = e.RunContext(ctx)
	res.Answers = e.Query(goal)
	return res, nil
}

// programs memoizes the shipped programs by text: this package's programs,
// the Reasoner's task sets and the what-if step's programs derived from
// them. No text a client supplies reaches it, so it holds at most a few
// dozen entries.
var programs sync.Map // string → *shippedProgram

// shippedProgram is a shipped program text parsed and compiled whole, with
// the demand plan of every goal shape asked of it so far.
type shippedProgram struct {
	prog *datalog.Program
	full *datalog.Compiled
	// arity holds the arity of every predicate prog mentions. Only goals of
	// those predicates and arities are memoized, which bounds the memo by
	// the program: a goal of any other shape is compiled on every call.
	arity map[string]int
	// plans maps a goal shape (datalog.GoalShape) to its
	// *datalog.CompiledGoal, nil when the goal is answered by full
	// evaluation.
	plans sync.Map
}

// BaselinePlan returns the compiled baseline program (the rules of
// ControlProgram and CloseLinkProgram that derive ccand, control and
// accown); MaintenancePlan returns the compiled MaintenanceProgram. Both are
// compiled when the package initializes, so a what-if or ivm drain step
// looks up no text.
func BaselinePlan() *datalog.Compiled    { return baselineShipped.full }
func MaintenancePlan() *datalog.Compiled { return maintenanceShipped.full }

var baselineShipped, maintenanceShipped = mustShip(baselineProgram), mustShip(maintenanceProgram)

func mustShip(src string) *shippedProgram {
	sp, err := shipped(src)
	if err != nil {
		panic(err)
	}
	return sp
}

// shipped returns the memo entry of src, parsing and compiling it on first
// use. Two first uses may both compile; one result is kept.
func shipped(src string) (*shippedProgram, error) {
	if sp, ok := programs.Load(src); ok {
		return sp.(*shippedProgram), nil
	}
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	full, err := datalog.Compile(prog)
	if err != nil {
		return nil, err
	}
	sp := &shippedProgram{prog: prog, full: full, arity: map[string]int{}}
	for _, r := range prog.Rules {
		for _, h := range r.Head {
			sp.arity[h.Pred] = len(h.Terms)
		}
		for _, l := range r.Body {
			if l.Kind == datalog.LitAtom || l.Kind == datalog.LitNot {
				sp.arity[l.Atom.Pred] = len(l.Atom.Terms)
			}
		}
	}
	stored, _ := programs.LoadOrStore(src, sp)
	return stored.(*shippedProgram), nil
}

// goalPlan returns the memoized demand plan of goal's shape (nil: full
// evaluation), compiling it on first use.
func (sp *shippedProgram) goalPlan(goal datalog.Atom) (*datalog.CompiledGoal, error) {
	if n, ok := sp.arity[goal.Pred]; !ok || n != len(goal.Terms) {
		return compileGoal(sp.prog, goal)
	}
	shape := datalog.GoalShape(goal)
	if plan, ok := sp.plans.Load(shape); ok {
		return plan.(*datalog.CompiledGoal), nil
	}
	plan, err := compileGoal(sp.prog, goal)
	if err != nil {
		return nil, err
	}
	stored, _ := sp.plans.LoadOrStore(shape, plan)
	return stored.(*datalog.CompiledGoal), nil
}
