package vadalog

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// The program table: every chase of the module starts from one Program, a
// rule text compiled once, and reaches a loaded engine through one of its
// three builders. This file owns the ordering rules those builders keep:
//
//   - a shipped text is parsed and compiled once per process (the programs
//     memo), and so is its demand plan for every goal shape asked of it;
//   - Prune is set before the load it governs, so a goal engine streams the
//     relational image column-pruned to what its plan can observe;
//   - an engine is returned loaded but not run, so that its caller
//     registers builtins and asserts its own facts before RunContext.
//
// The binding of a view to an engine — which part of the §3 relational
// image a chase reads — lives here too: Goal and Engine stream the whole
// image (relstore.Load), ScopedEngine a step's cone (relstore.LoadScope).

// Program is a rule text parsed and compiled whole, with the demand plan of
// every goal shape asked of it so far and the text's FNV-64a hash. It is
// immutable apart from its plan memo, and safe for concurrent use.
type Program struct {
	prog *datalog.Program
	full *datalog.Compiled
	hash uint64
	// arity holds the arity of every predicate prog mentions. Only goals of
	// those predicates and arities are memoized, which bounds the memo by
	// the program: a goal of any other shape is compiled on every call.
	arity map[string]int
	// plans maps a goal shape (datalog.GoalShape) to its
	// *datalog.CompiledGoal, nil when the goal is answered by full
	// evaluation.
	plans sync.Map
}

// Compile parses and compiles a caller's program text. A text that does not
// parse, or that the engine refuses (an invalid rule, unstratifiable
// negation), is an error. The result is not memoized: each call compiles.
func Compile(src string) (*Program, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return nil, err
	}
	full, err := datalog.Compile(prog)
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(src))
	p := &Program{prog: prog, full: full, hash: h.Sum64(), arity: map[string]int{}}
	for _, r := range prog.Rules {
		for _, hd := range r.Head {
			p.arity[hd.Pred] = len(hd.Terms)
		}
		for _, l := range r.Body {
			if l.Kind == datalog.LitAtom || l.Kind == datalog.LitNot {
				p.arity[l.Atom.Pred] = len(l.Atom.Terms)
			}
		}
	}
	return p, nil
}

// The shipped programs, compiled when the package initializes: the control
// program (Algorithm 5), the close-link program (Algorithm 6), and the
// what-if step's baseline and maintenance programs (MaintenanceProgram).
var (
	Control     = mustShip(ControlProgram)
	CloseLink   = mustShip(CloseLinkProgram)
	Baseline    = mustShip(baselineProgram)
	Maintenance = mustShip(maintenanceProgram)
)

// programs memoizes the shipped programs by text: this package's programs,
// the Reasoner's task sets, the generic pipeline and the what-if step's
// programs. No text a client supplies reaches it, so it holds at most a few
// dozen entries.
var programs sync.Map // string → *Program

func mustShip(src string) *Program {
	p, err := shipped(src)
	if err != nil {
		panic(err)
	}
	return p
}

// shipped returns the memo entry of src, compiling it on first use. Two
// first uses may both compile; one result is kept.
func shipped(src string) (*Program, error) {
	if p, ok := programs.Load(src); ok {
		return p.(*Program), nil
	}
	p, err := Compile(src)
	if err != nil {
		return nil, err
	}
	stored, _ := programs.LoadOrStore(src, p)
	return stored.(*Program), nil
}

// ForGoal selects the shipped program defining a goal predicate. The
// extensional predicates of the relational image (company, person, own)
// resolve to the control program — any program works, the goal is answered
// from the asserted facts alone.
func ForGoal(pred string) (*Program, bool) {
	switch pred {
	case "control", "ccand", "company", "person", "own":
		return Control, true
	case "accown", "closelink", "clcand":
		return CloseLink, true
	default:
		return nil, false
	}
}

// Hash is the FNV-64a hash of the program's text: a cache key names the
// program by it.
func (p *Program) Hash() uint64 { return p.hash }

// HeadPreds returns the predicates the program derives.
func (p *Program) HeadPreds() map[string]bool { return p.prog.HeadPreds() }

// Engine returns an engine of the whole program with v's relational image
// loaded, not yet run.
func (p *Program) Engine(v pg.View, opts ...datalog.Option) *datalog.Engine {
	e := p.full.NewEngine(opts...)
	relstore.Load(e, v)
	return e
}

// ScopedEngine returns an engine of the whole program with the part of v's
// image a scoped step reads loaded (relstore.LoadScope): the rows of nodes
// and the own rows of sources. It is not yet run.
func (p *Program) ScopedEngine(v pg.View, nodes, sources map[pg.NodeID]bool, opts ...datalog.Option) *datalog.Engine {
	e := p.full.NewEngine(opts...)
	relstore.LoadScope(e, v, nodes, sources)
	return e
}

// Goal-oriented evaluation: the entry point behind every demand-driven read
// path (/v1/query and the point forms of the reasoning endpoints). Goal
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

// Goal answers one goal atom over the relational image of g, on an engine
// of the goal shape's memoized demand plan, or of the whole program when the
// goal is outside the demandable fragment (the mode is reported in the
// result). The engine loads g's image streamed and pruned to what its plan
// can observe, the goal's own relation whole. A tripped limit leaves the
// partial answers in the result with RunErr set.
func (p *Program) Goal(ctx context.Context, g pg.View, goal datalog.Atom, opts ...datalog.Option) (*GoalResult, error) {
	plan, err := p.goalPlan(goal)
	if err != nil {
		return nil, err
	}
	res := &GoalResult{Mode: GoalModeMagic}
	var e *datalog.Engine
	if plan != nil {
		if e, err = plan.NewEngine(goal, opts...); err != nil {
			return nil, err
		}
	} else {
		res.Mode = GoalModeFull
		e = p.full.NewEngine(opts...)
	}
	e.Prune(goal.Pred)
	relstore.Load(e, g)
	res.Engine = e
	res.RunErr = e.RunContext(ctx)
	res.Answers = e.Query(goal)
	return res, nil
}

// EvalGoal is Goal for a program named by its text: ControlProgram and
// CloseLinkProgram reach their shipped entries, any other text is compiled
// on every call.
func EvalGoal(ctx context.Context, g pg.View, progSrc string, goal datalog.Atom, opts ...datalog.Option) (*GoalResult, error) {
	var p *Program
	switch progSrc {
	case ControlProgram:
		p = Control
	case CloseLinkProgram:
		p = CloseLink
	default:
		var err error
		if p, err = Compile(progSrc); err != nil {
			return nil, err
		}
	}
	return p.Goal(ctx, g, goal, opts...)
}

// goalPlan returns the memoized demand plan of goal's shape (nil: full
// evaluation), compiling it on first use.
func (p *Program) goalPlan(goal datalog.Atom) (*datalog.CompiledGoal, error) {
	if n, ok := p.arity[goal.Pred]; !ok || n != len(goal.Terms) {
		return compileGoal(p.prog, goal)
	}
	shape := datalog.GoalShape(goal)
	if plan, ok := p.plans.Load(shape); ok {
		return plan.(*datalog.CompiledGoal), nil
	}
	plan, err := compileGoal(p.prog, goal)
	if err != nil {
		return nil, err
	}
	stored, _ := p.plans.LoadOrStore(shape, plan)
	return stored.(*datalog.CompiledGoal), nil
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
