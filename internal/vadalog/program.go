package vadalog

import (
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"weak"

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
	// plans maps a goal shape (datalog.GoalShape) to its *goalPlan.
	plans sync.Map
}

// goalPlan is the memo entry of one goal shape: its demand plan, nil when
// the goal is answered by full evaluation, and the engines of its finished
// goals, whose buffers the next goal of the shape reuses.
type goalPlan struct {
	plan *datalog.CompiledGoal
	free scratch
}

// scratch is a free list of finished engines. It holds them through weak
// pointers, so an engine lies idle in it only until the next garbage
// collection: recycling saves a run of goals their allocations without
// adding to the heap a collection leaves live, which a sync.Pool, whose
// victims outlive one collection, would.
type scratch struct {
	mu   sync.Mutex
	free []weak.Pointer[datalog.Engine]
}

// take returns an idle engine, or nil when none is left.
func (s *scratch) take() *datalog.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	for n := len(s.free); n > 0; n = len(s.free) {
		e := s.free[n-1].Value()
		s.free = s.free[:n-1]
		if e != nil {
			return e
		}
	}
	return nil
}

// put returns a finished engine, which its caller no longer reads.
func (s *scratch) put(e *datalog.Engine) {
	s.mu.Lock()
	s.free = append(s.free, weak.Make(e))
	s.mu.Unlock()
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
	// Stats is the chase's report under datalog.WithStats, nil otherwise.
	Stats *datalog.ChaseStats
	// Engine is the engine the goal ran on, set only under
	// datalog.WithProvenance, for explanation (ExplainTree). Every other
	// goal's engine goes back to its plan's free list.
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
//
// The engine is one of the plan's finished engines, re-armed
// (datalog.Engine.Reset), when one is idle: the answers and stats are
// copied out, and the engine goes back for the next goal of the shape,
// unless it records provenance and the result hands it out.
func (p *Program) Goal(ctx context.Context, g pg.View, goal datalog.Atom, opts ...datalog.Option) (*GoalResult, error) {
	gp, res, e, err := p.goal(ctx, g, goal, opts)
	if err != nil {
		return nil, err
	}
	if e.RecordsProvenance() {
		res.Engine = e
	} else {
		gp.free.put(e)
	}
	return res, nil
}

// goal runs goal on an engine of its plan, taken from the plan's free list
// when one is idle, and returns the plan, the result and the engine.
func (p *Program) goal(ctx context.Context, g pg.View, goal datalog.Atom, opts []datalog.Option) (*goalPlan, *GoalResult, *datalog.Engine, error) {
	gp, err := p.goalPlan(goal)
	if err != nil {
		return nil, nil, nil, err
	}
	res := &GoalResult{Mode: GoalModeMagic}
	if gp.plan == nil {
		res.Mode = GoalModeFull
	}
	e := gp.free.take()
	switch {
	case e != nil:
		e.Reset(opts...)
		if gp.plan != nil {
			err = gp.plan.Seed(e, goal)
		}
	case gp.plan != nil:
		e, err = gp.plan.NewEngine(goal, opts...)
	default:
		e = p.full.NewEngine(opts...)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	e.Prune(goal.Pred)
	relstore.Load(e, g)
	res.RunErr = e.RunContext(ctx)
	res.Answers = e.Query(goal)
	res.Stats = e.Stats()
	return gp, res, e, nil
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

// goalPlan returns the memo entry of goal's shape, compiling its demand plan
// on first use. A goal of a shape the program does not define gets an entry
// of its own, compiled on every call.
func (p *Program) goalPlan(goal datalog.Atom) (*goalPlan, error) {
	if n, ok := p.arity[goal.Pred]; !ok || n != len(goal.Terms) {
		plan, err := compileGoal(p.prog, goal)
		return &goalPlan{plan: plan}, err
	}
	shape := datalog.GoalShape(goal)
	if gp, ok := p.plans.Load(shape); ok {
		return gp.(*goalPlan), nil
	}
	plan, err := compileGoal(p.prog, goal)
	if err != nil {
		return nil, err
	}
	stored, _ := p.plans.LoadOrStore(shape, &goalPlan{plan: plan})
	return stored.(*goalPlan), nil
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
