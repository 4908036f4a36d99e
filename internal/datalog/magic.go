// Demand transformation (magic sets): given a goal atom with bound
// arguments — control(4, Y), accown(4, Y, W) — MagicRewrite produces a
// program whose bottom-up evaluation derives only the facts relevant to that
// goal, instead of the whole fixpoint. The rewrite is the classic adorned
// magic-sets construction:
//
//   - every intensional predicate reachable from the goal is specialized per
//     binding pattern ("adornment": one 'b'/'f' per argument position, e.g.
//     ccand#bf);
//   - a magic predicate per adorned predicate (magic#ccand#bf) carries the
//     demanded bound-argument tuples, seeded with the goal's constants;
//   - each rule defining an adorned predicate is guarded by its magic atom,
//     and for every intensional body atom a magic rule propagates demand
//     sideways through the bound prefix of the body.
//
// Sideways information passing is binding-aware: body atoms with more bound
// argument positions join first, so a goal bound on the second argument of a
// recursive predicate (control(X, 4) — "who controls 4?") propagates demand
// through the reverse ownership closure rather than degenerating to a full
// scan.
//
// Monotonic aggregates stay inside the demandable fragment under one
// condition, checked per rule: every bound head position must be a group-by
// position of the aggregation (never the aggregate target). Restricting
// evaluation to a subset of groups then drops no contribution of a retained
// group — the per-group totals of the demanded cone equal the full chase's
// (see DESIGN.md §13 for the argument). Rules outside the fragment —
// negation over intensional predicates, existential head variables, an
// aggregate target in a bound position — are refused with a typed
// ErrNotDemandable, and callers fall back to full evaluation.
//
// The rewritten program is ordinary Datalog: the existing semi-naive,
// indexed engine evaluates it unchanged, so Budget, RunContext,
// stats, hooks and provenance all keep working.
package datalog

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// ErrNotDemandable reports a goal or program outside the magic-sets fragment:
// callers should fall back to a full evaluation of the original program.
type ErrNotDemandable struct{ Reason string }

func (e *ErrNotDemandable) Error() string {
	return "datalog: goal not demandable: " + e.Reason +
		" (demand would be unsound or empty there; evaluate the full program instead)"
}

// ParseGoal parses a single goal atom in the concrete syntax, e.g.
// "control(4, Y)" or "accown(4, Y, W).". Upper-case (or '_') terms are free
// variables; constants are bound arguments. Integral numeric literals
// normalize to int64, matching the node identifiers of the relational image
// (relstore emits ids as int64, and the engine's term encoding keeps int64
// and float64 distinct).
func ParseGoal(src string) (Atom, error) {
	lx := &lexer{src: src, line: 1}
	toks, err := lx.lex()
	if err != nil {
		return Atom{}, err
	}
	p := &parser{toks: toks}
	a, err := p.atom()
	if err != nil {
		return Atom{}, err
	}
	if p.isPunct(".") {
		p.next()
	}
	if !p.atEOF() {
		t := p.cur()
		return Atom{}, fmt.Errorf("datalog: line %d: goal must be a single atom, got trailing %q", t.line, tokenText(t))
	}
	for i, t := range a.Terms {
		if c, ok := t.(Constant); ok {
			if f, ok := c.Value.(float64); ok && f == math.Trunc(f) && math.Abs(f) < 1e15 {
				a.Terms[i] = Constant{Value: int64(f)}
			}
		}
	}
	return a, nil
}

// Demand is the output of MagicRewrite: the rewritten program, the magic
// seed fact carrying the goal's bound arguments (assert it before running),
// and the goal atom to Query answers with — the rewrite derives the goal's
// own binding pattern under the goal's predicate name, so answer extraction
// is identical to the full-evaluation path.
type Demand struct {
	Program *Program
	Seed    Fact
	Goal    Atom
}

// adornOf renders the binding pattern of an atom under the given bound
// variable set: 'b' where the term is a constant or a bound variable, 'f'
// otherwise.
func adornOf(a Atom, bound map[Variable]bool) string {
	b := make([]byte, len(a.Terms))
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			b[i] = 'b'
		case Variable:
			if bound[tt] {
				b[i] = 'b'
			} else {
				b[i] = 'f'
			}
		default:
			b[i] = 'f'
		}
	}
	return string(b)
}

// The '#' separator cannot appear in parsed predicate names (the lexer
// treats it as punctuation), so adorned and magic predicates can never
// collide with user predicates.
func adornedName(pred, adorn string) string { return pred + "#" + adorn }
func magicName(pred, adorn string) string   { return "magic#" + pred + "#" + adorn }

// boundTerms projects an atom's terms at the adornment's 'b' positions.
func boundTerms(a Atom, adorn string) []Term {
	var out []Term
	for i, t := range a.Terms {
		if adorn[i] == 'b' {
			out = append(out, t)
		}
	}
	return out
}

func hasBound(adorn string) bool { return strings.ContainsRune(adorn, 'b') }

// rewriter carries the worklist state of one MagicRewrite.
type rewriter struct {
	goal    string // adornedName of the goal's predicate and binding pattern
	idb     map[string]bool
	byPred  map[string][]Rule // single-head rules, split from the original
	done    map[string]bool   // adornedName(pred, adorn) processed
	queue   []adornTask
	rules   []Rule
	seenKey map[string]bool // rule-string dedup (shared sub-demands)
}

type adornTask struct{ pred, adorn string }

// name is the relation an adorned predicate is derived into: the goal's own
// predicate and binding pattern keep the goal's name, so the demanded
// answers land where the caller reads them; any other is adorned.
func (rw *rewriter) name(pred, adorn string) string {
	if n := adornedName(pred, adorn); n != rw.goal {
		return n
	}
	return pred
}

// MagicRewrite builds the demand-transformed program for a goal. The goal
// needs at least one bound (constant) argument — an all-free goal demands
// everything, which is exactly the full evaluation the caller should run
// instead.
func MagicRewrite(prog *Program, goal Atom) (*Demand, error) {
	if len(goal.Terms) == 0 {
		return nil, &ErrNotDemandable{Reason: fmt.Sprintf("goal %s has no arguments", goal.Pred)}
	}
	goalAdorn := adornOf(goal, nil)
	if !hasBound(goalAdorn) {
		return nil, &ErrNotDemandable{Reason: fmt.Sprintf("goal %s has no bound arguments", goal)}
	}

	rw := &rewriter{
		goal:    adornedName(goal.Pred, goalAdorn),
		idb:     prog.HeadPreds(),
		byPred:  map[string][]Rule{},
		done:    map[string]bool{},
		seenKey: map[string]bool{},
	}
	// Split multi-head rules: each head atom gets its own copy. Sound for the
	// demanded fragment because existential heads (whose Skolemized nulls are
	// shared across the head atoms) are refused below.
	for _, r := range prog.Rules {
		for _, h := range r.Head {
			rw.byPred[h.Pred] = append(rw.byPred[h.Pred], Rule{Head: []Atom{h}, Body: r.Body, Label: r.Label})
		}
	}

	rw.demand(goal.Pred, goalAdorn)
	for len(rw.queue) > 0 {
		t := rw.queue[0]
		rw.queue = rw.queue[1:]
		if err := rw.process(t); err != nil {
			return nil, err
		}
	}

	return &Demand{
		Program: &Program{Rules: rw.rules},
		Seed:    seedOf(goal, goalAdorn),
		Goal:    goal,
	}, nil
}

// seedOf is the magic seed of a goal under its adornment: the goal's
// constants, under the magic predicate of its binding pattern.
func seedOf(goal Atom, adorn string) Fact {
	args := make([]any, 0, len(goal.Terms))
	for _, t := range goal.Terms {
		if c, ok := t.(Constant); ok {
			args = append(args, c.Value)
		}
	}
	return Fact{Pred: magicName(goal.Pred, adorn), Args: args}
}

// CompiledGoal is the demand rewrite of a program for one goal predicate and
// binding pattern, compiled once. The rewrite depends on nothing else — the
// seed fact carries the goal's constants — so every goal of that shape
// instantiates it. Like Compiled it is immutable.
type CompiledGoal struct {
	plan  *Compiled
	shape string // GoalShape of the goal compiled for
}

// GoalShape names what the demand rewrite of a goal depends on: its
// predicate and which of its arguments are constants ("control#bf" for
// control(4, Y)).
func GoalShape(goal Atom) string { return adornedName(goal.Pred, adornOf(goal, nil)) }

// CompileGoal rewrites prog for the predicate and binding pattern of goal
// (MagicRewrite) and compiles the result. A goal outside the demandable
// fragment yields MagicRewrite's *ErrNotDemandable.
func CompileGoal(prog *Program, goal Atom) (*CompiledGoal, error) {
	d, err := MagicRewrite(prog, goal)
	if err != nil {
		return nil, err
	}
	c, err := Compile(d.Program)
	if err != nil {
		return nil, err
	}
	return &CompiledGoal{plan: c, shape: GoalShape(goal)}, nil
}

// NewEngine instantiates an engine for goal and asserts its magic seed. The
// goal must have the shape g was compiled for.
func (g *CompiledGoal) NewEngine(goal Atom, with ...Option) (*Engine, error) {
	e := g.plan.NewEngine(with...)
	if err := g.Seed(e, goal); err != nil {
		return nil, err
	}
	return e, nil
}

// Seed asserts goal's magic seed into e, an empty engine of g: one
// NewEngine made, or one of g's that Reset re-armed. The goal must have the
// shape g was compiled for.
func (g *CompiledGoal) Seed(e *Engine, goal Atom) error {
	adorn := adornOf(goal, nil)
	if adornedName(goal.Pred, adorn) != g.shape {
		return fmt.Errorf("datalog: goal %s is not of the compiled shape %s", goal, g.shape)
	}
	if e.plan != g.plan {
		return fmt.Errorf("datalog: seeding goal %s into an engine of another program", goal)
	}
	e.Assert(seedOf(goal, adorn))
	return nil
}

// NewGoalEngine rewrites prog for the goal and prepares an engine over the
// rewritten program with the magic seed already asserted (CompileGoal, then
// CompiledGoal.NewEngine); callers AssertAll their extensional facts and Run
// as usual, then Query(goal) for answers.
func NewGoalEngine(prog *Program, goal Atom, opts ...Option) (*Engine, error) {
	g, err := CompileGoal(prog, goal)
	if err != nil {
		return nil, err
	}
	return g.NewEngine(goal, opts...)
}

// demand enqueues an adorned predicate for processing once.
func (rw *rewriter) demand(pred, adorn string) {
	key := adornedName(pred, adorn)
	if rw.done[key] {
		return
	}
	rw.done[key] = true
	rw.queue = append(rw.queue, adornTask{pred: pred, adorn: adorn})
}

// process emits the rules of one adorned predicate: the extensional import
// (facts asserted under the original name flow into the demanded relation),
// then one guarded, adorned copy of every defining rule plus the magic rules
// propagating demand into its intensional body atoms.
func (rw *rewriter) process(t adornTask) error {
	// Extensional import: magic#p#a(bound...), p(args...) -> p#a(args...).
	// For predicates that are never asserted the import rule is a no-op; for
	// mixed intensional/extensional predicates it scopes the stored facts
	// into the demanded relation. The goal's own relation, which keeps the
	// goal's name, holds its stored facts already.
	if name := rw.name(t.pred, t.adorn); name != t.pred {
		vars := freshVars(len(t.adorn))
		imp := Rule{
			Head:  []Atom{{Pred: name, Terms: vars}},
			Body:  []Literal{{Kind: LitAtom, Atom: Atom{Pred: t.pred, Terms: vars}}},
			Label: "magic-import " + name,
		}
		if hasBound(t.adorn) {
			guard := Literal{Kind: LitAtom, Atom: Atom{
				Pred:  magicName(t.pred, t.adorn),
				Terms: boundTerms(Atom{Terms: vars}, t.adorn),
			}}
			imp.Body = append([]Literal{guard}, imp.Body...)
		}
		rw.emit(imp)
	}

	for _, r := range rw.byPred[t.pred] {
		if len(r.Head[0].Terms) != len(t.adorn) {
			continue // arity mismatch: cannot produce facts matching this goal shape
		}
		if err := rw.adornRule(r, t.pred, t.adorn); err != nil {
			return err
		}
	}
	return nil
}

// emit appends a rewritten rule, deduplicating structurally identical ones
// (two adornments of one predicate demand the same magic rule through
// shared prefixes).
func (rw *rewriter) emit(r Rule) {
	key := r.String()
	if rw.seenKey[key] {
		return
	}
	rw.seenKey[key] = true
	rw.rules = append(rw.rules, r)
}

// adornRule rewrites one defining rule of pred under the adornment: computes
// a binding-aware body order, adorns and renames intensional body atoms,
// emits their magic rules, and guards the rule itself with its magic atom.
func (rw *rewriter) adornRule(r Rule, pred, adorn string) error {
	head := r.Head[0]
	bound := map[Variable]bool{}
	for i, tm := range head.Terms {
		if adorn[i] == 'b' {
			if v, ok := tm.(Variable); ok {
				bound[v] = true
			}
		}
	}

	// Refuse existential heads: the chase Skolemizes them over the rule's
	// frontier and index, which the rewrite would reshuffle — the invented
	// nulls of goal-mode and full-mode runs would not coincide.
	bindable := map[Variable]bool{}
	for _, l := range r.Body {
		switch l.Kind {
		case LitAtom:
			bodyVarsOfAtom(l.Atom, bindable)
		case LitAssign, LitAgg:
			bindable[l.Var] = true
		}
	}
	for _, tm := range head.Terms {
		if v, ok := tm.(Variable); ok && !bindable[v] {
			return &ErrNotDemandable{Reason: fmt.Sprintf("rule %q has existential head variable %s", r.Label, v)}
		}
	}

	// Aggregate soundness: a bound head position must be a group-by position
	// of the aggregation. The engine groups contributions by the head atom's
	// non-target arguments, so demand restricted to bound group values keeps
	// every contribution of every retained group; a bound target position
	// would instead prune contributions and corrupt the total.
	for _, l := range r.Body {
		if l.Kind != LitAgg {
			continue
		}
		for i, tm := range head.Terms {
			if v, ok := tm.(Variable); ok && v == l.Var && adorn[i] == 'b' {
				return &ErrNotDemandable{Reason: fmt.Sprintf(
					"rule %q binds aggregate target %s in a demanded position", r.Label, v)}
			}
		}
	}

	order, _, err := planOrder(r, bound, -1, boundPositions)
	if err != nil {
		return &ErrNotDemandable{Reason: fmt.Sprintf("rule %q: cannot order body literals", r.Label)}
	}

	guard := Literal{Kind: LitAtom, Atom: Atom{
		Pred:  magicName(pred, adorn),
		Terms: boundTerms(head, adorn),
	}}

	newBody := make([]Literal, 0, len(r.Body)+1)
	if hasBound(adorn) {
		newBody = append(newBody, guard)
	}
	// prefix holds the adorned body literals accumulated so far, in the
	// chosen order — the sideways-information-passing context of each magic
	// rule.
	var prefix []Literal
	cur := map[Variable]bool{}
	for v := range bound {
		cur[v] = true
	}
	for _, li := range order {
		l := r.Body[li]
		switch l.Kind {
		case LitAtom:
			if rw.idb[l.Atom.Pred] {
				subAdorn := adornOf(l.Atom, cur)
				rw.demand(l.Atom.Pred, subAdorn)
				if hasBound(subAdorn) {
					mr := Rule{
						Head:  []Atom{{Pred: magicName(l.Atom.Pred, subAdorn), Terms: boundTerms(l.Atom, subAdorn)}},
						Body:  make([]Literal, 0, len(prefix)+1),
						Label: "magic " + adornedName(l.Atom.Pred, subAdorn) + " from " + r.Label,
					}
					if hasBound(adorn) {
						mr.Body = append(mr.Body, guard)
					}
					mr.Body = append(mr.Body, prefix...)
					if !trivialMagic(mr) {
						rw.emit(mr)
					}
				}
				l.Atom = Atom{Pred: rw.name(l.Atom.Pred, subAdorn), Terms: l.Atom.Terms}
			}
			bodyVarsOfAtom(l.Atom, cur)
		case LitNot:
			if rw.idb[l.Atom.Pred] {
				return &ErrNotDemandable{Reason: fmt.Sprintf(
					"rule %q negates intensional predicate %s", r.Label, l.Atom.Pred)}
			}
		case LitAssign, LitAgg:
			cur[l.Var] = true
		}
		prefix = append(prefix, l)
		newBody = append(newBody, l)
	}

	rw.emit(Rule{
		Head:  []Atom{{Pred: rw.name(pred, adorn), Terms: head.Terms}},
		Body:  newBody,
		Label: r.Label,
	})
	return nil
}

// trivialMagic reports a self-propagating magic rule (head identical to its
// only body literal): it derives nothing and would only add noise.
func trivialMagic(r Rule) bool {
	if len(r.Body) != 1 || r.Body[0].Kind != LitAtom {
		return false
	}
	return r.Head[0].String() == r.Body[0].Atom.String()
}

// boundPositions scores an atom by its constant and bound argument
// positions: the magic rewrite's sideways information passing.
func boundPositions(a Atom, bound map[Variable]bool) int {
	c := 0
	for _, tm := range a.Terms {
		switch tt := tm.(type) {
		case Constant:
			c++
		case Variable:
			if bound[tt] {
				c++
			}
		}
	}
	return c
}

// freshVars invents n distinct head variables for generated rules.
func freshVars(n int) []Term {
	out := make([]Term, n)
	for i := range out {
		out[i] = Variable(fmt.Sprintf("MGv%d", i))
	}
	return out
}

var adornSuffixRe = regexp.MustCompile(`#[bf]+\(`)

// StripDemandMarkers cleans a derivation-tree rendering (ExplainTree) of a
// goal-mode engine: magic and import bookkeeping lines drop out and
// adorned predicate names lose their #bf suffixes, so the "why" of a
// demand-driven answer reads exactly like the full chase's.
func StripDemandMarkers(lines []string) []string {
	out := make([]string, 0, len(lines))
	var lastKept string
	for _, line := range lines {
		t := strings.TrimLeft(line, " ")
		if strings.HasPrefix(t, "magic#") {
			continue
		}
		if strings.Contains(line, "[by magic-import") {
			continue
		}
		clean := adornSuffixRe.ReplaceAllStringFunc(line, func(m string) string { return "(" })
		// Import hops repeat the fact one level deeper; collapse
		// consecutive duplicates of the same atom text.
		if factText(clean) != "" && factText(clean) == factText(lastKept) {
			continue
		}
		lastKept = clean
		out = append(out, clean)
	}
	return out
}

// factText extracts the atom portion of an ExplainTree line ("fact   [by …]").
func factText(line string) string {
	t := strings.TrimLeft(line, " ")
	if i := strings.Index(t, "   ["); i > 0 {
		return t[:i]
	}
	return ""
}
