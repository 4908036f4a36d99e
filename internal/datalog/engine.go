package datalog

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"time"

	"vadalink/internal/faultinject"
)

// Builtin is a host function callable from rule bodies as #name(args...).
// The chase calls it on the goroutine that called Run; a panic in it reaches
// that caller.
type Builtin func(args []any) (any, error)

// options is the engine configuration the functional Options fill in.
type options struct {
	// MinAggDelta is the minimum improvement of a monotonic aggregate that
	// triggers a new derivation. On cyclic inputs (e.g. accumulated ownership
	// over share cycles) the exact fixpoint is a geometric limit, which the
	// chase reaches only to within MinAggDelta's tail. Zero means
	// DefaultMinAggDelta.
	MinAggDelta float64

	// MaxRounds bounds the total number of semi-naive rounds of one Run as
	// a safety net against diverging programs. Zero means DefaultMaxRounds.
	// Exceeding it yields a *BudgetExceededError with Limit == LimitRounds.
	MaxRounds int

	// Budget bounds the resources of one Run (derived facts, pending delta,
	// index memory, cancellation-check cadence); the wall-clock deadline
	// comes from the context passed to RunContext. The zero Budget imposes
	// no limits.
	Budget Budget

	// Naive disables semi-naive delta restriction: every round re-evaluates
	// every rule against the full store. Exists for the ablation benchmarks;
	// results are identical, only slower.
	Naive bool

	// Provenance records, for every derived fact, the rule and the body
	// facts that first produced it, enabling Explain — the paper's
	// explainability claim ("Vada-Link decisions are explainable and
	// unambiguous"). Costs memory proportional to the derived facts.
	Provenance bool

	// NoIndex disables the per-predicate positional hash indexes: lookup and
	// Query fall back to scanning every fact of the relation. This is the
	// pre-index baseline, kept for the differential test harness and as the
	// remedy a tripped Budget.MaxIndexBytes names.
	NoIndex bool

	// Stats enables ChaseStats collection during Run (see WithStats). When
	// false the engine pays only a nil check per chase job.
	Stats bool

	// Hook receives chase lifecycle events (see Hook and WithHook). The
	// zero Hook is inert.
	Hook Hook
}

// Derivation explains one derived fact: the rule that fired and the premises
// (body facts) of its first derivation.
type Derivation struct {
	Rule     string // the rule's label and text
	Premises []Fact
}

// Engine evaluates a Program over a growing fact store using a semi-naive
// bottom-up chase, stratified on negation.
//
// Concurrency contract: an Engine belongs to one goroutine at a time. Every
// method, the read-only accessors (Facts, Query, Has, Explain, ...) included,
// may build an index lazily or record a budget trip, so none is safe to call
// concurrently with another on the same Engine. Independent Engines run in
// parallel freely, engines of one Compiled program included.
type Engine struct {
	plan     *Compiled
	opts     options
	builtins map[string]Builtin

	// syms holds the values rows refer to by index (value.go); rels maps a
	// predicate to its relation, which chains the predicate's other arities.
	// spare holds the relations of the engine's last run, emptied by
	// Reset, for rel to take up again.
	syms  symtab
	rels  map[string]*relation
	spare map[relKey]*relation

	// aggs holds, by rule index, the state of the rule's aggregate (nil until
	// it first contributes). aggTabs holds the group tables by head predicate
	// and target positions (ruleMeta.aggKey): the aggregates of several rules
	// with one head share their groups.
	aggs    []*aggRule
	aggTabs map[string]*aggTable

	rounds   int // total semi-naive rounds of the last Run
	roundSeq int // numbers every runRound, for relation.seq

	// per-Run budget state: the run's context, the first budget violation
	// (sticky until the evaluation unwinds), and the derived-fact count.
	ctx          context.Context
	stopErr      *BudgetExceededError
	derivedCount int
	dupCount     int // emissions absorbed as already-known facts
	curStratum   int

	// stats is the live collector of the current Run (nil without
	// WithStats); lastStats is the frozen report of the last Run.
	stats     *statsCollector
	lastStats *ChaseStats

	// indexBytes is the estimated memory of all positional indexes, checked
	// against Budget.MaxIndexBytes.
	indexBytes int64

	// row is the scratch row a Fact of the API converts into.
	row []value

	// prov holds the first derivation per derived row (WithProvenance).
	prov map[rowRef]Derivation

	// prune is set by Prune: loads store "" at the plan's dead positions,
	// except in keep's relations.
	prune bool
	keep  string
}

// rowRef names a stored row: a premise of provenance.
type rowRef struct {
	r   *relation
	row int
}

// evalCtx is the evaluation state of one chase round (or one Query
// call): the cooperative-cancellation step counter, the frame of the chase
// job in flight (rule, plan, delta, slot binding and its undo trail), the
// scratch rows and keys emissions are built in, the round's delta, and the
// provenance premise stack of the rule instantiation in flight.
type evalCtx struct {
	e         *Engine
	sy        *symtab
	steps     int
	nextCheck int

	// The job in flight, set by evalJob: evalBody recurses over order with
	// nothing but a position, so a join level costs no argument copying.
	ri       int
	rule     *Rule
	meta     *ruleMeta
	order    []int // the plan being followed: meta.order or one of meta.deltaOrder
	delta    probe
	deltaLit int

	// The slot binding (slots.go): vals[s] holds variable s's value while
	// set[s]. trail lists the slots bound so far, in binding order; a join
	// level undoes its bindings by unwinding to the mark it took (see bind).
	vals  []value
	set   []bool
	trail []int

	// Scratch, reused across emissions: the head row of the emission in
	// flight (copied only for a new fact), an aggregate's group and
	// contributor rows, the argument stack of builtin calls, and the
	// frontier key.
	args, grow, crow, stack []value
	fkey                    []byte

	// candidates counts the facts offered to unification (ChaseStats). A
	// plain add per join level, folded into the report only under WithStats.
	candidates int64

	// touched lists the relations the round appended rows to (derive), whose
	// new rows are the round's delta; pending is their count, checked
	// against Budget.MaxDeltaQueue.
	touched []*relation
	pending int

	// aggTab and aggGroup name the aggregate group whose improvement the
	// head being fired records (aggTab nil otherwise): fireHead makes the
	// row it derives the group's current one.
	aggTab   *aggTable
	aggGroup int

	// provenance state: the rule being evaluated, the premise stack of the
	// evaluation in flight, and the prior contributions of the active
	// aggregate group.
	curRule     string
	curPremises []rowRef
	aggExtra    []rowRef
}

func (e *Engine) newEvalCtx() *evalCtx {
	return &evalCtx{e: e, sy: &e.syms, nextCheck: e.opts.Budget.checkEvery()}
}

// ruleMeta is the per-rule evaluation plan computed at engine construction.
type ruleMeta struct {
	order []int // body literal evaluation order of round 0 (no delta occurrence)
	// deltaOrder[i] is the order of the jobs whose body atom i is restricted
	// to a delta; nil where body literal i is not a positive atom.
	deltaOrder [][]int
	headVars   []Variable        // universally-quantified head variables, sorted
	existVars  map[Variable]bool // head variables that are existential
	aggLit     int               // body index of the aggregate literal, -1 if none
	aggHead    int               // head atom defining the aggregation group
	aggSkip    []bool            // positions of aggHead holding the aggregate target
	// aggKey names the group table of the rule's aggregate: aggHead's
	// predicate and target positions. aggArity is the width of a group row
	// (aggHead's other positions).
	aggKey   string
	aggArity int
	label    string // cached "label: rule text" for provenance

	// The slot form (compileRule): the number of variable slots, the
	// compiled body literals by body position, the compiled head atoms, and
	// the slot of each of headVars.
	nslots   int
	lits     []clit
	head     []catom
	frontier []int
}

// aggTable holds the monotonic aggregation groups of one head predicate and
// target positions: group g is row g of groups (the head atom's non-target
// arguments) with its running total. Keying on the head predicate (not the
// rule) lets the msum calls of several rules contribute to one total, as the
// paper requires for Algorithm 8 ("the two monotonic summations of Rules (2)
// and (3) contribute to the same total, one for each (F, y) pair").
type aggTable struct {
	groups tuples
	total  []float64
	init   []bool
	// rel is the head relation holding the target (nil when no head atom
	// mentions it), and head, by group, the row of rel recording the
	// group's current total (-1: none). An improvement supersedes that row,
	// so readers see one row per group (DESIGN.md §5).
	rel  *relation
	head []int
	// prov, by group under WithProvenance, accumulates the body facts of
	// every contribution, so aggregate-based decisions explain completely
	// (e.g. a control decision lists all the shareholdings in the sum, not
	// just the one that crossed the threshold).
	prov []aggProv
}

type aggProv struct {
	premises []rowRef
	seen     map[rowRef]bool
}

// aggRule is the state of one rule's aggregate: its group table, and its
// contributions, keyed by (group, contributor values...), each with the
// contributor's current contribution in cur.
type aggRule struct {
	tab     *aggTable
	contrib tuples
	cur     []float64
}

// Compiled is a program validated, planned, slot-compiled and stratified
// once (DESIGN.md §7.7). It is immutable: any number of engines, on any
// goroutines, instantiate it with NewEngine and never plan again. The
// Program it was compiled from must not change afterwards.
type Compiled struct {
	prog     *Program
	strata   [][]int // rule indices per stratum, in evaluation order
	ruleMeta []ruleMeta
	// syms holds the program's constants; an engine's table starts as it.
	syms symtab
	// live holds the observable positions of the extensional relations the
	// rules read, and heads the predicates the rules derive (liveness).
	live  map[relKey]uint64
	heads map[string]bool
}

// Compile validates and plans every rule of prog and stratifies it. It
// returns an error if a rule is invalid or negation is not stratifiable.
func Compile(prog *Program) (*Compiled, error) {
	c := &Compiled{prog: prog, ruleMeta: make([]ruleMeta, 0, len(prog.Rules))}
	for i, r := range prog.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		meta, err := planRule(r)
		if err != nil {
			return nil, fmt.Errorf("datalog: rule %d (%s): %w", i, r.Label, err)
		}
		compileRule(r, &meta, &c.syms)
		meta.label = r.Label + ": " + r.String()
		c.ruleMeta = append(c.ruleMeta, meta)
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	c.strata = strata
	c.heads = prog.HeadPreds()
	c.live = liveness(prog, c.heads)
	return c, nil
}

// NewEngine prepares a program for evaluation, configured by functional
// options (WithBudget, WithStats, WithProvenance, ...): Compile, then
// Compiled.NewEngine. It returns Compile's error.
func NewEngine(prog *Program, with ...Option) (*Engine, error) {
	c, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return c.NewEngine(with...), nil
}

// NewEngine instantiates an empty engine over the compiled program,
// configured by functional options.
func (c *Compiled) NewEngine(with ...Option) *Engine {
	e := &Engine{plan: c, rels: make(map[string]*relation)}
	e.arm(with)
	return e
}

// Reset re-arms e, an engine its caller has finished with, as its
// program's NewEngine(with...) would make it, except that it keeps the
// buffers of its relations: row arenas, dedup tables and positional index
// tables, which hold no pointers. Reset empties every relation, and the
// next load or chase takes a relation up again when it starts it, so a run
// over a registry of the same size allocates none of them (DESIGN.md
// §7.10). The symbol table starts again from the program's constants, as a
// fresh engine's does. Nothing read from e before Reset may be read after
// it, apart from what is already a copy: Query's bindings, the facts of
// Facts, and a Stats report.
func (e *Engine) Reset(with ...Option) {
	if e.spare == nil {
		e.spare = make(map[relKey]*relation)
	}
	for _, head := range e.rels {
		for r := head; r != nil; r = r.other {
			r.reset()
			e.spare[relKey{r.pred, r.arity}] = r
		}
	}
	clear(e.rels)
	e.arm(with)
}

// arm configures e by with and gives it the state a run starts from,
// keeping only its plan, its relation map and its spare relations.
func (e *Engine) arm(with []Option) {
	var opts options
	for _, opt := range with {
		opt(&opts)
	}
	if opts.MinAggDelta == 0 {
		opts.MinAggDelta = DefaultMinAggDelta
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	c := e.plan
	*e = Engine{
		plan:     c,
		opts:     opts,
		builtins: make(map[string]Builtin),
		// Capped, so the engine's first entry copies the program's table
		// rather than writing into it.
		syms:  symtab{objs: slices.Clip(c.syms.objs), pinned: len(c.syms.objs)},
		rels:  e.rels,
		spare: e.spare,
	}
	if opts.Provenance {
		e.prov = make(map[rowRef]Derivation)
	}
}

// RecordsProvenance reports whether the engine records derivations
// (WithProvenance), so that Explain can answer.
func (e *Engine) RecordsProvenance() bool { return e.prov != nil }

// RegisterBuiltin installs a host function callable as #name(...). Functions
// whose name starts with "sk" fall back to Skolem application automatically
// and need no registration.
func (e *Engine) RegisterBuiltin(name string, fn Builtin) {
	e.builtins[name] = fn
}

// Assert adds an extensional fact. It reports whether the fact is new.
func (e *Engine) Assert(f Fact) bool {
	return e.assert(e.rel(f.Pred, len(f.Args)), f.Args)
}

// assert inserts args into r.
func (e *Engine) assert(r *relation, args []any) bool {
	m := e.syms.mark()
	return e.store(r, e.rowOf(args), m)
}

// store inserts row into r, dropping the symbol table entries made since
// mark when the row is a duplicate.
func (e *Engine) store(r *relation, row []value, mark int) bool {
	_, ok, bytes := r.insert(&e.syms, row)
	if !ok {
		e.syms.release(mark)
	}
	e.indexBytes += int64(bytes)
	return ok
}

// AssertAll adds many extensional facts. A relation the batch starts is
// sized for its facts up front — its rows and its dedup table — and so is
// the symbol table, at as many entries per fact as the first fact of its
// predicate takes, so loading a graph's relational image grows none of them
// log(n) times.
func (e *Engine) AssertAll(fs []Fact) {
	type batch struct{ n, arity, syms int }
	sizes := map[string]batch{}
	for _, f := range fs {
		b, ok := sizes[f.Pred]
		if !ok {
			b.arity = len(f.Args)
			for _, a := range f.Args {
				if boxed(a) {
					b.syms++
				}
			}
		}
		b.n++
		sizes[f.Pred] = b
	}
	syms := 0
	for pred, b := range sizes {
		if r := e.rel(pred, b.arity); r.n == 0 {
			r.reserve(b.n)
			syms += b.n * b.syms
		}
	}
	e.syms.reserve(syms)
	var r *relation
	for _, f := range fs {
		if r == nil || r.pred != f.Pred || r.arity != len(f.Args) {
			r = e.rel(f.Pred, len(f.Args))
		}
		e.assert(r, f.Args)
	}
}

// rowOf converts API arguments into the engine's scratch row.
func (e *Engine) rowOf(args []any) []value {
	row := e.row[:0]
	for _, a := range args {
		row = append(row, e.syms.of(a))
	}
	e.row = row
	return row
}

// rel returns the relation of pred at arity, creating it if missing or
// taking up the spare Reset emptied. Mutating path only — read paths use
// relOf, so they never grow the store. It stays small enough to inline:
// fireHead calls it per emission.
func (e *Engine) rel(pred string, arity int) *relation {
	head := e.rels[pred]
	for r := head; r != nil; r = r.other {
		if r.arity == arity {
			return r
		}
	}
	k := relKey{pred, arity}
	r := e.spare[k]
	if r == nil {
		r = &relation{pred: pred, tuples: tuples{arity: arity}}
	} else {
		delete(e.spare, k)
	}
	r.other = head
	e.rels[pred] = r
	return r
}

// relOf returns the relation of pred at arity, or nil.
func (e *Engine) relOf(pred string, arity int) *relation {
	r := e.rels[pred]
	for r != nil && r.arity != arity {
		r = r.other
	}
	return r
}

// find returns the row of r equal to args.
func (e *Engine) find(r *relation, args []any) (int, bool) {
	m := e.syms.mark()
	row := e.rowOf(args)
	i, ok := r.find(&e.syms, row, e.syms.hashRow(row))
	e.syms.release(m)
	return i, ok
}

// factOf converts a stored row to an API fact.
func (e *Engine) factOf(x rowRef) Fact {
	return e.factIn(x.r, x.row, make([]any, x.r.arity))
}

// addIndexBytes accrues lazily built index memory and trips the budget when
// the estimate crosses Budget.MaxIndexBytes.
func (e *Engine) addIndexBytes(bytes int) {
	if bytes <= 0 {
		return
	}
	e.indexBytes += int64(bytes)
	if b := e.opts.Budget; b.MaxIndexBytes > 0 && e.indexBytes > int64(b.MaxIndexBytes) {
		e.trip(LimitIndexMemory, b.MaxIndexBytes, nil)
	}
}

// Facts returns all facts of a predicate, sorted canonically: of an
// aggregate's head, one row per group, at its current total. The result is
// a copy: mutating the returned facts (or their Args) cannot corrupt the
// engine's store or its indexes.
func (e *Engine) Facts(pred string) []Fact { return e.FactsN(pred, 0) }

// FactsN returns up to n facts of a predicate, taken in derivation order
// and then sorted. Unlike Facts it never sorts the whole relation, so a
// deadline-truncated caller serving a small page of a huge partial result
// does not spend the latency its budget just saved. n <= 0 means all. Like
// Facts, the result is a copy that cannot corrupt the store.
func (e *Engine) FactsN(pred string, n int) []Fact {
	head, ok := e.rels[pred]
	if !ok {
		return nil
	}
	take := func(r *relation, taken int) int {
		if n > 0 {
			return min(r.n-r.nsuper, n-taken)
		}
		return r.n - r.nsuper
	}
	rows, cells := 0, 0
	for r := head; r != nil; r = r.other {
		k := take(r, rows)
		rows += k
		cells += k * r.arity
	}
	out := make([]Fact, 0, rows)
	args := make([]any, cells)
	for r := head; r != nil; r = r.other {
		for i, k := 0, take(r, len(out)); k > 0; i++ {
			if r.superseded(i) {
				continue
			}
			out = append(out, e.factIn(r, i, args[:r.arity:r.arity]))
			args = args[r.arity:]
			k--
		}
	}
	SortFacts(out)
	return out
}

// FactsAt returns the facts of pred whose column col holds one of keys,
// sorted. It reads them through col's positional index, so it costs those
// facts, not the relation.
func (e *Engine) FactsAt(pred string, col int, keys []any) []Fact {
	defer e.syms.release(e.syms.mark())
	var out []Fact
	for r := e.rels[pred]; r != nil; r = r.other {
		bytes, _ := r.ensureIndex(&e.syms, col)
		e.addIndexBytes(bytes)
		if !r.hasIndex(col) {
			continue // col is out of range, or no row was ever inserted
		}
		for _, k := range keys {
			p := r.chain(col, r.index[col].find(&e.syms, r, col, e.syms.of(k)))
			for j, row := 0, p.lo; j < p.n; j, row = j+1, p.step(row) {
				if !r.superseded(row) {
					out = append(out, e.factIn(r, row, make([]any, r.arity)))
				}
			}
		}
	}
	SortFacts(out)
	return out
}

// factIn converts row i of r into a Fact whose arguments fill args.
func (e *Engine) factIn(r *relation, i int, args []any) Fact {
	for j, v := range r.row(i) {
		args[j] = e.syms.any(v)
	}
	return Fact{Pred: r.pred, Args: args}
}

// Has reports whether the exact ground fact is present.
func (e *Engine) Has(f Fact) bool {
	r := e.relOf(f.Pred, len(f.Args))
	if r == nil {
		return false
	}
	i, ok := e.find(r, f.Args)
	return ok && !r.superseded(i)
}

// Binding is one answer to a Query: variable name → ground value.
type Binding map[Variable]any

// Query evaluates a conjunctive goal against the current fact store (run
// the program first) and returns every satisfying binding of the goal's
// variables. Goals may mix atoms and share variables, e.g.
//
//	control(X, Y), closelink(Y, Z)
//
// expressed as []Atom. Each goal atom resolves through the positional
// indexes once its variables are bound by earlier atoms. Duplicate bindings
// are deduplicated.
func (e *Engine) Query(goal ...Atom) []Binding {
	// The goal's constants enter the symbol table for the query only.
	defer e.syms.release(e.syms.mark())
	// Slots in name order, so an answer row lists its variables sorted.
	var names []Variable
	known := map[Variable]bool{}
	for _, a := range goal {
		for _, t := range a.Terms {
			if v, ok := t.(Variable); ok && v != "_" && !known[v] {
				known[v] = true
				names = append(names, v)
			}
		}
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	slots := slotter{}
	for _, v := range names {
		slots.of(v)
	}
	atoms := make([]catom, len(goal))
	for i, a := range goal {
		atoms[i] = slots.compileAtom(a, &e.syms)
	}

	var out []Binding
	seen := tuples{arity: len(names)}
	ec := e.newEvalCtx()
	ec.reset(len(names))
	var rec func(i int)
	rec = func(i int) {
		if i == len(atoms) {
			row := ec.vals[:len(names)]
			if _, ok := seen.add(ec.sy, row, ec.sy.hashRow(row)); !ok {
				return
			}
			b := make(Binding, len(names))
			for s, v := range names {
				b[v] = ec.sy.any(ec.vals[s])
			}
			out = append(out, b)
			return
		}
		mark := len(ec.trail)
		c := e.lookup(ec, &atoms[i])
		for j, row := 0, c.lo; j < c.n; j, row = j+1, c.step(row) {
			if !c.r.superseded(row) && ec.bind(&atoms[i], c.at(row)) {
				rec(i + 1)
				ec.unbind(mark)
			}
		}
	}
	rec(0)
	return out
}

// Rounds reports the number of semi-naive rounds used by the last Run.
func (e *Engine) Rounds() int { return e.rounds }

// Explain returns the first derivation of a derived fact. It returns false
// for extensional facts, unknown facts, or when the engine runs without
// WithProvenance.
func (e *Engine) Explain(f Fact) (Derivation, bool) {
	if e.prov == nil {
		return Derivation{}, false
	}
	r := e.relOf(f.Pred, len(f.Args))
	if r == nil {
		return Derivation{}, false
	}
	i, ok := e.find(r, f.Args)
	if !ok {
		return Derivation{}, false
	}
	d, ok := e.prov[rowRef{r, i}]
	return d, ok
}

// ExplainTree renders the full derivation tree of a fact as indented lines:
// each derived premise expands recursively (up to maxDepth levels, ≤ 0
// meaning 16); extensional premises are leaves. The result is the
// human-readable "why" of a reasoning decision.
func (e *Engine) ExplainTree(f Fact, maxDepth int) []string {
	if maxDepth <= 0 {
		maxDepth = 16
	}
	var out []string
	seen := map[string]bool{}
	var walk func(f Fact, depth int)
	walk = func(f Fact, depth int) {
		indent := strings.Repeat("  ", depth)
		d, ok := e.Explain(f)
		if !ok {
			out = append(out, indent+f.String()+"   [given]")
			return
		}
		out = append(out, indent+f.String()+"   [by "+ruleHead(d.Rule)+"]")
		if depth >= maxDepth {
			return
		}
		key := f.Key()
		if seen[key] {
			out = append(out, indent+"  …")
			return
		}
		seen[key] = true
		for _, p := range d.Premises {
			walk(p, depth+1)
		}
	}
	walk(f, 0)
	return out
}

// ruleHead shortens a rule string to its label for tree rendering.
func ruleHead(rule string) string {
	if i := strings.Index(rule, ":"); i > 0 && i < 40 {
		return rule[:i]
	}
	if len(rule) > 40 {
		return rule[:40] + "…"
	}
	return rule
}

// Run evaluates the program to fixpoint (stratum by stratum) with no
// deadline; resource limits from WithBudget still apply.
func (e *Engine) Run() error { return e.RunContext(context.Background()) }

// RunContext evaluates the program to fixpoint under the context's deadline
// and the configured Budget. When a limit trips, it returns a
// *BudgetExceededError naming the limit; the facts derived before the trip
// remain readable through Facts/Query, so callers can serve partial
// results and distinguish "timed out" from "diverged" from "done".
func (e *Engine) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.stopErr = nil
	e.rounds = 0
	e.derivedCount = 0
	e.dupCount = 0
	defer e.startStats()()
	for si, stratum := range e.plan.strata {
		e.curStratum = si
		if err := e.runStratum(stratum); err != nil {
			return err
		}
		if e.stopErr != nil {
			return e.stopErr
		}
	}
	return nil
}

// DerivedCount reports the number of facts derived by the last Run,
// including a partial Run stopped by the budget.
func (e *Engine) DerivedCount() int { return e.derivedCount }

// chaseJob is one rule instantiation of a chase round: a rule evaluated
// either against the full store (deltaLit < 0) or with one body occurrence
// restricted to the previous round's delta (semi-naive evaluation).
type chaseJob struct {
	ri       int
	delta    probe
	deltaLit int
}

func (e *Engine) runStratum(ruleIdxs []int) error {
	// Predicates derived inside this stratum: delta-tracking applies to them.
	inStratum := make(map[string]bool)
	for _, ri := range ruleIdxs {
		for _, h := range e.plan.prog.Rules[ri].Head {
			inStratum[h.Pred] = true
		}
	}

	// Round 0: evaluate every rule against the full store.
	fullJobs := make([]chaseJob, 0, len(ruleIdxs))
	for _, ri := range ruleIdxs {
		fullJobs = append(fullJobs, chaseJob{ri: ri, deltaLit: -1})
	}
	faultinject.Fire(faultinject.SiteDatalogRound)
	delta, err := e.runRoundObserved(fullJobs)
	if err != nil {
		return err
	}
	e.rounds++

	for len(delta) > 0 {
		faultinject.Fire(faultinject.SiteDatalogRound)
		if e.stopErr != nil {
			return e.stopErr
		}
		if err := e.checkCtx(); err != nil {
			return err
		}
		if e.rounds >= e.opts.MaxRounds {
			return e.trip(LimitRounds, e.opts.MaxRounds, nil)
		}
		var jobs []chaseJob
		if e.opts.Naive {
			jobs = fullJobs
		} else {
			// Semi-naive: for each positive body atom occurrence whose
			// predicate is in this stratum and has a delta, re-evaluate the
			// rule with that occurrence restricted to the delta. Overlap
			// between occurrences is harmless under set semantics.
			for _, ri := range ruleIdxs {
				rule := e.plan.prog.Rules[ri]
				for li, l := range rule.Body {
					if l.Kind != LitAtom || !inStratum[l.Atom.Pred] {
						continue
					}
					for _, d := range delta {
						if d.r.pred == l.Atom.Pred && d.r.arity == len(l.Atom.Terms) {
							jobs = append(jobs, chaseJob{ri: ri, delta: d, deltaLit: li})
						}
					}
				}
			}
		}
		delta, err = e.runRoundObserved(jobs)
		if err != nil {
			return err
		}
		e.rounds++
	}
	return nil
}

// runRoundObserved wraps runRound with the per-round statistics and the
// RoundDone hook; with both off it is a direct call.
func (e *Engine) runRoundObserved(jobs []chaseJob) ([]probe, error) {
	if e.stats == nil && e.opts.Hook.RoundDone == nil {
		return e.runRound(jobs)
	}
	round := e.rounds
	t0 := time.Now()
	delta, err := e.runRound(jobs)
	elapsed := time.Since(t0)
	newFacts := 0
	for _, d := range delta {
		newFacts += d.n
	}
	if st := e.stats; st != nil {
		st.perRound = append(st.perRound, RoundStats{
			Round: round, Stratum: e.curStratum, Jobs: len(jobs),
			NewFacts: newFacts, Nanos: int64(elapsed),
		})
	}
	if fn := e.opts.Hook.RoundDone; fn != nil {
		fn(round, e.curStratum, newFacts, elapsed)
	}
	return delta, err
}

// runRound evaluates one chase round's jobs in order and returns its delta:
// per relation the rows the round appended. Derivations insert as they are
// made, so facts derived by an earlier job are visible to later jobs of the
// same round.
func (e *Engine) runRound(jobs []chaseJob) ([]probe, error) {
	ec := e.newEvalCtx()
	e.roundSeq++
	var err error
	for _, j := range jobs {
		jt := e.ruleStart(j.ri)
		d0, dup0, c0 := e.derivedCount, e.dupCount, ec.candidates
		err = e.evalJob(ec, j)
		e.ruleDone(j.ri, jt, e.derivedCount-d0, e.dupCount-dup0, ec.candidates-c0)
		if err != nil {
			break
		}
	}
	delta := make([]probe, len(ec.touched))
	for i, r := range ec.touched {
		delta[i] = r.rows(r.lo, r.n)
	}
	return delta, err
}

// snapshotPremises copies and deduplicates the premise stack plus the active
// aggregate group's contributions.
func (ec *evalCtx) snapshotPremises() []Fact {
	seen := map[rowRef]bool{}
	var premises []Fact
	for _, stack := range [2][]rowRef{ec.curPremises, ec.aggExtra} {
		for _, p := range stack {
			if !seen[p] {
				seen[p] = true
				premises = append(premises, ec.e.factOf(p))
			}
		}
	}
	return premises
}

// evalJob evaluates one job: it loads the job into the evalCtx's frame —
// following the plan that starts at the job's delta occurrence, or the
// round-0 plan without one — and walks the body.
func (e *Engine) evalJob(ec *evalCtx, j chaseJob) error {
	meta := &e.plan.ruleMeta[j.ri]
	ec.ri, ec.rule, ec.meta = j.ri, &e.plan.prog.Rules[j.ri], meta
	ec.order = meta.order
	if j.deltaLit >= 0 {
		ec.order = meta.deltaOrder[j.deltaLit]
	}
	ec.delta, ec.deltaLit = j.delta, j.deltaLit
	ec.reset(meta.nslots) // a job stopped by an error or a panic leaves bindings behind
	if e.prov != nil {
		ec.curRule = meta.label
		ec.curPremises = ec.curPremises[:0]
	}
	return e.evalBody(ec, 0)
}

// derive inserts the head row held in ec's scratch unless the relation
// already has it — only a new row is copied — and applies the new fact's
// bookkeeping: budget accounting, provenance and the round's delta. It
// returns the row's number and whether it is new.
func (e *Engine) derive(ec *evalCtx, r *relation, row []value) (int, bool) {
	i, ok, bytes := r.insert(ec.sy, row)
	if !ok {
		e.dupCount++
		return i, false
	}
	e.addIndexBytes(bytes)
	e.derivedCount++
	b := e.opts.Budget
	if b.MaxFacts > 0 && e.derivedCount > b.MaxFacts {
		e.trip(LimitFacts, b.MaxFacts, nil)
	}
	ec.pending++
	if b.MaxDeltaQueue > 0 && ec.pending > b.MaxDeltaQueue {
		e.trip(LimitDeltaQueue, b.MaxDeltaQueue, nil)
	}
	if b.MaxIndexBytes > 0 && e.indexBytes > int64(b.MaxIndexBytes) {
		e.trip(LimitIndexMemory, b.MaxIndexBytes, nil)
	}
	if e.prov != nil {
		e.prov[rowRef{r, i}] = Derivation{Rule: ec.curRule, Premises: ec.snapshotPremises()}
	}
	if r.seq != e.roundSeq {
		r.seq, r.lo = e.roundSeq, i
		ec.touched = append(ec.touched, r)
	}
	return i, true
}

// evalBody extends the frame's binding over the plan from position pos on,
// firing the head for every complete match. The delta occurrence comes first
// in its plan (planOrder), so it is the outer loop and every other atom is an
// index probe under the variables bound so far.
func (e *Engine) evalBody(ec *evalCtx, pos int) error {
	// Cooperative cancellation: every body-literal expansion is a step, so
	// even a single enormous join round honors deadlines and budgets.
	if err := ec.step(); err != nil {
		return err
	}
	if pos == len(ec.order) {
		return e.fireHead(ec)
	}
	li := ec.order[pos]
	l, cl := &ec.rule.Body[li], &ec.meta.lits[li]
	switch l.Kind {
	case LitAtom:
		c := ec.delta
		if li != ec.deltaLit {
			c = e.lookup(ec, &cl.atom)
		}
		ec.candidates += int64(c.n)
		prov := e.prov != nil
		mark := len(ec.trail)
		for i, row := 0, c.lo; i < c.n; i, row = i+1, c.step(row) {
			if c.r.superseded(row) || !ec.bind(&cl.atom, c.at(row)) {
				continue
			}
			if prov {
				ec.curPremises = append(ec.curPremises, rowRef{c.r, row})
			}
			if err := e.evalBody(ec, pos+1); err != nil {
				return err
			}
			if prov {
				ec.curPremises = ec.curPremises[:len(ec.curPremises)-1]
			}
			ec.unbind(mark)
		}
		return nil

	case LitNot:
		if e.existsMatch(ec, &cl.atom) {
			return nil
		}
		return e.evalBody(ec, pos+1)

	case LitCmp:
		// Values an expression makes (a concatenation, a builtin's string)
		// are dropped again unless a row stored meanwhile may hold them.
		m := ec.sy.mark()
		lv, err := ec.eval(&cl.l)
		if err != nil {
			return err
		}
		rv, err := ec.eval(&cl.r)
		if err != nil {
			return err
		}
		ok := ec.sy.compare(l.Cmp, lv, rv)
		ec.sy.release(m)
		if !ok {
			return nil
		}
		return e.evalBody(ec, pos+1)

	case LitAssign:
		m := ec.sy.mark()
		v, err := ec.eval(&cl.l)
		if err != nil {
			return err
		}
		if ec.set[cl.target] {
			// Re-assignment acts as an equality check.
			if ec.sy.eq(ec.vals[cl.target], v) {
				err = e.evalBody(ec, pos+1)
			}
		} else {
			mark := len(ec.trail)
			ec.bindSlot(cl.target, v)
			err = e.evalBody(ec, pos+1)
			ec.unbind(mark)
		}
		ec.sy.release(m)
		return err

	case LitAgg:
		m := ec.sy.mark()
		v, err := ec.eval(&cl.l)
		if err != nil {
			return err
		}
		fv, ok := v.float()
		if !ok {
			return fmt.Errorf("datalog: rule %q: aggregate value %v is not numeric", ec.rule.Label, ec.sy.any(v))
		}
		ec.sy.release(m)
		a, g, err := e.aggGroupOf(ec)
		if err != nil {
			return err
		}
		total, changed := e.updateAgg(ec, a, g, l.Agg, fv)
		if !changed {
			// The contribution is absorbed without a new derivation, but its
			// premises still belong to the group's explanation.
			if e.prov != nil {
				ec.recordAggPremises(&a.tab.prov[g])
			}
			return nil
		}
		var savedExtra []rowRef
		if e.prov != nil {
			savedExtra = ec.aggExtra
			// Prior contributions explain the running total; the current
			// body facts are on curPremises already.
			ec.aggExtra = append(append([]rowRef(nil), savedExtra...), a.tab.prov[g].premises...)
			ec.recordAggPremises(&a.tab.prov[g])
		}
		// The group's row records a total it no longer has. The head fired
		// below, if its conditions hold, records the new one.
		if t := a.tab; t.rel != nil {
			if old := t.head[g]; old >= 0 {
				t.rel.supersede(old, true)
				t.head[g] = -1
			}
			ec.aggTab, ec.aggGroup = t, g
		}
		mark := len(ec.trail)
		ec.bindSlot(cl.target, floatValue(total))
		err = e.evalBody(ec, pos+1)
		ec.unbind(mark)
		ec.aggTab = nil
		if e.prov != nil {
			ec.aggExtra = savedExtra
		}
		return err
	}
	return fmt.Errorf("datalog: unknown literal kind %d", l.Kind)
}

// fireHead instantiates the head atoms under the binding, inventing nulls for
// existential variables, and derives each. The head row is built in the
// evalCtx's scratch; derive copies it only for a new fact.
func (e *Engine) fireHead(ec *evalCtx) error {
	meta := ec.meta
	if len(meta.existVars) > 0 {
		ec.fkey = ec.appendFrontier(ec.fkey[:0])
	}
	for hi := range meta.head {
		h := &meta.head[hi]
		args := ec.args[:0]
		for i := range h.terms {
			switch t := &h.terms[i]; t.kind {
			case termConst:
				args = append(args, t.val)
			case termSlot:
				if !ec.set[t.slot] {
					return fmt.Errorf("datalog: rule %q: head variable %s unbound", ec.rule.Label, t.name)
				}
				args = append(args, ec.vals[t.slot])
			case termExist:
				// The null of (frontier, variable): FNV-1a of "frontier|name".
				id := fnv1a(fnv1a(fnv1a(fnvOffset64, ec.fkey), "|"), t.name)
				args = append(args, value{kindNull, id})
			}
		}
		ec.args = args
		r := e.rel(h.pred, len(args))
		i, isNew := e.derive(ec, r, args)
		// A row the aggregate derived (a superseded one only when its total
		// came back, as an mprod at 0 does) becomes its group's current row;
		// a row another rule or the EDB holds is left alone.
		if t := ec.aggTab; t != nil && hi == meta.aggHead && (isNew || r.superseded(i)) {
			r.supersede(i, false)
			t.head[ec.aggGroup] = i
		}
	}
	return nil
}

// aggGroupOf returns the aggregate state of the frame's rule and the group of
// its body match (groupRow), creating either on first contribution.
func (e *Engine) aggGroupOf(ec *evalCtx) (*aggRule, int, error) {
	if e.aggs == nil {
		e.aggs = make([]*aggRule, len(e.plan.ruleMeta))
		e.aggTabs = make(map[string]*aggTable)
	}
	a := e.aggs[ec.ri]
	if a == nil {
		meta := ec.meta
		t := e.aggTabs[meta.aggKey]
		if t == nil {
			t = &aggTable{groups: tuples{arity: meta.aggArity}}
			if h := meta.head[meta.aggHead]; meta.aggArity < len(h.terms) {
				t.rel = e.rel(h.pred, len(h.terms))
			}
			e.aggTabs[meta.aggKey] = t
		}
		a = &aggRule{tab: t, contrib: tuples{arity: 1 + len(meta.lits[meta.aggLit].contrib)}}
		e.aggs[ec.ri] = a
	}
	row, err := ec.groupRow()
	if err != nil {
		return nil, 0, err
	}
	t := a.tab
	g, isNew := t.groups.add(ec.sy, row, ec.sy.hashRow(row))
	if isNew {
		ec.sy.pin()
		t.total = append(t.total, 0)
		t.init = append(t.init, false)
		t.head = append(t.head, -1)
		if e.prov != nil {
			t.prov = append(t.prov, aggProv{})
		}
	}
	return a, g, nil
}

// recordAggPremises folds the current body premises into the aggregate
// group's explanation set (deduplicated).
func (ec *evalCtx) recordAggPremises(p *aggProv) {
	if p.seen == nil {
		p.seen = map[rowRef]bool{}
	}
	for _, x := range ec.curPremises {
		if !p.seen[x] {
			p.seen[x] = true
			p.premises = append(p.premises, x)
		}
	}
}

// updateAgg applies a contribution to the monotonic aggregate state of group
// g and reports the new total plus whether it changed enough to trigger a
// derivation. Contributions are keyed by contributor tuple: a contributor
// counts once, at its best (maximal) contribution so far — matching
// Vadalog's stateful msum with ⟨contributor⟩ notation. ε bounds only an
// msum or mprod contributor's growth; mmax and mmin compare exactly.
func (e *Engine) updateAgg(ec *evalCtx, a *aggRule, g int, op AggOp, v float64) (float64, bool) {
	eps := e.opts.MinAggDelta
	t := a.tab
	// A contribution is looked up without storing its row; a write stores
	// it, so it happens only when a contribution changes.
	row := ec.contribRow(g)
	h := ec.sy.hashRow(row)
	ci, seen := a.contrib.find(ec.sy, row, h)
	cur := 0.0
	if seen {
		cur = a.cur[ci]
	}
	set := func(x float64) {
		if seen {
			a.cur[ci] = x
			return
		}
		a.contrib.add(ec.sy, row, h)
		a.cur = append(a.cur, x)
		ec.sy.pin()
	}
	switch op {
	case AggSum:
		if seen && v <= cur+eps {
			return t.total[g], false
		}
		set(v)
		t.total[g] += v - cur
		t.init[g] = true
		return t.total[g], true
	case AggCount:
		if seen {
			return t.total[g], false
		}
		set(1)
		t.total[g]++
		t.init[g] = true
		return t.total[g], true
	case AggMax:
		if t.init[g] && v <= t.total[g] {
			if !seen || v > cur {
				set(v)
			}
			return t.total[g], false
		}
		set(v)
		t.total[g] = v
		t.init[g] = true
		return v, true
	case AggMin:
		if t.init[g] && v >= t.total[g] {
			return t.total[g], false
		}
		set(v)
		t.total[g] = v
		t.init[g] = true
		return v, true
	case AggProd:
		if seen && v <= cur+eps {
			return t.total[g], false
		}
		if !t.init[g] {
			t.total[g] = 1
			t.init[g] = true
		}
		if seen && cur != 0 {
			t.total[g] /= cur
		}
		set(v)
		t.total[g] *= v
		return t.total[g], true
	}
	return 0, false
}

// lookup returns candidate rows for an atom under the frame's binding,
// probing the best available positional index: the smallest bucket among
// built indexes of bound positions, or a freshly built index on the first
// bound position when none exists yet. Unbound atoms (or NoIndex mode) fall
// back to the full relation. The probe aliases the relation's storage
// rather than copying the bucket (see probe).
func (e *Engine) lookup(ec *evalCtx, a *catom) probe {
	r := e.relOf(a.pred, len(a.terms))
	if r == nil {
		return probe{}
	}
	st := e.stats
	if e.opts.NoIndex {
		if st != nil {
			st.indexScans++
		}
		return r.rows(0, r.n)
	}
	bestPos := -1
	var best bucket
	firstBound := -1
	for i := range a.terms {
		if i >= len(r.index) {
			break
		}
		val, bound := ec.value(&a.terms[i])
		if !bound {
			continue
		}
		if firstBound == -1 {
			firstBound = i
		}
		if r.hasIndex(i) {
			if b := r.index[i].find(ec.sy, r, i, val); bestPos == -1 || b.n < best.n {
				bestPos, best = i, b
			}
		}
	}
	if bestPos == -1 && firstBound >= 0 {
		bytes, built := r.ensureIndex(ec.sy, firstBound)
		e.addIndexBytes(bytes)
		if built && st != nil {
			st.indexBuilds++
		}
		if r.hasIndex(firstBound) {
			val, _ := ec.value(&a.terms[firstBound])
			bestPos, best = firstBound, r.index[firstBound].find(ec.sy, r, firstBound, val)
		}
	}
	if bestPos >= 0 {
		if st != nil {
			st.indexHits++
		}
		return r.chain(bestPos, best)
	}
	if st != nil {
		st.indexScans++
	}
	return r.rows(0, r.n)
}

// existsMatch reports whether any stored fact unifies with the (fully bound)
// atom under the frame's binding, which it leaves unchanged.
func (e *Engine) existsMatch(ec *evalCtx, a *catom) bool {
	mark := len(ec.trail)
	c := e.lookup(ec, a)
	for i, row := 0, c.lo; i < c.n; i, row = i+1, c.step(row) {
		ec.candidates++
		if !c.r.superseded(row) && ec.bind(a, c.at(row)) {
			ec.unbind(mark)
			return true
		}
	}
	return false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int64:
		return float64(x), true
	case int:
		return float64(x), true
	}
	return 0, false
}

// compare applies a comparison operator with numeric coercion; non-numeric
// values compare by canonical encoding (equality/ordering on strings).
func compare(op CmpOp, l, r any) bool {
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		return cmpOrdered(op, lf, rf)
	}
	if ls, ok := l.(string); ok {
		if rs, ok := r.(string); ok {
			// Both encodings carry the prefix 's': compare what follows it.
			return cmpOrdered(op, ls, rs)
		}
	}
	return cmpOrdered(op, encodeValue(l), encodeValue(r))
}

func cmpOrdered[T float64 | string](op CmpOp, l, r T) bool {
	switch op {
	case OpEq:
		return l == r
	case OpNeq:
		return l != r
	case OpLt:
		return l < r
	case OpLeq:
		return l <= r
	case OpGt:
		return l > r
	case OpGeq:
		return l >= r
	}
	return false
}

// planRule computes the per-rule evaluation plans — the round-0 order and
// one order per positive body atom for the jobs that restrict that atom to a
// delta (planOrder) — plus the head variables, the existential set and the
// aggregate's group. Compile adds the rule's slot form (compileRule).
func planRule(r Rule) (ruleMeta, error) {
	order, bound, err := planOrder(r, nil, -1, textual)
	if err != nil {
		return ruleMeta{}, err
	}
	deltaOrder := make([][]int, len(r.Body))
	aggLit := -1
	for i, l := range r.Body {
		switch l.Kind {
		case LitAtom:
			if deltaOrder[i], _, err = planOrder(r, nil, i, sharesBound); err != nil {
				return ruleMeta{}, err
			}
		case LitAgg:
			aggLit = i
		}
	}

	headVarSet := make(map[Variable]bool)
	for _, h := range r.Head {
		bodyVarsOfAtom(h, headVarSet)
	}
	var headVars []Variable
	exist := make(map[Variable]bool)
	for v := range headVarSet {
		if bound[v] {
			headVars = append(headVars, v)
		} else {
			exist[v] = true
		}
	}
	sort.Slice(headVars, func(i, j int) bool { return headVars[i] < headVars[j] })

	aggHead, aggArity := 0, 0
	var aggSkip []bool
	var aggKey string
	if aggLit >= 0 {
		target := r.Body[aggLit].Var
		// The group is defined by the first head atom mentioning the target;
		// if none mentions it (e.g. the msum only feeds a condition, as in
		// Algorithm 5), the whole first head atom is the group.
		for hi, h := range r.Head {
			mentions := false
			for _, t := range h.Terms {
				if v, ok := t.(Variable); ok && v == target {
					mentions = true
					break
				}
			}
			if mentions {
				aggHead = hi
				break
			}
		}
		aggSkip = make([]bool, len(r.Head[aggHead].Terms))
		key := []byte(r.Head[aggHead].Pred + "/")
		for i, t := range r.Head[aggHead].Terms {
			if v, ok := t.(Variable); ok && v == target {
				aggSkip[i] = true
				key = append(key, '@')
			} else {
				key = append(key, '.')
				aggArity++
			}
		}
		aggKey = string(key)
	}
	m := ruleMeta{order: order, deltaOrder: deltaOrder, headVars: headVars, existVars: exist,
		aggLit: aggLit, aggHead: aggHead, aggSkip: aggSkip, aggKey: aggKey, aggArity: aggArity}
	return m, nil
}

// planOrder orders a rule body greedily. It starts from the variables
// already bound (a magic adornment's bound head arguments; none in the chase)
// and, when first >= 0, from body atom first. Each pass places every
// condition, assignment and negation whose inputs are bound, then the
// unplaced atom of highest score, the textually first among ties. An
// aggregate is placed only when no atom is left and the pass placed no
// condition, so it never counts a row that a condition of its rule rejects.
// It returns the order and the variables bound.
//
// Three scores are in use. The round-0 plan scores every atom alike
// (textual), so atoms keep textual order, each a probe under whatever the
// atoms before it bound. The plan of the jobs whose body atom first is
// restricted to a delta ranks atoms sharing a bound variable first
// (sharesBound), so the join walks outward from the delta through index
// probes; left in its textual place, a delta occurrence behind another atom
// made every round scan that atom's whole relation and, per row, the whole
// delta. The magic rewrite ranks atoms by their bound positions
// (boundPositions), which is what turns a second-argument-bound goal into
// reverse-reachability demand.
func planOrder(r Rule, given map[Variable]bool, first int, score func(Atom, map[Variable]bool) int) ([]int, map[Variable]bool, error) {
	n := len(r.Body)
	used := make([]bool, n)
	bound := make(map[Variable]bool, len(given))
	maps.Copy(bound, given)
	order := make([]int, 0, n)
	place := func(i int) {
		used[i] = true
		order = append(order, i)
		switch l := r.Body[i]; l.Kind {
		case LitAtom:
			bodyVarsOfAtom(l.Atom, bound)
		case LitAssign, LitAgg:
			bound[l.Var] = true
		}
	}
	// ready reports whether every input variable of a non-atom literal is bound.
	ready := func(l Literal) bool {
		set := map[Variable]bool{}
		switch l.Kind {
		case LitAssign:
			l.Expr.vars(set)
		case LitCmp:
			l.Left.vars(set)
			l.Right.vars(set)
		case LitNot:
			bodyVarsOfAtom(l.Atom, set)
		case LitAgg:
			l.AggValue.vars(set)
			for _, c := range l.Contributors {
				set[c] = true
			}
		}
		for v := range set {
			if !bound[v] {
				return false
			}
		}
		return true
	}

	if first >= 0 {
		place(first)
	}
	for len(order) < n {
		progress := false
		for i, l := range r.Body {
			if !used[i] && (l.Kind == LitCmp || l.Kind == LitAssign || l.Kind == LitNot) && ready(l) {
				place(i)
				progress = true
			}
		}
		best, bestScore := -1, -1
		for i, l := range r.Body {
			if !used[i] && l.Kind == LitAtom {
				if sc := score(l.Atom, bound); sc > bestScore {
					best, bestScore = i, sc
				}
			}
		}
		if best >= 0 {
			place(best)
			continue
		}
		if progress {
			continue
		}
		for i, l := range r.Body {
			if !used[i] && l.Kind == LitAgg && ready(l) {
				place(i)
				progress = true
			}
		}
		if !progress {
			return nil, nil, fmt.Errorf("cannot order body literals (unbound inputs): %s", r)
		}
	}
	return order, bound, nil
}

// textual scores every atom alike: planOrder keeps them in textual order.
func textual(Atom, map[Variable]bool) int { return 0 }

// sharesBound scores an atom 1 when it mentions a bound variable, 0 otherwise.
func sharesBound(a Atom, bound map[Variable]bool) int {
	for _, t := range a.Terms {
		if v, ok := t.(Variable); ok && v != "_" && bound[v] {
			return 1
		}
	}
	return 0
}

// stratify partitions rules into strata such that negated predicates are
// fully computed in earlier strata, and so are the predicates an aggregate
// writes its total to, wherever a rule outside the aggregate's recursion
// reads them: that reader sees each group's final total (DESIGN.md §5). It
// returns an error if a predicate depends negatively on itself (directly or
// transitively through a cycle).
func stratify(p *Program) ([][]int, error) {
	upstream := aggregateUpstream(p)
	// Predicate stratum numbers via the classic iterative algorithm.
	stratum := make(map[string]int)
	preds := make(map[string]bool)
	for _, r := range p.Rules {
		for _, h := range r.Head {
			preds[h.Pred] = true
		}
		for _, l := range r.Body {
			if l.Kind == LitAtom || l.Kind == LitNot {
				preds[l.Atom.Pred] = true
			}
		}
	}
	maxStrata := len(preds) + 1
	changed := true
	for iter := 0; changed; iter++ {
		if iter > maxStrata*len(p.Rules)+1 {
			return nil, fmt.Errorf("datalog: program is not stratifiable (recursion through negation)")
		}
		changed = false
		for _, r := range p.Rules {
			for _, h := range r.Head {
				hs := stratum[h.Pred]
				for _, l := range r.Body {
					switch l.Kind {
					case LitAtom:
						s := stratum[l.Atom.Pred]
						if up := upstream[l.Atom.Pred]; up != nil && !up[h.Pred] {
							s++
						}
						if s > hs {
							hs = s
						}
					case LitNot:
						if s := stratum[l.Atom.Pred] + 1; s > hs {
							hs = s
						}
					}
				}
				if hs > maxStrata {
					return nil, fmt.Errorf("datalog: program is not stratifiable (recursion through negation)")
				}
				if hs != stratum[h.Pred] {
					stratum[h.Pred] = hs
					changed = true
				}
			}
		}
	}
	// Group rules by the stratum of their head predicates (max over heads).
	byStratum := make(map[int][]int)
	maxS := 0
	for i, r := range p.Rules {
		s := 0
		for _, h := range r.Head {
			if stratum[h.Pred] > s {
				s = stratum[h.Pred]
			}
		}
		byStratum[s] = append(byStratum[s], i)
		if s > maxS {
			maxS = s
		}
	}
	var out [][]int
	for s := 0; s <= maxS; s++ {
		if rules, ok := byStratum[s]; ok {
			out = append(out, rules)
		}
	}
	return out, nil
}

// aggregateUpstream maps each predicate an aggregate writes its total to
// (the head atom the aggregate's group is defined by, when it mentions the
// target) to the predicates whose facts feed its derivation, itself
// included: a rule deriving one of them is inside the aggregate's recursion.
func aggregateUpstream(p *Program) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.Kind != LitAgg {
				continue
			}
			for _, h := range r.Head {
				if slices.ContainsFunc(h.Terms, func(t Term) bool { v, ok := t.(Variable); return ok && v == l.Var }) {
					out[h.Pred] = nil
					break
				}
			}
		}
	}
	for a := range out {
		up := map[string]bool{a: true}
		for todo := []string{a}; len(todo) > 0; {
			x := todo[len(todo)-1]
			todo = todo[:len(todo)-1]
			for _, r := range p.Rules {
				if !slices.ContainsFunc(r.Head, func(h Atom) bool { return h.Pred == x }) {
					continue
				}
				for _, l := range r.Body {
					if (l.Kind == LitAtom || l.Kind == LitNot) && !up[l.Atom.Pred] {
						up[l.Atom.Pred] = true
						todo = append(todo, l.Atom.Pred)
					}
				}
			}
		}
		out[a] = up
	}
	return out
}
