package datalog

import (
	"context"
	"fmt"
	"maps"
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
	// over share cycles) the exact fixpoint is a geometric limit; stopping at
	// MinAggDelta guarantees termination with bounded error. Zero means the
	// default of 1e-9.
	MinAggDelta float64

	// MaxRounds bounds the total number of semi-naive rounds of one Run as
	// a safety net against diverging programs. Zero means the default of
	// 1_000_000. Exceeding it yields a *BudgetExceededError with
	// Limit == LimitRounds.
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

	rels map[string]*relation

	aggState map[string]*aggGroup // keyed by head predicate + group values

	rounds int // total semi-naive rounds of the last Run

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

	// prov holds the first derivation per fact key (WithProvenance).
	prov map[string]Derivation
}

// evalCtx is the evaluation state of one chase round (or one Query
// call): the cooperative-cancellation step counter, the frame of the chase
// job in flight (rule, plan, delta, slot binding and its undo trail), the
// scratch buffers keys and head arguments are built in, the round's delta,
// and the provenance premise stack of the rule instantiation in flight.
type evalCtx struct {
	e         *Engine
	steps     int
	nextCheck int

	// The job in flight, set by evalJob: evalBody recurses over order with
	// nothing but a position, so a join level costs no argument copying.
	ri         int
	rule       *Rule
	meta       *ruleMeta
	order      []int // the plan being followed: meta.order or one of meta.deltaOrder
	deltaFacts []Fact
	deltaLit   int

	// The slot binding (slots.go): vals[s] holds variable s's value while
	// set[s]. trail lists the slots bound so far, in binding order; a join
	// level undoes its bindings by unwinding to the mark it took (see bind).
	vals  []any
	set   []bool
	trail []int

	// Scratch, reused across emissions: the head arguments and fact key of
	// the emission in flight (copied only for a new fact), an index probe's
	// encoded value, and the frontier, group and contributor keys (allocated
	// only for a new group or contributor).
	args                        []any
	key, pkey, fkey, gkey, ckey []byte

	// candidates counts the facts offered to unification (ChaseStats). A
	// plain add per join level, folded into the report only under WithStats.
	candidates int64

	// delta collects the round's newly derived facts per predicate (derive);
	// pending is their count, checked against Budget.MaxDeltaQueue.
	delta   map[string][]Fact
	pending int

	// provenance state: the rule being evaluated, the premise stack of the
	// evaluation in flight, and the prior contributions of the active
	// aggregate group.
	curRule     string
	curPremises []Fact
	aggExtra    []Fact
}

func (e *Engine) newEvalCtx() *evalCtx {
	return &evalCtx{e: e, nextCheck: e.opts.Budget.checkEvery()}
}

// Approximate per-entry costs of the positional indexes, used for the
// MaxIndexBytes budget: a new distinct key costs its encoded bytes plus map
// overhead, every fact reference costs one slot in a bucket.
const (
	indexKeyOverhead    = 48
	indexBucketSlotCost = 8
)

// relation stores the facts of one predicate with a key set for set
// semantics and lazily built per-position hash indexes for joins: argument
// position → encoded value → fact indices. An index position is built the
// first time a lookup probes it and maintained incrementally by insert from
// then on, so semi-naive delta inserts stay O(#built positions).
type relation struct {
	facts []Fact
	keys  map[string]bool
	index []map[string][]int // position → encoded value → fact indices

	// built has bit p set once index[p] is built. Only the first 64
	// argument positions are indexable.
	built uint64
}

func newRelation() *relation {
	return &relation{keys: make(map[string]bool)}
}

func (r *relation) hasIndex(pos int) bool {
	return pos < 64 && r.built&(1<<uint(pos)) != 0
}

// insert adds a fact under its key k == f.Key() (callers need the key again
// for provenance and delta bookkeeping, so they build it once and pass it),
// maintaining every built index. It reports whether the fact is new and the
// estimated index bytes the insertion added.
func (r *relation) insert(f Fact, k string) (bool, int) {
	if r.keys[k] {
		return false, 0
	}
	r.keys[k] = true
	idx := len(r.facts)
	r.facts = append(r.facts, f)
	if r.index == nil {
		r.index = make([]map[string][]int, len(f.Args))
	}
	bytes := 0
	if mask := r.built; mask != 0 {
		for pos := range f.Args {
			if pos >= len(r.index) || pos >= 64 || mask&(1<<uint(pos)) == 0 {
				continue
			}
			ev := encodeValue(f.Args[pos])
			m := r.index[pos]
			b, ok := m[ev]
			if !ok {
				bytes += len(ev) + indexKeyOverhead
			}
			m[ev] = append(b, idx)
			bytes += indexBucketSlotCost
		}
	}
	return true, bytes
}

// ensureIndex builds the positional index for pos if missing, returning the
// estimated bytes it added and whether this call performed the build.
func (r *relation) ensureIndex(pos int) (int, bool) {
	if pos < 0 || pos >= len(r.index) || pos >= 64 || r.hasIndex(pos) {
		return 0, false
	}
	bytes := 0
	m := make(map[string][]int, len(r.facts))
	for i, f := range r.facts {
		if pos >= len(f.Args) {
			continue
		}
		ev := encodeValue(f.Args[pos])
		b, ok := m[ev]
		if !ok {
			bytes += len(ev) + indexKeyOverhead
		}
		m[ev] = append(b, i)
		bytes += indexBucketSlotCost
	}
	r.index[pos] = m
	r.built |= 1 << uint(pos)
	return bytes, true
}

// probe is the candidate set of one lookup: the facts at idxs when the lookup
// went through an index bucket, every fact otherwise. Both slices are headers
// taken at lookup time, so a join level iterating a probe sees the relation as
// of its lookup even while its own emissions append to the same relation and
// bucket (insert only ever appends; remove never runs during a join).
type probe struct {
	facts   []Fact
	idxs    []int
	indexed bool
}

func (p probe) len() int {
	if p.indexed {
		return len(p.idxs)
	}
	return len(p.facts)
}

func (p probe) at(i int) Fact {
	if p.indexed {
		return p.facts[p.idxs[i]]
	}
	return p.facts[i]
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
	label      string            // cached "label: rule text" for provenance

	// The slot form (compileRule): the number of variable slots, the
	// compiled body literals by body position, the compiled head atoms, and
	// the slot of each of headVars.
	nslots   int
	lits     []clit
	head     []catom
	frontier []int
}

// aggGroup is the monotonic aggregation state of one (rule, group) pair.
type aggGroup struct {
	op      AggOp
	contrib map[string]float64 // contributor key → current contribution
	total   float64
	init    bool
	// premises accumulates the body facts of every contribution when
	// provenance is on, so aggregate-based decisions explain completely
	// (e.g. a control decision lists all the shareholdings in the sum, not
	// just the one that crossed the threshold).
	premises []Fact
	premKeys map[string]bool
}

// Compiled is a program validated, planned, slot-compiled and stratified
// once (DESIGN.md §7.7). It is immutable: any number of engines, on any
// goroutines, instantiate it with NewEngine and never plan again. The
// Program it was compiled from must not change afterwards.
type Compiled struct {
	prog     *Program
	strata   [][]int // rule indices per stratum, in evaluation order
	ruleMeta []ruleMeta
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
		meta.label = r.Label + ": " + r.String()
		c.ruleMeta = append(c.ruleMeta, meta)
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	c.strata = strata
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
	var opts options
	for _, opt := range with {
		opt(&opts)
	}
	if opts.MinAggDelta == 0 {
		opts.MinAggDelta = 1e-9
	}
	if opts.MaxRounds == 0 {
		opts.MaxRounds = 1_000_000
	}
	e := &Engine{
		plan:     c,
		opts:     opts,
		builtins: make(map[string]Builtin),
		rels:     make(map[string]*relation),
		aggState: make(map[string]*aggGroup),
	}
	if opts.Provenance {
		e.prov = make(map[string]Derivation)
	}
	return e
}

// RegisterBuiltin installs a host function callable as #name(...). Functions
// whose name starts with "sk" fall back to Skolem application automatically
// and need no registration.
func (e *Engine) RegisterBuiltin(name string, fn Builtin) {
	e.builtins[name] = fn
}

// Assert adds an extensional fact. It reports whether the fact is new.
func (e *Engine) Assert(f Fact) bool {
	ok, bytes := e.rel(f.Pred).insert(f, f.Key())
	e.indexBytes += int64(bytes)
	return ok
}

// AssertAll adds many extensional facts. The fact slice of a relation the
// batch starts is sized for it up front, so loading a graph's relational
// image does not regrow it log(n) times. (The key set is left to grow: a
// map sized from a hint can come out a third larger than a grown one, and
// long-lived engines keep it.)
func (e *Engine) AssertAll(fs []Fact) {
	n := map[string]int{}
	for _, f := range fs {
		n[f.Pred]++
	}
	for pred, k := range n {
		if r := e.rel(pred); len(r.facts) == 0 {
			r.facts = make([]Fact, 0, k)
		}
	}
	for _, f := range fs {
		e.Assert(f)
	}
}

// rel returns the relation of pred, creating it if missing. Mutating path
// only — read paths use the map directly so they never grow it.
func (e *Engine) rel(pred string) *relation {
	r, ok := e.rels[pred]
	if !ok {
		r = newRelation()
		e.rels[pred] = r
	}
	return r
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

// cloneFacts deep-copies a fact slice down to the argument slices, so the
// result shares no mutable storage with the engine. The argument values
// themselves are immutable (strings, numbers, Null/Skolem values).
func cloneFacts(fs []Fact) []Fact {
	out := make([]Fact, len(fs))
	for i, f := range fs {
		args := make([]any, len(f.Args))
		copy(args, f.Args)
		out[i] = Fact{Pred: f.Pred, Args: args}
	}
	return out
}

// Facts returns all facts of a predicate, sorted canonically. The result is
// a deep copy: mutating the returned facts (or their Args) cannot corrupt
// the engine's store or its indexes.
func (e *Engine) Facts(pred string) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	out := cloneFacts(r.facts)
	SortFacts(out)
	return out
}

// FactsN returns up to n facts of a predicate, taken in derivation order
// and then sorted. Unlike Facts it never sorts the whole relation, so a
// deadline-truncated caller serving a small page of a huge partial result
// does not spend the latency its budget just saved. n <= 0 means all. Like
// Facts, the result is a deep copy that cannot corrupt the store.
func (e *Engine) FactsN(pred string, n int) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	fs := r.facts
	if n > 0 && len(fs) > n {
		fs = fs[:n]
	}
	out := cloneFacts(fs)
	SortFacts(out)
	return out
}

// Has reports whether the exact ground fact is present.
func (e *Engine) Has(f Fact) bool {
	r, ok := e.rels[f.Pred]
	return ok && r.keys[f.Key()]
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
	// Slots in name order, so an answer's dedup key lists its variables
	// sorted.
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
		atoms[i] = slots.compileAtom(a)
	}

	var out []Binding
	seen := map[string]bool{}
	ec := &evalCtx{e: e}
	ec.reset(len(names))
	var rec func(i int)
	rec = func(i int) {
		if i == len(atoms) {
			ec.key = ec.key[:0]
			for s, v := range names {
				ec.key = append(ec.key, v...)
				ec.key = append(ec.key, '=')
				ec.key = appendValue(ec.key, ec.vals[s])
				ec.key = append(ec.key, '|')
			}
			if seen[string(ec.key)] {
				return
			}
			seen[string(ec.key)] = true
			b := make(Binding, len(names))
			for s, v := range names {
				b[v] = ec.vals[s]
			}
			out = append(out, b)
			return
		}
		mark := len(ec.trail)
		for c, j := e.lookup(ec, &atoms[i]), 0; j < c.len(); j++ {
			if ec.bind(&atoms[i], c.at(j)) {
				rec(i + 1)
				ec.unbind(mark)
			}
		}
	}
	rec(0)
	return out
}

// MaxByGroup projects the facts of pred to the maximum value of column
// valueCol per distinct combination of the groupCols. This extracts the
// "final value" of a monotonic aggregation (Section 4: the final value of a
// monotone aggregate is its maximum). The projection is one linear pass —
// group-by over the whole relation touches every fact by definition.
func (e *Engine) MaxByGroup(pred string, valueCol int, groupCols ...int) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	out := []Fact{}
	best := make(map[string]int) // group key → index in out
	var kb []byte
	for _, f := range r.facts {
		if valueCol >= len(f.Args) {
			continue
		}
		v, ok := toFloat(f.Args[valueCol])
		if !ok {
			continue
		}
		kb = kb[:0]
		for _, c := range groupCols {
			kb = appendValue(kb, f.Args[c])
			kb = append(kb, '|')
		}
		i, ok := best[string(kb)]
		if !ok {
			best[string(kb)] = len(out)
			out = append(out, f)
			continue
		}
		if cv, _ := toFloat(out[i].Args[valueCol]); v > cv {
			out[i] = f
		}
	}
	SortFacts(out)
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
	d, ok := e.prov[f.Key()]
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
	ri         int
	deltaFacts []Fact
	deltaLit   int
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
					df := delta[l.Atom.Pred]
					if len(df) == 0 {
						continue
					}
					jobs = append(jobs, chaseJob{ri: ri, deltaFacts: df, deltaLit: li})
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
func (e *Engine) runRoundObserved(jobs []chaseJob) (map[string][]Fact, error) {
	if e.stats == nil && e.opts.Hook.RoundDone == nil {
		return e.runRound(jobs)
	}
	round := e.rounds
	t0 := time.Now()
	delta, err := e.runRound(jobs)
	elapsed := time.Since(t0)
	newFacts := 0
	for _, fs := range delta {
		newFacts += len(fs)
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

// runRound evaluates one chase round's jobs in order and returns the delta of
// newly derived facts per predicate. Derivations insert as they are made, so
// facts derived by an earlier job are visible to later jobs of the same round.
func (e *Engine) runRound(jobs []chaseJob) (map[string][]Fact, error) {
	ec := e.newEvalCtx()
	ec.delta = make(map[string][]Fact)
	for _, j := range jobs {
		jt := e.ruleStart(j.ri)
		d0, dup0, c0 := e.derivedCount, e.dupCount, ec.candidates
		err := e.evalJob(ec, j)
		e.ruleDone(j.ri, jt, e.derivedCount-d0, e.dupCount-dup0, ec.candidates-c0)
		if err != nil {
			return ec.delta, err
		}
	}
	return ec.delta, nil
}

// snapshotPremises copies and deduplicates the premise stack plus the active
// aggregate group's contributions.
func (ec *evalCtx) snapshotPremises() []Fact {
	seen := map[string]bool{}
	var premises []Fact
	for _, p := range ec.curPremises {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			premises = append(premises, p)
		}
	}
	for _, p := range ec.aggExtra {
		if k := p.Key(); !seen[k] {
			seen[k] = true
			premises = append(premises, p)
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
	ec.deltaFacts, ec.deltaLit = j.deltaFacts, j.deltaLit
	ec.reset(meta.nslots) // a job stopped by an error or a panic leaves bindings behind
	if e.prov != nil {
		ec.curRule = meta.label
		ec.curPremises = ec.curPremises[:0]
	}
	return e.evalBody(ec, 0)
}

// derive inserts the head instantiation held in ec's scratch (args, and its
// key in ec.key) unless the store already has it, copying both only for a
// new fact, and applies the new fact's bookkeeping: budget accounting,
// provenance and the round's delta.
func (e *Engine) derive(ec *evalCtx, pred string, args []any) {
	r := e.rel(pred)
	if r.keys[string(ec.key)] {
		e.dupCount++
		return
	}
	f := Fact{Pred: pred, Args: make([]any, len(args))}
	copy(f.Args, args)
	key := string(ec.key)
	_, bytes := r.insert(f, key)
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
		e.prov[key] = Derivation{Rule: ec.curRule, Premises: ec.snapshotPremises()}
	}
	ec.delta[pred] = append(ec.delta[pred], f)
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
		c := probe{facts: ec.deltaFacts}
		if li != ec.deltaLit {
			c = e.lookup(ec, &cl.atom)
		}
		n := c.len()
		ec.candidates += int64(n)
		prov := e.prov != nil
		mark := len(ec.trail)
		for i := 0; i < n; i++ {
			f := c.at(i)
			if !ec.bind(&cl.atom, f) {
				continue
			}
			if prov {
				ec.curPremises = append(ec.curPremises, f)
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
		lv, err := ec.eval(&cl.l)
		if err != nil {
			return err
		}
		rv, err := ec.eval(&cl.r)
		if err != nil {
			return err
		}
		if !compare(l.Cmp, lv, rv) {
			return nil
		}
		return e.evalBody(ec, pos+1)

	case LitAssign:
		v, err := ec.eval(&cl.l)
		if err != nil {
			return err
		}
		if ec.set[cl.target] {
			// Re-assignment acts as an equality check.
			if !valueEqual(ec.vals[cl.target], v) {
				return nil
			}
			return e.evalBody(ec, pos+1)
		}
		mark := len(ec.trail)
		ec.bindSlot(cl.target, v)
		err = e.evalBody(ec, pos+1)
		ec.unbind(mark)
		return err

	case LitAgg:
		v, err := ec.eval(&cl.l)
		if err != nil {
			return err
		}
		fv, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("datalog: rule %q: aggregate value %v is not numeric", ec.rule.Label, v)
		}
		st, err := e.aggGroupOf(ec, l.Agg)
		if err != nil {
			return err
		}
		ec.ckey = ec.appendContrib(ec.ckey[:0], cl.contrib)
		total, changed := e.updateAgg(st, l.Agg, ec.ckey, fv)
		if !changed {
			// The contribution is absorbed without a new derivation, but its
			// premises still belong to the group's explanation.
			if e.prov != nil {
				ec.recordAggPremises(st)
			}
			return nil
		}
		var savedExtra []Fact
		if e.prov != nil {
			savedExtra = ec.aggExtra
			// Prior contributions explain the running total; the current
			// body facts are on curPremises already.
			ec.aggExtra = append(append([]Fact(nil), savedExtra...), st.premises...)
			ec.recordAggPremises(st)
		}
		mark := len(ec.trail)
		ec.bindSlot(cl.target, total)
		err = e.evalBody(ec, pos+1)
		ec.unbind(mark)
		if e.prov != nil {
			ec.aggExtra = savedExtra
		}
		return err
	}
	return fmt.Errorf("datalog: unknown literal kind %d", l.Kind)
}

// fireHead instantiates the head atoms under the binding, inventing nulls for
// existential variables, and derives each. The arguments and the key are
// built in the evalCtx's scratch; derive copies them only for a new fact.
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
				args = append(args, Null{ID: id})
			}
		}
		ec.args = args
		ec.key = appendFactKey(ec.key[:0], h.pred, args)
		e.derive(ec, h.pred, args)
	}
	return nil
}

// aggGroupOf returns the aggregation group of the frame's body match
// (appendGroupKey), creating it on first contribution; only a new group
// allocates its key.
func (e *Engine) aggGroupOf(ec *evalCtx, op AggOp) (*aggGroup, error) {
	var err error
	if ec.gkey, err = ec.appendGroupKey(ec.gkey[:0]); err != nil {
		return nil, err
	}
	st, ok := e.aggState[string(ec.gkey)]
	if !ok {
		st = &aggGroup{op: op, contrib: make(map[string]float64)}
		e.aggState[string(ec.gkey)] = st
	}
	return st, nil
}

// recordAggPremises folds the current body premises into the aggregate
// group's explanation set (deduplicated).
func (ec *evalCtx) recordAggPremises(st *aggGroup) {
	if st.premKeys == nil {
		st.premKeys = map[string]bool{}
	}
	for _, p := range ec.curPremises {
		if k := p.Key(); !st.premKeys[k] {
			st.premKeys[k] = true
			st.premises = append(st.premises, p)
		}
	}
}

// updateAgg applies a contribution to the monotonic aggregate state of a
// group and reports the new total plus whether it changed enough to trigger
// a derivation. Contributions are keyed by contributor tuple: a contributor
// counts once, at its best (maximal) contribution so far — matching
// Vadalog's stateful msum with ⟨contributor⟩ notation.
func (e *Engine) updateAgg(st *aggGroup, op AggOp, contribKey []byte, v float64) (float64, bool) {
	eps := e.opts.MinAggDelta
	// Reading under string(contribKey) allocates nothing; a write stores the
	// key, so it happens only when a contribution changes.
	cur, seen := st.contrib[string(contribKey)]
	switch op {
	case AggSum:
		if seen && v <= cur+eps {
			return st.total, false
		}
		st.contrib[string(contribKey)] = v
		st.total += v - cur
		st.init = true
		return st.total, true
	case AggCount:
		if seen {
			return st.total, false
		}
		st.contrib[string(contribKey)] = 1
		st.total++
		st.init = true
		return st.total, true
	case AggMax:
		if st.init && v <= st.total+eps {
			if !seen || v > cur {
				st.contrib[string(contribKey)] = v
			}
			return st.total, false
		}
		st.contrib[string(contribKey)] = v
		st.total = v
		st.init = true
		return st.total, true
	case AggMin:
		if st.init && v >= st.total-eps {
			return st.total, false
		}
		st.contrib[string(contribKey)] = v
		st.total = v
		st.init = true
		return st.total, true
	case AggProd:
		if seen && v <= cur+eps {
			return st.total, false
		}
		if !st.init {
			st.total = 1
			st.init = true
		}
		if seen && cur != 0 {
			st.total /= cur
		}
		st.contrib[string(contribKey)] = v
		st.total *= v
		return st.total, true
	}
	return 0, false
}

// lookup returns candidate facts for an atom under the frame's binding,
// probing the best available positional index: the smallest bucket among
// built indexes of bound positions, or a freshly built index on the first
// bound position when none exists yet. Unbound atoms (or NoIndex mode) fall
// back to the full relation. A probe's value is encoded into the evalCtx's
// scratch and looked up without allocating; the probe aliases the
// relation's storage rather than copying the bucket (see probe).
func (e *Engine) lookup(ec *evalCtx, a *catom) probe {
	r, ok := e.rels[a.pred]
	if !ok {
		return probe{}
	}
	st := e.stats
	if e.opts.NoIndex {
		if st != nil {
			st.indexScans++
		}
		return probe{facts: r.facts}
	}
	bestPos := -1
	var best []int
	firstBound := -1
	for i := range a.terms {
		if i >= len(r.index) || i >= 64 {
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
			ec.pkey = appendValue(ec.pkey[:0], val)
			if b := r.index[i][string(ec.pkey)]; bestPos == -1 || len(b) < len(best) {
				bestPos, best = i, b
			}
		}
	}
	if bestPos == -1 && firstBound >= 0 {
		bytes, built := r.ensureIndex(firstBound)
		e.addIndexBytes(bytes)
		if built && st != nil {
			st.indexBuilds++
		}
		if r.hasIndex(firstBound) {
			val, _ := ec.value(&a.terms[firstBound])
			ec.pkey = appendValue(ec.pkey[:0], val)
			bestPos, best = firstBound, r.index[firstBound][string(ec.pkey)]
		}
	}
	if bestPos >= 0 {
		if st != nil {
			st.indexHits++
		}
		return probe{facts: r.facts, idxs: best, indexed: true}
	}
	if st != nil {
		st.indexScans++
	}
	return probe{facts: r.facts}
}

// existsMatch reports whether any stored fact unifies with the (fully bound)
// atom under the frame's binding, which it leaves unchanged.
func (e *Engine) existsMatch(ec *evalCtx, a *catom) bool {
	mark := len(ec.trail)
	for c, i := e.lookup(ec, a), 0; i < c.len(); i++ {
		ec.candidates++
		if ec.bind(a, c.at(i)) {
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
		switch op {
		case OpEq:
			return lf == rf
		case OpNeq:
			return lf != rf
		case OpLt:
			return lf < rf
		case OpLeq:
			return lf <= rf
		case OpGt:
			return lf > rf
		case OpGeq:
			return lf >= rf
		}
	}
	ls, rs := encodeValue(l), encodeValue(r)
	switch op {
	case OpEq:
		return ls == rs
	case OpNeq:
		return ls != rs
	case OpLt:
		return ls < rs
	case OpLeq:
		return ls <= rs
	case OpGt:
		return ls > rs
	case OpGeq:
		return ls >= rs
	}
	return false
}

// planRule computes the per-rule evaluation plans — the round-0 order and
// one order per positive body atom for the jobs that restrict that atom to a
// delta (planOrder) — plus the head variables, the existential set and the
// rule's slot form (compileRule).
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

	aggHead := 0
	var aggSkip []bool
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
		for i, t := range r.Head[aggHead].Terms {
			if v, ok := t.(Variable); ok && v == target {
				aggSkip[i] = true
			}
		}
	}
	m := ruleMeta{order: order, deltaOrder: deltaOrder, headVars: headVars, existVars: exist,
		aggLit: aggLit, aggHead: aggHead, aggSkip: aggSkip}
	compileRule(r, &m)
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
// fully computed in earlier strata. It returns an error if a predicate
// depends negatively on itself (directly or transitively through a cycle).
func stratify(p *Program) ([][]int, error) {
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
						if s := stratum[l.Atom.Pred]; s > hs {
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
