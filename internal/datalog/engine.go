package datalog

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/faultinject"
)

// Builtin is a host function callable from rule bodies as #name(args...).
// When the engine runs with more than one worker (WithParallel), builtins
// may be called from several chase workers at once and must be safe for
// concurrent use (the shipped #linkprob and Skolem builtins are).
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

	// Parallel is the number of workers evaluating the independent rule
	// instantiations of one chase round. 0 means GOMAXPROCS; 1 forces the
	// sequential path. With more than one worker, each round's rules run
	// against the store frozen at round start and emit into per-job buffers
	// that merge in deterministic job order, so the result is identical for
	// any worker count (see DESIGN.md §7.2). Aggregate rules always evaluate
	// on the merging goroutine because monotonic-aggregation state is shared.
	Parallel int

	// NoIndex disables the per-predicate positional hash indexes: lookup and
	// Match fall back to scanning every fact of the relation. This is the
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
// Concurrency contract: an Engine must not be mutated concurrently — Assert
// and Run/RunContext need exclusive access. After a Run completes, the
// read-only accessors (Facts, Match, Query, Has, Explain, ...) are safe to
// call from many goroutines at once; lazy index builds they may trigger are
// internally synchronized.
type Engine struct {
	prog     *Program
	opts     options
	builtins map[string]Builtin

	rels     map[string]*relation
	strata   [][]int // rule indices per stratum, in evaluation order
	ruleMeta []ruleMeta

	aggState map[string]*aggGroup // keyed by head predicate + group values

	rounds int // total semi-naive rounds of the last Run

	// per-Run budget state: the run's context, the first budget violation
	// (sticky until the evaluation unwinds; guarded by stopMu with the
	// stopped flag as the fast-path check), and the derived-fact count.
	ctx          context.Context
	stopMu       sync.Mutex
	stopped      atomic.Bool
	stopErr      *BudgetExceededError
	derivedCount int
	dupCount     int // emissions absorbed as already-known facts
	curStratum   int

	// stats is the live collector of the current Run (nil without
	// WithStats); lastStats is the frozen report of the last Run.
	stats     *statsCollector
	lastStats *ChaseStats

	// indexBytes is the estimated memory of all positional indexes, accrued
	// atomically because chase workers may build indexes lazily while
	// evaluating in parallel. Checked against Budget.MaxIndexBytes.
	indexBytes atomic.Int64

	// bufferedFacts counts facts pending in this round's job buffers, an
	// early MaxFacts backstop for workers whose emissions have not merged yet.
	bufferedFacts atomic.Int64

	// prov holds the first derivation per fact key (WithProvenance).
	prov map[string]Derivation
}

// evalCtx is the per-goroutine evaluation state of one chase worker: the
// cooperative-cancellation step counter, the frame of the chase job in flight
// (rule, plan, delta, binding and its undo trail), and the provenance premise
// stack of the rule instantiation in flight. The engine's shared state stays
// read-only while workers hold evalCtxs; everything mutable lives here or in
// the per-job emission buffers.
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
	emit       emitFn
	binding    map[Variable]any
	// trail lists the variables bound so far, in binding order; a join level
	// undoes its bindings by unwinding to the mark it took (see bindAtom).
	trail []Variable

	// candidates counts the facts offered to unification (ChaseStats). A
	// plain add per join level, folded into the report only under WithStats.
	candidates int64

	// provenance state: the rule being evaluated, the premise stack of the
	// evaluation in flight, and the prior contributions of the active
	// aggregate group.
	curRule     string
	curPremises []Fact
	aggExtra    []Fact
}

func (e *Engine) newEvalCtx() *evalCtx {
	return &evalCtx{e: e, nextCheck: e.opts.Budget.checkEvery(), binding: make(map[Variable]any)}
}

// emitFn receives a head instantiation together with the evalCtx that
// produced it (for premise capture). Sequential evaluation inserts directly;
// parallel evaluation buffers.
type emitFn func(Fact, *evalCtx)

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
// first time a lookup probes it (double-checked under mu, published through
// the built mask) and maintained incrementally by insert from then on, so
// semi-naive delta inserts stay O(#built positions).
type relation struct {
	facts []Fact
	keys  map[string]bool
	index []map[string][]int // position → encoded value → fact indices

	// built has bit p set once index[p] is built; readers check it with an
	// atomic load before touching index[p], writers publish under mu. Only
	// the first 64 argument positions are indexable.
	built atomic.Uint64
	mu    sync.Mutex
}

func newRelation() *relation {
	return &relation{keys: make(map[string]bool)}
}

func (r *relation) hasIndex(pos int) bool {
	return pos < 64 && r.built.Load()&(1<<uint(pos)) != 0
}

// insert adds a fact under its key k == f.Key() (callers need the key again
// for provenance and delta bookkeeping, so they build it once and pass it),
// maintaining every built index. It reports whether the fact is new and the
// estimated index bytes the insertion added. Insert requires exclusive access
// (engine mutation contract).
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
	if mask := r.built.Load(); mask != 0 {
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
// estimated bytes it added and whether this call performed the build. Safe
// for concurrent callers: the build is double-checked under mu and published
// through the built mask, so parallel chase workers and concurrent
// Match/Query calls race only on the mutex.
func (r *relation) ensureIndex(pos int) (int, bool) {
	if pos < 0 || pos >= len(r.index) || pos >= 64 {
		return 0, false
	}
	if r.hasIndex(pos) {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.built.Load()&(1<<uint(pos)) != 0 {
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
	r.built.Store(r.built.Load() | 1<<uint(pos))
	return bytes, true
}

func (r *relation) bucket(pos int, key string) []int {
	return r.index[pos][key]
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
	headVars   []Variable        // universally-quantified head variables
	existVars  map[Variable]bool // head variables that are existential
	aggLit     int               // body index of the aggregate literal, -1 if none
	aggHead    int               // head atom defining the aggregation group
	aggSkip    map[int]bool      // positions of aggHead holding the aggregate target
	label      string            // cached "label: rule text" for provenance
}

// parallelSafe reports whether the rule may evaluate on a chase worker.
// Aggregate rules mutate the shared monotonic-aggregation state, so they
// always run on the merging goroutine in deterministic order.
func (m ruleMeta) parallelSafe() bool { return m.aggLit < 0 }

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

// NewEngine prepares a program for evaluation, configured by functional
// options (WithBudget, WithParallel, WithStats, ...). It returns an error if
// a rule is invalid or negation is not stratifiable.
func NewEngine(prog *Program, with ...Option) (*Engine, error) {
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
		prog:     prog,
		opts:     opts,
		builtins: make(map[string]Builtin),
		rels:     make(map[string]*relation),
		aggState: make(map[string]*aggGroup),
	}
	if opts.Provenance {
		e.prov = make(map[string]Derivation)
	}
	for i, r := range prog.Rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		meta, err := planRule(r)
		if err != nil {
			return nil, fmt.Errorf("datalog: rule %d (%s): %w", i, r.Label, err)
		}
		meta.label = r.Label + ": " + r.String()
		e.ruleMeta = append(e.ruleMeta, meta)
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	e.strata = strata
	return e, nil
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
	if bytes > 0 {
		e.indexBytes.Add(int64(bytes))
	}
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
	total := e.indexBytes.Add(int64(bytes))
	if b := e.opts.Budget; b.MaxIndexBytes > 0 && total > int64(b.MaxIndexBytes) {
		e.trip(LimitIndexMemory, b.MaxIndexBytes, nil)
	}
}

// IndexBytes reports the estimated memory held by the positional indexes.
func (e *Engine) IndexBytes() int64 { return e.indexBytes.Load() }

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

// NumFacts reports the number of facts of a predicate.
func (e *Engine) NumFacts(pred string) int {
	if r, ok := e.rels[pred]; ok {
		return len(r.facts)
	}
	return 0
}

// Has reports whether the exact ground fact is present.
func (e *Engine) Has(f Fact) bool {
	r, ok := e.rels[f.Pred]
	return ok && r.keys[f.Key()]
}

// matchPattern reports whether a fact matches a wildcard pattern (nil means
// any value at that position).
func matchPattern(f Fact, pattern []any) bool {
	if len(f.Args) != len(pattern) {
		return false
	}
	for i, p := range pattern {
		if p != nil && !valueEqual(f.Args[i], p) {
			return false
		}
	}
	return true
}

// Match returns the facts of pred whose arguments equal the non-nil entries
// of pattern (nil is a wildcard). When a pattern position is bound, the
// probe goes through the positional hash index (built on first use) instead
// of scanning the relation; the remaining positions verify per candidate.
func (e *Engine) Match(pred string, pattern ...any) []Fact {
	r, ok := e.rels[pred]
	if !ok {
		return nil
	}
	var out []Fact
	if pos, key, indexed := e.chooseIndex(r, pattern); indexed {
		for _, i := range r.bucket(pos, key) {
			if f := r.facts[i]; matchPattern(f, pattern) {
				out = append(out, f)
			}
		}
	} else {
		for _, f := range r.facts {
			if matchPattern(f, pattern) {
				out = append(out, f)
			}
		}
	}
	SortFacts(out)
	return out
}

// chooseIndex selects the index position to probe for a pattern of bound
// values (nil entries unbound): the smallest bucket among built indexes, or
// a fresh index on the first bound position when none is built yet. It
// reports (position, encoded key, ok).
func (e *Engine) chooseIndex(r *relation, pattern []any) (int, string, bool) {
	if e.opts.NoIndex {
		return 0, "", false
	}
	bestPos, bestLen := -1, -1
	var bestKey string
	firstBound := -1
	var firstKey string
	for i, p := range pattern {
		if p == nil || i >= len(r.index) || i >= 64 {
			continue
		}
		k := encodeValue(p)
		if firstBound == -1 {
			firstBound, firstKey = i, k
		}
		if r.hasIndex(i) {
			n := len(r.bucket(i, k))
			if bestPos == -1 || n < bestLen {
				bestPos, bestLen, bestKey = i, n, k
			}
		}
	}
	if bestPos >= 0 {
		return bestPos, bestKey, true
	}
	if firstBound >= 0 {
		bytes, built := r.ensureIndex(firstBound)
		e.addIndexBytes(bytes)
		if built {
			if st := e.stats; st != nil {
				st.indexBuilds.Add(1)
			}
		}
		if r.hasIndex(firstBound) {
			return firstBound, firstKey, true
		}
	}
	return 0, "", false
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
	var out []Binding
	seen := map[string]bool{}
	binding := make(map[Variable]any)
	var trail []Variable
	var rec func(i int)
	rec = func(i int) {
		if i == len(goal) {
			b := make(Binding, len(binding))
			var key strings.Builder
			vars := make([]Variable, 0, len(binding))
			for v := range binding {
				vars = append(vars, v)
			}
			sort.Slice(vars, func(a, b int) bool { return vars[a] < vars[b] })
			for _, v := range vars {
				b[v] = binding[v]
				key.WriteString(string(v))
				key.WriteByte('=')
				appendValue(&key, binding[v])
				key.WriteByte('|')
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				out = append(out, b)
			}
			return
		}
		mark := len(trail)
		for c, j := e.lookup(goal[i], binding), 0; j < c.len(); j++ {
			if bindAtom(goal[i], c.at(j), binding, &trail) {
				rec(i + 1)
				unbind(binding, &trail, mark)
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
	best := make(map[string]Fact)
	var kb strings.Builder
	for _, f := range r.facts {
		if valueCol >= len(f.Args) {
			continue
		}
		v, ok := toFloat(f.Args[valueCol])
		if !ok {
			continue
		}
		kb.Reset()
		for _, c := range groupCols {
			appendValue(&kb, f.Args[c])
			kb.WriteByte('|')
		}
		k := kb.String()
		if cur, ok := best[k]; ok {
			cv, _ := toFloat(cur.Args[valueCol])
			if v <= cv {
				continue
			}
		}
		best[k] = f
	}
	out := make([]Fact, 0, len(best))
	for _, f := range best {
		out = append(out, f)
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
// remain readable through Facts/Match/Query, so callers can serve partial
// results and distinguish "timed out" from "diverged" from "done".
func (e *Engine) RunContext(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.resetStop()
	e.rounds = 0
	e.derivedCount = 0
	e.dupCount = 0
	defer e.startStats()()
	for si, stratum := range e.strata {
		e.curStratum = si
		if err := e.runStratum(stratum); err != nil {
			return err
		}
		if se := e.stopError(); se != nil {
			return se
		}
	}
	return nil
}

// DerivedCount reports the number of facts derived by the last Run,
// including a partial Run stopped by the budget.
func (e *Engine) DerivedCount() int { return e.derivedCount }

// workerCount resolves WithParallel against GOMAXPROCS and the number of
// parallel-safe jobs of a round.
func (e *Engine) workerCount(parallelJobs int) int {
	w := e.opts.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > parallelJobs {
		w = parallelJobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chaseJob is one rule instantiation of a chase round: a rule evaluated
// either against the full store (deltaLit < 0) or with one body occurrence
// restricted to the previous round's delta (semi-naive evaluation).
type chaseJob struct {
	ri         int
	deltaFacts []Fact
	deltaLit   int
}

// pendingFact is a buffered derivation awaiting the round's merge.
type pendingFact struct {
	f        Fact
	key      string
	premises []Fact // deduplicated premise snapshot (Provenance only)
	rule     string
}

func (e *Engine) runStratum(ruleIdxs []int) error {
	// Predicates derived inside this stratum: delta-tracking applies to them.
	inStratum := make(map[string]bool)
	for _, ri := range ruleIdxs {
		for _, h := range e.prog.Rules[ri].Head {
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
		if se := e.stopError(); se != nil {
			return se
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
				rule := e.prog.Rules[ri]
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

// runRound evaluates one chase round's jobs and returns the delta of newly
// derived facts per predicate. With one worker the rules evaluate in order
// with immediate insertion (facts derived by an earlier rule are visible to
// later rules of the same round); with several workers the rules evaluate
// against the store frozen at round start and their buffered emissions merge
// in deterministic job order — the fixpoint is the same either way, only the
// round count may differ.
func (e *Engine) runRound(jobs []chaseJob) (map[string][]Fact, error) {
	delta := make(map[string][]Fact)
	pending := 0 // facts across delta, against Budget.MaxDeltaQueue

	// afterInsert applies the bookkeeping of one newly inserted fact:
	// budget accounting, tracing, provenance, delta tracking.
	afterInsert := func(f Fact, key, rule string, premises []Fact) {
		e.derivedCount++
		if b := e.opts.Budget; b.MaxFacts > 0 && e.derivedCount > b.MaxFacts {
			e.trip(LimitFacts, b.MaxFacts, nil)
		}
		pending++
		if b := e.opts.Budget; b.MaxDeltaQueue > 0 && pending > b.MaxDeltaQueue {
			e.trip(LimitDeltaQueue, b.MaxDeltaQueue, nil)
		}
		if b := e.opts.Budget; b.MaxIndexBytes > 0 && e.indexBytes.Load() > int64(b.MaxIndexBytes) {
			e.trip(LimitIndexMemory, b.MaxIndexBytes, nil)
		}
		if e.prov != nil {
			e.prov[key] = Derivation{Rule: rule, Premises: premises}
		}
		delta[f.Pred] = append(delta[f.Pred], f)
	}

	parallelJobs := 0
	for _, j := range jobs {
		if e.ruleMeta[j.ri].parallelSafe() {
			parallelJobs++
		}
	}

	if e.workerCount(parallelJobs) <= 1 {
		// Sequential path: direct insertion, premises snapshotted at insert.
		emit := func(f Fact, ec *evalCtx) {
			key := f.Key()
			isNew, bytes := e.rel(f.Pred).insert(f, key)
			e.addIndexBytes(bytes)
			if !isNew {
				e.dupCount++
				return
			}
			var premises []Fact
			var rule string
			if e.prov != nil {
				premises = ec.snapshotPremises()
				rule = ec.curRule
			}
			afterInsert(f, key, rule, premises)
		}
		ec := e.newEvalCtx()
		for _, j := range jobs {
			if err := e.evalJobObserved(ec, j, emit); err != nil {
				return delta, err
			}
		}
		return delta, nil
	}

	// Parallel path: workers evaluate the parallel-safe jobs against the
	// frozen store into per-job buffers; aggregate jobs follow on this
	// goroutine (shared aggregation state); then every buffer merges in job
	// order, so the outcome is independent of worker scheduling.
	buffers := make([][]pendingFact, len(jobs))
	errs := make([]error, len(jobs))
	panics := make([]any, len(jobs))
	e.bufferedFacts.Store(0)

	var parIdx, seqIdx []int
	for i, j := range jobs {
		if e.ruleMeta[j.ri].parallelSafe() {
			parIdx = append(parIdx, i)
		} else {
			seqIdx = append(seqIdx, i)
		}
	}

	// Per-job instrumentation slots, filled lock-free: each worker owns the
	// slots of the jobs it runs, and the merge (single goroutine) folds them
	// into the per-rule statistics together with the insert counts.
	instr := e.instrumenting()
	var jobNanos, jobCands []int64
	var jobDups []int
	if instr {
		jobNanos = make([]int64, len(jobs))
		jobCands = make([]int64, len(jobs))
		jobDups = make([]int, len(jobs))
	}
	// evalTimed evaluates job idx into its buffer and fills its slots.
	evalTimed := func(ec *evalCtx, idx int) {
		jt := e.ruleStart(jobs[idx].ri)
		c0 := ec.candidates
		dups, err := e.evalJobBuffered(ec, jobs[idx], &buffers[idx])
		errs[idx] = err
		if instr {
			jobNanos[idx] = int64(time.Since(jt))
			jobCands[idx] = ec.candidates - c0
			jobDups[idx] = dups
		}
	}

	workers := e.workerCount(len(parIdx))
	var poolStart time.Time
	if st := e.stats; st != nil {
		if workers > st.workers {
			st.workers = workers
		}
		poolStart = time.Now()
	}
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ec := e.newEvalCtx()
			for idx := range jobCh {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panics[idx] = r
						}
					}()
					evalTimed(ec, idx)
				}()
			}
		}()
	}
	for _, idx := range parIdx {
		jobCh <- idx
	}
	close(jobCh)
	wg.Wait()
	if st := e.stats; st != nil {
		st.parWallNanos += int64(time.Since(poolStart))
		for _, idx := range parIdx {
			st.parBusyNanos += jobNanos[idx]
		}
	}

	// Aggregate rules evaluate here, after the workers, still against the
	// frozen store: updateAgg mutates shared per-group state, so their order
	// must be the deterministic job order.
	ec := e.newEvalCtx()
	for _, idx := range seqIdx {
		evalTimed(ec, idx)
	}

	// Re-panic worker panics on the calling goroutine, preserving the
	// sequential contract that a panicking builtin reaches the Run caller.
	for i := range jobs {
		if panics[i] != nil {
			panic(panics[i])
		}
	}

	// Merge in job order. Cross-job duplicates fall out here.
	faultinject.Fire(faultinject.SiteDatalogMerge)
	var firstErr error
	for i := range jobs {
		inserted, mergeDups := 0, 0
		for _, p := range buffers[i] {
			isNew, bytes := e.rel(p.f.Pred).insert(p.f, p.key)
			e.addIndexBytes(bytes)
			if !isNew {
				mergeDups++
				continue
			}
			inserted++
			afterInsert(p.f, p.key, p.rule, p.premises)
		}
		if instr {
			dups := jobDups[i] + mergeDups
			e.dupCount += dups
			e.ruleDoneNanos(jobs[i].ri, jobNanos[i], inserted, dups, jobCands[i])
		}
		if errs[i] != nil && firstErr == nil {
			firstErr = errs[i]
		}
	}
	if firstErr != nil {
		return delta, firstErr
	}
	if se := e.stopError(); se != nil {
		return delta, se
	}
	return delta, nil
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

// evalJob evaluates one job with the given emitter: it loads the job into
// the evalCtx's frame — following the plan that starts at the job's delta
// occurrence, or the round-0 plan without one — and walks the body.
func (e *Engine) evalJob(ec *evalCtx, j chaseJob, emit emitFn) error {
	meta := &e.ruleMeta[j.ri]
	ec.ri, ec.rule, ec.meta = j.ri, &e.prog.Rules[j.ri], meta
	ec.order = meta.order
	if j.deltaLit >= 0 {
		ec.order = meta.deltaOrder[j.deltaLit]
	}
	ec.deltaFacts, ec.deltaLit, ec.emit = j.deltaFacts, j.deltaLit, emit
	clear(ec.binding) // a job stopped by an error or a panic leaves bindings behind
	ec.trail = ec.trail[:0]
	if e.prov != nil {
		ec.curRule = meta.label
		ec.curPremises = ec.curPremises[:0]
	}
	return e.evalBody(ec, 0)
}

// evalJobObserved is evalJob for a job whose emitter inserts as it goes (the
// sequential chase): what the job did is read off
// the engine's counters and folded into the per-rule statistics and hooks.
func (e *Engine) evalJobObserved(ec *evalCtx, j chaseJob, emit emitFn) error {
	jt := e.ruleStart(j.ri)
	d0, dup0, c0 := e.derivedCount, e.dupCount, ec.candidates
	err := e.evalJob(ec, j, emit)
	e.ruleDone(j.ri, jt, e.derivedCount-d0, e.dupCount-dup0, ec.candidates-c0)
	return err
}

// evalJobBuffered evaluates one job into its buffer: emissions deduplicate
// against the frozen store and the job's own prior emissions, and premises
// snapshot at emission time. It only reads shared engine state (except
// aggregation state for aggregate jobs, which run single-threaded). It
// reports the number of emissions absorbed as duplicates.
func (e *Engine) evalJobBuffered(ec *evalCtx, j chaseJob, buf *[]pendingFact) (int, error) {
	seen := map[string]bool{}
	dups := 0
	maxFacts := e.opts.Budget.MaxFacts
	emit := func(f Fact, ec *evalCtx) {
		k := f.Key()
		if seen[k] {
			dups++
			return
		}
		if r, ok := e.rels[f.Pred]; ok && r.keys[k] {
			dups++
			return
		}
		seen[k] = true
		p := pendingFact{f: f, key: k}
		if e.prov != nil {
			p.premises = ec.snapshotPremises()
			p.rule = ec.curRule
		}
		*buf = append(*buf, p)
		if buffered := e.bufferedFacts.Add(1); maxFacts > 0 && int(buffered)+e.derivedCount > maxFacts {
			// Early backstop: the merge performs the authoritative check,
			// but workers must not buffer unboundedly past the budget.
			e.trip(LimitFacts, maxFacts, nil)
		}
	}
	err := e.evalJob(ec, j, emit)
	return dups, err
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
	l := &ec.rule.Body[li]
	binding := ec.binding
	switch l.Kind {
	case LitAtom:
		c := probe{facts: ec.deltaFacts}
		if li != ec.deltaLit {
			c = e.lookup(l.Atom, binding)
		}
		n := c.len()
		ec.candidates += int64(n)
		prov := e.prov != nil
		mark := len(ec.trail)
		for i := 0; i < n; i++ {
			f := c.at(i)
			if !bindAtom(l.Atom, f, binding, &ec.trail) {
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
			unbind(binding, &ec.trail, mark)
		}
		return nil

	case LitNot:
		if e.existsMatch(ec, l.Atom) {
			return nil
		}
		return e.evalBody(ec, pos+1)

	case LitCmp:
		lv, err := e.evalExpr(l.Left, binding)
		if err != nil {
			return err
		}
		rv, err := e.evalExpr(l.Right, binding)
		if err != nil {
			return err
		}
		if !compare(l.Cmp, lv, rv) {
			return nil
		}
		return e.evalBody(ec, pos+1)

	case LitAssign:
		v, err := e.evalExpr(l.Expr, binding)
		if err != nil {
			return err
		}
		if old, bound := binding[l.Var]; bound {
			// Re-assignment acts as an equality check.
			if !valueEqual(old, v) {
				return nil
			}
			return e.evalBody(ec, pos+1)
		}
		binding[l.Var] = v
		err = e.evalBody(ec, pos+1)
		delete(binding, l.Var)
		return err

	case LitAgg:
		v, err := e.evalExpr(l.AggValue, binding)
		if err != nil {
			return err
		}
		fv, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("datalog: rule %q: aggregate value %v is not numeric", ec.rule.Label, v)
		}
		groupKey, err := e.groupKey(ec)
		if err != nil {
			return err
		}
		contribKey := fmt.Sprintf("r%d|%s", ec.ri, contributorKey(l.Contributors, binding))
		total, changed := e.updateAgg(ec.ri, groupKey, l.Agg, contribKey, fv)
		if !changed {
			// The contribution is absorbed without a new derivation, but its
			// premises still belong to the group's explanation.
			if e.prov != nil {
				e.recordAggPremises(ec, groupKey)
			}
			return nil
		}
		var savedExtra []Fact
		if e.prov != nil {
			st := e.aggState[groupKey]
			savedExtra = ec.aggExtra
			// Prior contributions explain the running total; the current
			// body facts are on curPremises already.
			ec.aggExtra = append(append([]Fact(nil), savedExtra...), st.premises...)
			e.recordAggPremises(ec, groupKey)
		}
		binding[l.Var] = total
		err = e.evalBody(ec, pos+1)
		delete(binding, l.Var)
		if e.prov != nil {
			ec.aggExtra = savedExtra
		}
		return err
	}
	return fmt.Errorf("datalog: unknown literal kind %d", l.Kind)
}

// fireHead instantiates the head atoms under the binding, inventing nulls for
// existential variables.
func (e *Engine) fireHead(ec *evalCtx) error {
	rule, meta, binding := ec.rule, ec.meta, ec.binding
	var frontier string
	if len(meta.existVars) > 0 {
		frontier = frontierKey(ec.ri, meta.headVars, binding)
	}
	for _, h := range rule.Head {
		args := make([]any, len(h.Terms))
		for i, t := range h.Terms {
			switch tt := t.(type) {
			case Constant:
				args[i] = tt.Value
			case Variable:
				if v, ok := binding[tt]; ok {
					args[i] = v
				} else if meta.existVars[tt] {
					args[i] = Null{ID: hashKey(frontier + "|" + string(tt))}
				} else {
					return fmt.Errorf("datalog: rule %q: head variable %s unbound", rule.Label, tt)
				}
			}
		}
		ec.emit(Fact{Pred: h.Pred, Args: args}, ec)
	}
	return nil
}

func frontierKey(ri int, headVars []Variable, binding map[Variable]any) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "r%d", ri)
	for _, v := range headVars {
		if val, ok := binding[v]; ok {
			sb.WriteByte('|')
			sb.WriteString(string(v))
			sb.WriteByte('=')
			appendValue(&sb, val)
		}
	}
	return sb.String()
}

// groupKey identifies the aggregation group of a body match: the head atom's
// predicate plus the values of its non-target arguments. Keying on the head
// predicate (not the rule) lets the msum calls of several rules contribute to
// one total, as the paper requires for Algorithm 8 ("the two monotonic
// summations of Rules (2) and (3) contribute to the same total, one for each
// (F, y) pair").
func (e *Engine) groupKey(ec *evalCtx) (string, error) {
	rule, meta, binding := ec.rule, ec.meta, ec.binding
	h := rule.Head[meta.aggHead]
	var sb strings.Builder
	sb.WriteString(h.Pred)
	for i, t := range h.Terms {
		sb.WriteByte('|')
		if meta.aggSkip[i] {
			sb.WriteByte('@') // target position: excluded from the group
			continue
		}
		switch tt := t.(type) {
		case Constant:
			appendValue(&sb, tt.Value)
		case Variable:
			val, ok := binding[tt]
			if !ok {
				return "", fmt.Errorf("datalog: rule %q: aggregation group variable %s unbound", rule.Label, tt)
			}
			appendValue(&sb, val)
		}
	}
	return sb.String(), nil
}

func contributorKey(vars []Variable, binding map[Variable]any) string {
	var sb strings.Builder
	for i, v := range vars {
		if i > 0 {
			sb.WriteByte('|')
		}
		if val, ok := binding[v]; ok {
			appendValue(&sb, val)
		}
	}
	return sb.String()
}

// recordAggPremises folds the current body premises into the aggregate
// group's explanation set (deduplicated).
func (e *Engine) recordAggPremises(ec *evalCtx, groupKey string) {
	st := e.aggState[groupKey]
	if st == nil {
		return
	}
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

// updateAgg applies a contribution to the monotonic aggregate state of
// (rule, group) and reports the new total plus whether it changed enough to
// trigger a derivation. Contributions are keyed by contributor tuple: a
// contributor counts once, at its best (maximal) contribution so far —
// matching Vadalog's stateful msum with ⟨contributor⟩ notation.
func (e *Engine) updateAgg(ri int, groupKey string, op AggOp, contribKey string, v float64) (float64, bool) {
	key := groupKey
	st, ok := e.aggState[key]
	if !ok {
		st = &aggGroup{op: op, contrib: make(map[string]float64)}
		e.aggState[key] = st
	}
	eps := e.opts.MinAggDelta
	cur, seen := st.contrib[contribKey]
	switch op {
	case AggSum:
		if seen && v <= cur+eps {
			return st.total, false
		}
		if !seen {
			cur = 0
		}
		st.contrib[contribKey] = v
		st.total += v - cur
		st.init = true
		return st.total, true
	case AggCount:
		if seen {
			return st.total, false
		}
		st.contrib[contribKey] = 1
		st.total++
		st.init = true
		return st.total, true
	case AggMax:
		if st.init && v <= st.total+eps {
			if !seen || v > cur {
				st.contrib[contribKey] = v
			}
			return st.total, false
		}
		st.contrib[contribKey] = v
		st.total = v
		st.init = true
		return st.total, true
	case AggMin:
		if st.init && v >= st.total-eps {
			return st.total, false
		}
		st.contrib[contribKey] = v
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
		st.contrib[contribKey] = v
		st.total *= v
		return st.total, true
	}
	return 0, false
}

// lookup returns candidate facts for an atom under the current binding,
// probing the best available positional index: the smallest bucket among
// built indexes of bound positions, or a freshly built index on the first
// bound position when none exists yet. Unbound atoms (or NoIndex mode) fall
// back to the full relation. The probe aliases the relation's storage rather
// than copying the bucket (see probe).
func (e *Engine) lookup(a Atom, binding map[Variable]any) probe {
	r, ok := e.rels[a.Pred]
	if !ok {
		return probe{}
	}
	st := e.stats
	if e.opts.NoIndex {
		if st != nil {
			st.indexScans.Add(1)
		}
		return probe{facts: r.facts}
	}
	bestPos, bestLen := -1, -1
	var bestKey string
	firstBound := -1
	var firstKey string
	for i, t := range a.Terms {
		if i >= len(r.index) || i >= 64 {
			break
		}
		var val any
		switch tt := t.(type) {
		case Constant:
			val = tt.Value
		case Variable:
			v, bound := binding[tt]
			if !bound {
				continue
			}
			val = v
		}
		k := encodeValue(val)
		if firstBound == -1 {
			firstBound, firstKey = i, k
		}
		if r.hasIndex(i) {
			n := len(r.bucket(i, k))
			if bestPos == -1 || n < bestLen {
				bestPos, bestLen, bestKey = i, n, k
			}
		}
	}
	if bestPos == -1 && firstBound >= 0 {
		bytes, built := r.ensureIndex(firstBound)
		e.addIndexBytes(bytes)
		if built && st != nil {
			st.indexBuilds.Add(1)
		}
		if r.hasIndex(firstBound) {
			bestPos, bestKey = firstBound, firstKey
		}
	}
	if bestPos >= 0 {
		if st != nil {
			st.indexHits.Add(1)
		}
		return probe{facts: r.facts, idxs: r.bucket(bestPos, bestKey), indexed: true}
	}
	if st != nil {
		st.indexScans.Add(1)
	}
	return probe{facts: r.facts}
}

// existsMatch reports whether any stored fact unifies with the (fully bound)
// atom under the frame's binding, which it leaves unchanged.
func (e *Engine) existsMatch(ec *evalCtx, a Atom) bool {
	mark := len(ec.trail)
	for c, i := e.lookup(a, ec.binding), 0; i < c.len(); i++ {
		ec.candidates++
		if bindAtom(a, c.at(i), ec.binding, &ec.trail) {
			unbind(ec.binding, &ec.trail, mark)
			return true
		}
	}
	return false
}

// bindAtom unifies an atom with a fact under the binding, pushing every
// variable it binds onto the trail. A failed unification undoes its own
// bindings; a successful one is undone by unbind to the trail length the
// caller noted before the call.
func bindAtom(a Atom, f Fact, binding map[Variable]any, trail *[]Variable) bool {
	if len(a.Terms) != len(f.Args) || a.Pred != f.Pred {
		return false
	}
	mark := len(*trail)
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			if !valueEqual(tt.Value, f.Args[i]) {
				unbind(binding, trail, mark)
				return false
			}
		case Variable:
			if tt == "_" {
				continue
			}
			if v, bound := binding[tt]; bound {
				if !valueEqual(v, f.Args[i]) {
					unbind(binding, trail, mark)
					return false
				}
			} else {
				binding[tt] = f.Args[i]
				*trail = append(*trail, tt)
			}
		}
	}
	return true
}

// unbind removes the variables bound since the trail was mark long.
func unbind(binding map[Variable]any, trail *[]Variable, mark int) {
	for _, v := range (*trail)[mark:] {
		delete(binding, v)
	}
	*trail = (*trail)[:mark]
}

// evalExpr evaluates an expression under a binding. It delegates to
// evalExprWith so the test-only reference evaluator shares builtin dispatch
// without sharing the join machinery under test.
func (e *Engine) evalExpr(ex Expr, binding map[Variable]any) (any, error) {
	return evalExprWith(e.builtins, ex, binding)
}

// evalExprWith evaluates an expression under a binding with an explicit
// builtin table.
func evalExprWith(builtins map[string]Builtin, ex Expr, binding map[Variable]any) (any, error) {
	switch x := ex.(type) {
	case TermExpr:
		switch t := x.Term.(type) {
		case Constant:
			return t.Value, nil
		case Variable:
			v, ok := binding[t]
			if !ok {
				return nil, fmt.Errorf("datalog: unbound variable %s in expression", t)
			}
			return v, nil
		}
	case BinExpr:
		lv, err := evalExprWith(builtins, x.L, binding)
		if err != nil {
			return nil, err
		}
		rv, err := evalExprWith(builtins, x.R, binding)
		if err != nil {
			return nil, err
		}
		lf, lok := toFloat(lv)
		rf, rok := toFloat(rv)
		if !lok || !rok {
			if x.Op == '+' {
				// String concatenation.
				return fmt.Sprintf("%v%v", lv, rv), nil
			}
			return nil, fmt.Errorf("datalog: arithmetic on non-numeric values %v, %v", lv, rv)
		}
		switch x.Op {
		case '+':
			return lf + rf, nil
		case '-':
			return lf - rf, nil
		case '*':
			return lf * rf, nil
		case '/':
			if rf == 0 {
				return nil, fmt.Errorf("datalog: division by zero")
			}
			return lf / rf, nil
		}
	case CallExpr:
		args := make([]any, len(x.Args))
		for i, a := range x.Args {
			v, err := evalExprWith(builtins, a, binding)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		if fn, ok := builtins[x.Name]; ok {
			return fn(args)
		}
		if strings.HasPrefix(x.Name, "sk") {
			return NewSkolem(x.Name, args...), nil
		}
		return nil, fmt.Errorf("datalog: unknown builtin #%s", x.Name)
	}
	return nil, fmt.Errorf("datalog: bad expression %v", ex)
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
// delta (planOrder) — plus the head variables and the existential set.
func planRule(r Rule) (ruleMeta, error) {
	order, bound, err := planOrder(r, -1)
	if err != nil {
		return ruleMeta{}, err
	}
	deltaOrder := make([][]int, len(r.Body))
	aggLit := -1
	for i, l := range r.Body {
		switch l.Kind {
		case LitAtom:
			if deltaOrder[i], _, err = planOrder(r, i); err != nil {
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
	aggSkip := map[int]bool{}
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
		for i, t := range r.Head[aggHead].Terms {
			if v, ok := t.(Variable); ok && v == target {
				aggSkip[i] = true
			}
		}
	}
	return ruleMeta{order: order, deltaOrder: deltaOrder, headVars: headVars, existVars: exist,
		aggLit: aggLit, aggHead: aggHead, aggSkip: aggSkip}, nil
}

// planOrder orders a rule body greedily: filters, assignments and negations
// as soon as their inputs are bound, then one more atom, aggregates once
// nothing else can be placed. It returns the order and the variables bound.
//
// first < 0 gives the round-0 plan: atoms in textual order, every one a probe
// under whatever the atoms before it bound. first >= 0 gives the plan of the
// jobs whose body atom first is restricted to a delta: that atom comes first,
// and each next atom is the textually first one sharing an already-bound
// variable (any atom only when none does), so the join walks outward from the
// delta through index probes. Left in its textual place, a delta occurrence
// behind another atom made every round scan that atom's whole relation and,
// per row, the whole delta.
func planOrder(r Rule, first int) ([]int, map[Variable]bool, error) {
	n := len(r.Body)
	used := make([]bool, n)
	bound := make(map[Variable]bool)
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
	nextAtom := func() int {
		fallback := -1
		for i, l := range r.Body {
			if used[i] || l.Kind != LitAtom {
				continue
			}
			if first < 0 || sharesVar(l.Atom, bound) {
				return i
			}
			if fallback < 0 {
				fallback = i
			}
		}
		return fallback
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
		if i := nextAtom(); i >= 0 {
			place(i)
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

// sharesVar reports whether the atom mentions a variable of the set.
func sharesVar(a Atom, set map[Variable]bool) bool {
	for _, t := range a.Terms {
		if v, ok := t.(Variable); ok && v != "_" && set[v] {
			return true
		}
	}
	return false
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
