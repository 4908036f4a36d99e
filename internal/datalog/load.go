package datalog

// Streamed loading and column pruning (DESIGN.md §7.9). A caller that holds
// its extensional relations in some other form streams them into an engine
// through a Loader, value by value, with no Fact in between. An engine that
// is told to Prune also stores the empty string at every position of an
// extensional relation its program can never observe, and tells the caller
// so (Loader.Live), so the caller need not even read that value.

// relKey names one relation: a predicate at one arity.
type relKey struct {
	pred  string
	arity int
}

// liveness returns, for each extensional relation a rule body of prog reads,
// the positions some rule can observe (bit p for position p). A position is
// dead when, in every body atom of the relation, it holds "_" or a variable
// that occurs nowhere else in its rule: no join, filter, assignment,
// aggregate (its group and contributors are variables that occur elsewhere)
// or head ever sees its value. A relation no body reads has no entry, and
// every position of it is dead. The predicates in heads, which some rule
// derives, are left out: Prune keeps all their positions.
func liveness(prog *Program, heads map[string]bool) map[relKey]uint64 {
	live := map[relKey]uint64{}
	uses, set := map[Variable]int{}, map[Variable]bool{}
	for _, r := range prog.Rules {
		countUses(r, uses, set)
		for _, l := range r.Body {
			if (l.Kind != LitAtom && l.Kind != LitNot) || heads[l.Atom.Pred] {
				continue
			}
			k := relKey{l.Atom.Pred, len(l.Atom.Terms)}
			m := live[k]
			for i, t := range l.Atom.Terms {
				if v, ok := t.(Variable); ok && (v == "_" || uses[v] == 1) {
					continue
				}
				if i < 64 {
					m |= 1 << uint(i)
				}
			}
			live[k] = m
		}
	}
	return live
}

// countUses fills uses with the occurrences of each variable of r: one per
// atom position (heads included) and one per other literal that mentions
// it. set is scratch.
func countUses(r Rule, uses map[Variable]int, set map[Variable]bool) {
	clear(uses)
	atom := func(a Atom) {
		for _, t := range a.Terms {
			if v, ok := t.(Variable); ok {
				uses[v]++
			}
		}
	}
	for _, h := range r.Head {
		atom(h)
	}
	for _, l := range r.Body {
		clear(set)
		switch l.Kind {
		case LitAtom, LitNot:
			atom(l.Atom)
		case LitCmp:
			l.Left.vars(set)
			l.Right.vars(set)
		case LitAssign:
			set[l.Var] = true
			l.Expr.vars(set)
		case LitAgg:
			set[l.Var] = true
			l.AggValue.vars(set)
			for _, v := range l.Contributors {
				set[v] = true
			}
		}
		for v := range set {
			uses[v]++
		}
	}
}

// Prune makes every later Load store the empty string at the dead positions
// of the engine's program (a position of an extensional relation that, in
// every body atom reading it, holds "_" or a variable occurring nowhere else
// in its rule). The answers the chase derives are unchanged; only rows that
// differ in dead positions alone merge, which no rule can tell apart.
//
// Positions stay whole where something outside the rules reads them: keep
// names the predicate the caller will Query; a predicate some head derives
// is never pruned; and under WithProvenance Prune does nothing, since a
// derivation tree prints its leaf facts whole. Assert and AssertAll never
// prune.
func (e *Engine) Prune(keep string) {
	e.prune = !e.opts.Provenance
	e.keep = keep
}

// Loader streams the rows of one extensional relation into an engine: Int,
// Float and Value append a row's values in position order, and Add stores
// the row. Numbers go in unboxed, and any other value goes in as the
// interface value the caller holds, so a string is stored without a copy.
// The rows of one engine are built one at a time, across its loaders.
type Loader struct {
	e    *Engine
	r    *relation
	dead uint64 // bit p: position p is stored as "" (Prune)
	row  []value
	// mark is the symbol table's length when the row in flight began; rows
	// is the number of rows Load was told, and sized records that the
	// table was sized for the rest of them, or needs no sizing.
	mark  int
	rows  int
	sized bool
}

// Load returns a loader of pred at arity. A relation the load starts is
// sized for rows rows up front, and the symbol table for rows times the
// entries the first row takes, as AssertAll sizes a batch.
func (e *Engine) Load(pred string, arity, rows int) *Loader {
	r := e.rel(pred, arity)
	l := &Loader{e: e, r: r, row: make([]value, 0, arity), rows: rows, sized: r.n > 0}
	if !l.sized {
		r.reserve(rows)
		e.syms.reserve(arity) // the first row, which sizes the rest
	}
	if e.prune && pred != e.keep && !e.plan.heads[pred] {
		l.dead = ^e.plan.live[relKey{pred, arity}]
		if arity < 64 {
			l.dead &= 1<<uint(arity) - 1
		}
	}
	return l
}

// Live reports whether the engine can observe position pos of the relation.
// A dead position is stored as "" whatever value is given for it.
func (l *Loader) Live(pos int) bool {
	return pos >= 64 || l.dead&(1<<uint(pos)) == 0
}

// Int appends an int64.
func (l *Loader) Int(x int64) { l.put(value{kindInt, uint64(x)}) }

// Float appends a float64.
func (l *Loader) Float(x float64) { l.put(floatValue(x)) }

// Value appends a value of any kind the API accepts.
func (l *Loader) Value(a any) {
	l.begin()
	if !l.Live(len(l.row)) {
		a = ""
	}
	l.row = append(l.row, l.e.syms.of(a))
}

func (l *Loader) put(v value) {
	l.begin()
	if !l.Live(len(l.row)) {
		v = value{kindStr, emptyStr}
	}
	l.row = append(l.row, v)
}

// begin marks the symbol table at a row's first value.
func (l *Loader) begin() {
	if len(l.row) == 0 {
		l.mark = l.e.syms.mark()
	}
}

// Add stores the row built since the last Add and reports whether it is
// new. It panics unless the row has the relation's arity.
func (l *Loader) Add() bool {
	if len(l.row) != l.r.arity {
		panic("datalog: Loader.Add of a row of the wrong arity")
	}
	l.begin() // a row of no values
	e := l.e
	ok := e.store(l.r, l.row, l.mark)
	if !l.sized {
		l.sized = true
		if l.rows > 1 {
			e.syms.reserve((e.syms.mark() - l.mark) * (l.rows - 1))
		}
	}
	l.row = l.row[:0]
	return ok
}
