// Incremental view maintenance for the positive, aggregate-free fragment:
// ApplyDelta adjusts the fixpoint of a previous Run under a batch of
// extensional insertions and retractions using the classic delete/rederive
// (DRed) algorithm, instead of re-chasing from scratch.
//
//   - Overdelete: starting from the retracted facts, delta-join through every
//     positive body occurrence (against the pre-delta store) to find every
//     derived fact with at least one derivation mentioning a deleted fact.
//     This overestimates: alternative derivations are ignored for now.
//   - Remove: physically delete the retractions and the overdeleted facts,
//     maintaining the positional indexes in place.
//   - Rederive: for each overdeleted fact, check head-bound body
//     satisfiability against the surviving store; facts with an alternative
//     derivation come back, to fixpoint (a rederived fact can rederive
//     others).
//   - Insert: assert the added facts and run ordinary semi-naive rounds with
//     the additions as the initial delta.
//
// The net derived-fact changes come back in a DeltaResult, so a caller
// maintaining a materialized view (internal/ivm) applies exactly the facts
// that changed. Aggregates, negation, and existential heads are refused —
// their deltas are not local (retracting one msum contribution shifts a
// whole group's total) — and the ivm layer handles those rules by scoped
// recompute instead.
package datalog

import (
	"context"
	"fmt"
)

// DeltaResult reports the net effect of one ApplyDelta on the derived facts
// (the extensional changes are the caller's own input and are not repeated
// here).
type DeltaResult struct {
	// Added are the derived facts that exist after the delta but not before.
	Added []Fact
	// Removed are the derived facts that existed before the delta but are no
	// longer derivable.
	Removed []Fact
	// Overdeleted counts the derived facts provisionally deleted by the DRed
	// overestimate, including the ones that later rederived.
	Overdeleted int
	// Rederived counts the overdeleted facts restored by an alternative
	// derivation (including forward rederivations from the insertions).
	Rederived int
	// Rounds is the number of delta rounds (overdelete + insert) consumed.
	Rounds int
}

// ErrNotIncremental reports a program outside the incrementally maintainable
// fragment: callers should fall back to a full Run.
type ErrNotIncremental struct{ Reason string }

func (e *ErrNotIncremental) Error() string {
	return "datalog: program not incrementally maintainable: " + e.Reason +
		" (retraction deltas are non-local there; re-run the full chase instead)"
}

// incrementalOK checks the program against the maintainable fragment and
// returns the set of head (intensional) predicates.
func (e *Engine) incrementalOK() (map[string]bool, error) {
	heads := make(map[string]bool)
	for ri, rule := range e.prog.Rules {
		meta := e.ruleMeta[ri]
		if meta.aggLit >= 0 {
			return nil, &ErrNotIncremental{Reason: fmt.Sprintf("rule %q aggregates", rule.Label)}
		}
		if len(meta.existVars) > 0 {
			return nil, &ErrNotIncremental{Reason: fmt.Sprintf("rule %q has existential head variables", rule.Label)}
		}
		for _, l := range rule.Body {
			if l.Kind == LitNot {
				return nil, &ErrNotIncremental{Reason: fmt.Sprintf("rule %q negates", rule.Label)}
			}
		}
		for _, h := range rule.Head {
			heads[h.Pred] = true
		}
	}
	return heads, nil
}

// ApplyDelta incrementally maintains the fixpoint of a previous Run (or
// ApplyDelta) under a batch of extensional retractions and insertions. The
// engine must hold a fixpoint on entry; the adds and dels must be extensional
// facts (their predicates must not appear in any rule head — derived facts
// are maintained, not mutated directly).
//
// Like RunContext it honors the context's deadline and the configured Budget
// and MaxRounds; unlike RunContext, a budget trip leaves the store in an
// intermediate state that is NOT a fixpoint — on error the caller must
// discard the engine or restore consistency with a full Run.
//
// ApplyDelta mutates the engine and requires exclusive access.
func (e *Engine) ApplyDelta(ctx context.Context, dels, adds []Fact) (DeltaResult, error) {
	var res DeltaResult
	heads, err := e.incrementalOK()
	if err != nil {
		return res, err
	}
	for _, f := range dels {
		if heads[f.Pred] {
			return res, fmt.Errorf("datalog: ApplyDelta: cannot retract %s: predicate %q is derived", f, f.Pred)
		}
	}
	for _, f := range adds {
		if heads[f.Pred] {
			return res, fmt.Errorf("datalog: ApplyDelta: cannot assert %s: predicate %q is derived", f, f.Pred)
		}
	}

	if ctx == nil {
		ctx = context.Background()
	}
	e.ctx = ctx
	e.resetStop()
	e.rounds = 0
	e.derivedCount = 0
	e.dupCount = 0
	defer e.startStats()()
	ec := e.newEvalCtx()

	// Phase 1 — overdelete. The store stays untouched so delta-joins see the
	// pre-delta database: a head supported by two deleted facts in different
	// positions is still found through either one.
	//
	// deleted is the membership set; overdel lists the same facts in discovery
	// order, and removal and rederivation walk that list rather than the map:
	// both decide the enumeration order of the surviving store, so walking
	// them in map order would make a delta's cost (and which derivation
	// provenance records) differ from run to run.
	deleted := make(map[string]Fact)
	var overdel []pendingFact
	delta := make(map[string][]Fact)
	for _, f := range dels {
		k := f.Key()
		if r, ok := e.rels[f.Pred]; ok && r.keys[k] {
			if _, dup := deleted[k]; !dup {
				deleted[k] = f
				overdel = append(overdel, pendingFact{f: f, key: k})
				delta[f.Pred] = append(delta[f.Pred], f)
			}
		}
	}
	nDels := len(deleted) // extensional retractions actually present
	for len(delta) > 0 {
		if err := e.deltaRound(&res, delta); err != nil {
			return res, err
		}
		next := make(map[string][]Fact)
		emit := func(h Fact, _ *evalCtx) {
			k := h.Key()
			if _, dd := deleted[k]; dd {
				return
			}
			if r, ok := e.rels[h.Pred]; !ok || !r.keys[k] {
				// At a fixpoint every firing's head is materialized; this
				// guards a caller who violated the precondition.
				return
			}
			deleted[k] = h
			overdel = append(overdel, pendingFact{f: h, key: k})
			next[h.Pred] = append(next[h.Pred], h)
		}
		if err := e.deltaJoin(ec, delta, emit); err != nil {
			return res, err
		}
		delta = next
	}
	res.Overdeleted = len(deleted) - nDels

	// Phase 2 — physically remove the overestimate.
	for _, p := range overdel {
		e.rel(p.f.Pred).remove(p.f)
		if e.prov != nil {
			delete(e.prov, p.key)
		}
	}
	// The extensional retractions are gone for good; the rest may rederive.
	for _, p := range overdel[:nDels] {
		delete(deleted, p.key)
	}
	overdel = overdel[nDels:]

	// Phase 3 — rederive from the surviving store, to fixpoint: a fact
	// restored by an alternative derivation can in turn restore others.
	for changed := true; changed && len(deleted) > 0; {
		if err := e.deltaRound(&res, nil); err != nil {
			return res, err
		}
		changed = false
		for _, p := range overdel {
			k, f := p.key, p.f
			if _, gone := deleted[k]; !gone {
				continue // rederived in an earlier pass
			}
			ok, premises, err := e.rederive(ec, f)
			if err != nil {
				return res, err
			}
			if !ok {
				continue
			}
			_, bytes := e.rel(f.Pred).insert(f, k)
			e.addIndexBytes(bytes)
			if e.prov != nil {
				e.prov[k] = Derivation{Rule: premises.rule, Premises: premises.facts}
			}
			delete(deleted, k)
			res.Rederived++
			changed = true
		}
	}

	// Phase 4 — insert, ordinary semi-naive rounds seeded with the additions.
	// The pre-delta store was a fixpoint and DRed restored one, so only
	// delta-restricted jobs can fire. A forward derivation that re-creates an
	// overdeleted fact is a rederivation (net no change), not an addition.
	added := make(map[string]Fact)
	delta = make(map[string][]Fact)
	for _, f := range adds {
		if e.Assert(f) {
			delta[f.Pred] = append(delta[f.Pred], f)
		}
	}
	for len(delta) > 0 {
		if err := e.deltaRound(&res, delta); err != nil {
			return res, err
		}
		next := make(map[string][]Fact)
		emit := func(h Fact, ec *evalCtx) {
			k := h.Key()
			isNew, bytes := e.rel(h.Pred).insert(h, k)
			e.addIndexBytes(bytes)
			if !isNew {
				e.dupCount++
				return
			}
			e.derivedCount++
			if b := e.opts.Budget; b.MaxFacts > 0 && e.derivedCount > b.MaxFacts {
				e.trip(LimitFacts, b.MaxFacts, nil)
			}
			if e.prov != nil {
				e.prov[k] = Derivation{Rule: ec.curRule, Premises: ec.snapshotPremises()}
			}
			if _, was := deleted[k]; was {
				delete(deleted, k)
				res.Rederived++
			} else {
				added[k] = h
			}
			next[h.Pred] = append(next[h.Pred], h)
		}
		if err := e.deltaJoin(ec, delta, emit); err != nil {
			return res, err
		}
		delta = next
	}

	res.Added = make([]Fact, 0, len(added))
	for _, f := range added {
		res.Added = append(res.Added, f)
	}
	res.Removed = make([]Fact, 0, len(deleted))
	for _, f := range deleted {
		res.Removed = append(res.Removed, f)
	}
	SortFacts(res.Added)
	SortFacts(res.Removed)
	res.Rounds = e.rounds
	return res, nil
}

// deltaRound accounts one delta round against MaxRounds, the context, and
// MaxDeltaQueue (sized by the pending delta).
func (e *Engine) deltaRound(res *DeltaResult, delta map[string][]Fact) error {
	if se := e.stopError(); se != nil {
		return se
	}
	if err := e.checkCtx(); err != nil {
		return err
	}
	if e.rounds >= e.opts.MaxRounds {
		return e.trip(LimitRounds, e.opts.MaxRounds, nil)
	}
	e.rounds++
	if b := e.opts.Budget; b.MaxDeltaQueue > 0 {
		pending := 0
		for _, fs := range delta {
			pending += len(fs)
		}
		if pending > b.MaxDeltaQueue {
			return e.trip(LimitDeltaQueue, b.MaxDeltaQueue, nil)
		}
	}
	return nil
}

// deltaJoin runs one semi-naive round: every rule evaluated once per positive
// body occurrence whose predicate has pending delta facts, with that
// occurrence restricted to the delta. Evaluation is sequential — delta
// batches are small by design, and the emit callbacks mutate shared maps.
func (e *Engine) deltaJoin(ec *evalCtx, delta map[string][]Fact, emit emitFn) error {
	for ri, rule := range e.prog.Rules {
		for li, l := range rule.Body {
			if l.Kind != LitAtom {
				continue
			}
			df := delta[l.Atom.Pred]
			if len(df) == 0 {
				continue
			}
			if err := e.evalJobObserved(ec, chaseJob{ri: ri, deltaFacts: df, deltaLit: li}, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// derivationTrace carries the rule and premises of a successful rederivation
// for provenance.
type derivationTrace struct {
	rule  string
	facts []Fact
}

// rederive reports whether f has a derivation in the current store: some rule
// with a head matching f whose body is satisfiable under the head binding.
// The check stops at the first satisfying assignment.
func (e *Engine) rederive(ec *evalCtx, f Fact) (bool, derivationTrace, error) {
	var trace derivationTrace
	binding := ec.binding
	for ri := range e.prog.Rules {
		rule, meta := &e.prog.Rules[ri], &e.ruleMeta[ri]
		for _, h := range rule.Head {
			if h.Pred != f.Pred || len(h.Terms) != len(f.Args) {
				continue
			}
			clear(binding)
			ec.trail = ec.trail[:0]
			ok := true
			for i, t := range h.Terms {
				switch tt := t.(type) {
				case Constant:
					ok = valueEqual(tt.Value, f.Args[i])
				case Variable:
					if v, bound := binding[tt]; bound {
						ok = valueEqual(v, f.Args[i])
					} else {
						binding[tt] = f.Args[i]
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			if e.prov != nil {
				trace.facts = trace.facts[:0]
			}
			c0 := ec.candidates
			sat, err := e.bodySatisfiable(ec, rule, meta.order, 0, &trace)
			if st := e.stats; st != nil {
				st.rules[ri].Candidates += ec.candidates - c0
			}
			if err != nil {
				return false, trace, err
			}
			if sat {
				trace.rule = meta.label
				return true, trace, nil
			}
		}
	}
	return false, trace, nil
}

// bodySatisfiable walks the rule body in plan order under ec's binding (the
// head binding on entry) looking for one satisfying assignment, backtracking
// like evalBody but returning at the first success. When provenance is on,
// trace accumulates the matched body facts of the successful path.
func (e *Engine) bodySatisfiable(ec *evalCtx, rule *Rule, order []int, pos int, trace *derivationTrace) (bool, error) {
	if err := ec.step(); err != nil {
		return false, err
	}
	if pos == len(order) {
		return true, nil
	}
	l := &rule.Body[order[pos]]
	binding := ec.binding
	switch l.Kind {
	case LitAtom:
		mark := len(ec.trail)
		for c, i := e.lookup(l.Atom, binding), 0; i < c.len(); i++ {
			f := c.at(i)
			ec.candidates++
			if !bindAtom(l.Atom, f, binding, &ec.trail) {
				continue
			}
			sat, err := e.bodySatisfiable(ec, rule, order, pos+1, trace)
			if err != nil {
				return false, err
			}
			if sat {
				if e.prov != nil {
					trace.facts = append(trace.facts, f)
				}
				// Leave the binding as-is: the caller discards it.
				return true, nil
			}
			unbind(binding, &ec.trail, mark)
		}
		return false, nil

	case LitCmp:
		lv, err := e.evalExpr(l.Left, binding)
		if err != nil {
			return false, err
		}
		rv, err := e.evalExpr(l.Right, binding)
		if err != nil {
			return false, err
		}
		if !compare(l.Cmp, lv, rv) {
			return false, nil
		}
		return e.bodySatisfiable(ec, rule, order, pos+1, trace)

	case LitAssign:
		v, err := e.evalExpr(l.Expr, binding)
		if err != nil {
			return false, err
		}
		if old, bound := binding[l.Var]; bound {
			if !valueEqual(old, v) {
				return false, nil
			}
			return e.bodySatisfiable(ec, rule, order, pos+1, trace)
		}
		binding[l.Var] = v
		sat, err := e.bodySatisfiable(ec, rule, order, pos+1, trace)
		if !sat {
			delete(binding, l.Var)
		}
		return sat, err
	}
	// LitNot and LitAgg are unreachable: incrementalOK refused them.
	return false, fmt.Errorf("datalog: literal kind %d in incremental rederivation", l.Kind)
}

// Retract removes one extensional fact from the store, maintaining the
// positional indexes, and reports whether it was present. It performs no
// derived-fact maintenance — use ApplyDelta to keep the fixpoint consistent.
// Like Assert, it requires exclusive access.
func (e *Engine) Retract(f Fact) bool {
	r, ok := e.rels[f.Pred]
	if !ok || !r.remove(f) {
		return false
	}
	if e.prov != nil {
		delete(e.prov, f.Key())
	}
	return true
}

// remove deletes a fact by swapping the last fact into its slot, fixing every
// built positional index: the removed fact leaves its buckets, and the moved
// fact's bucket entries repoint from the old last slot to the freed one.
// Like insert, remove requires exclusive access.
func (r *relation) remove(f Fact) bool {
	k := f.Key()
	if !r.keys[k] {
		return false
	}
	delete(r.keys, k)

	// Locate the slice slot, through a built index when one exists.
	idx := -1
	mask := r.built.Load()
	if mask != 0 {
		for pos := 0; pos < len(f.Args) && pos < len(r.index) && pos < 64; pos++ {
			if mask&(1<<uint(pos)) == 0 {
				continue
			}
			for _, i := range r.index[pos][encodeValue(f.Args[pos])] {
				if r.facts[i].Key() == k {
					idx = i
					break
				}
			}
			break // any one built position holds every fact
		}
	}
	if idx == -1 {
		for i := range r.facts {
			if r.facts[i].Key() == k {
				idx = i
				break
			}
		}
	}

	last := len(r.facts) - 1
	removed := r.facts[idx]
	moved := r.facts[last]
	if mask != 0 {
		for pos := 0; pos < len(r.index) && pos < 64; pos++ {
			if mask&(1<<uint(pos)) == 0 {
				continue
			}
			// Drop the removed fact's bucket entry (order within a bucket
			// is immaterial: swap-remove).
			if pos < len(removed.Args) {
				ev := encodeValue(removed.Args[pos])
				b := r.index[pos][ev]
				for j, i := range b {
					if i == idx {
						b[j] = b[len(b)-1]
						b = b[:len(b)-1]
						break
					}
				}
				if len(b) == 0 {
					delete(r.index[pos], ev)
				} else {
					r.index[pos][ev] = b
				}
			}
			// Repoint the moved fact's entry from its old slot to the freed
			// one (after the drop, so a shared bucket cannot confuse the two).
			if idx != last && pos < len(moved.Args) {
				b := r.index[pos][encodeValue(moved.Args[pos])]
				for j, i := range b {
					if i == last {
						b[j] = idx
						break
					}
				}
			}
		}
	}
	r.facts[idx] = moved
	r.facts[len(r.facts)-1] = Fact{}
	r.facts = r.facts[:last]
	return true
}
