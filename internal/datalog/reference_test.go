package datalog

// The reference evaluator: a deliberately naive Datalog± interpreter used as
// the differential-testing oracle for the indexed production
// engine. It re-implements matching and fixpoint computation from scratch —
// full linear scans for every candidate lookup, copied binding maps instead
// of undo closures, canonical-encoding string comparison instead of
// valueEqual — so a bug in the engine's index maintenance, delta
// restriction, or typed equality shows up as a fact-set
// divergence rather than being mirrored by shared code.
//
// The reference deliberately shares one piece of the engine, which is
// specification rather than execution machinery: planRule, for the
// body-literal evaluation order (assignment and condition literals are only
// evaluable once their inputs are bound, and the set of bound head variables
// defines the existential frontier). It uses none of the slot form planRule
// also compiles: bindings are maps, expressions evaluate over them
// (refEvalExpr), and invented nulls hash a frontier key it builds itself
// (refFrontierKey) — null identity is part of the expected output of a
// deterministic chase, so the engine's key format is held against it too.
// The arithmetic and comparison primitives (arith, compare, toFloat) are
// shared: they are the value semantics, not the binding machinery.
//
// Monotonic aggregation is out of scope (the random programs never emit it);
// newReference rejects aggregate rules loudly.

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

func sortStrings(s []string) { sort.Strings(s) }

type refEvaluator struct {
	prog     *Program
	builtins map[string]Builtin
	metas    []ruleMeta
	strata   [][]int

	facts map[string][]Fact
	keys  map[string]bool
}

func newReference(prog *Program) (*refEvaluator, error) {
	r := &refEvaluator{
		prog:     prog,
		builtins: map[string]Builtin{},
		facts:    map[string][]Fact{},
		keys:     map[string]bool{},
	}
	for i, rule := range prog.Rules {
		if err := rule.Validate(); err != nil {
			return nil, err
		}
		for _, l := range rule.Body {
			if l.Kind == LitAgg {
				return nil, fmt.Errorf("reference evaluator does not support aggregates (rule %d)", i)
			}
		}
		meta, err := planRule(rule)
		if err != nil {
			return nil, err
		}
		r.metas = append(r.metas, meta)
	}
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	r.strata = strata
	return r, nil
}

func (r *refEvaluator) assert(f Fact) bool {
	k := f.Key()
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	r.facts[f.Pred] = append(r.facts[f.Pred], f)
	return true
}

// refUnify matches an atom against a fact under a binding, returning a fresh
// extended binding (the original is never mutated). Ground values compare by
// canonical encoding — the specification of term equality.
func refUnify(a Atom, f Fact, b map[Variable]any) (map[Variable]any, bool) {
	if a.Pred != f.Pred || len(a.Terms) != len(f.Args) {
		return nil, false
	}
	nb := make(map[Variable]any, len(b)+len(a.Terms))
	for k, v := range b {
		nb[k] = v
	}
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			if encodeValue(tt.Value) != encodeValue(f.Args[i]) {
				return nil, false
			}
		case Variable:
			if tt == "_" {
				continue
			}
			if v, bound := nb[tt]; bound {
				if encodeValue(v) != encodeValue(f.Args[i]) {
					return nil, false
				}
			} else {
				nb[tt] = f.Args[i]
			}
		}
	}
	return nb, true
}

// bodyBindings enumerates every binding satisfying the rule body, by
// exhaustive linear scans.
func (r *refEvaluator) bodyBindings(rule Rule, meta ruleMeta) ([]map[Variable]any, error) {
	bindings := []map[Variable]any{{}}
	for _, li := range meta.order {
		l := rule.Body[li]
		var next []map[Variable]any
		for _, b := range bindings {
			switch l.Kind {
			case LitAtom:
				for _, f := range r.facts[l.Atom.Pred] {
					if nb, ok := refUnify(l.Atom, f, b); ok {
						next = append(next, nb)
					}
				}
			case LitNot:
				found := false
				for _, f := range r.facts[l.Atom.Pred] {
					if _, ok := refUnify(l.Atom, f, b); ok {
						found = true
						break
					}
				}
				if !found {
					next = append(next, b)
				}
			case LitCmp:
				lv, err := refEvalExpr(r.builtins, l.Left, b)
				if err != nil {
					return nil, err
				}
				rv, err := refEvalExpr(r.builtins, l.Right, b)
				if err != nil {
					return nil, err
				}
				if compare(l.Cmp, lv, rv) {
					next = append(next, b)
				}
			case LitAssign:
				v, err := refEvalExpr(r.builtins, l.Expr, b)
				if err != nil {
					return nil, err
				}
				if old, bound := b[l.Var]; bound {
					if encodeValue(old) == encodeValue(v) {
						next = append(next, b)
					}
					continue
				}
				nb := make(map[Variable]any, len(b)+1)
				for k, vv := range b {
					nb[k] = vv
				}
				nb[l.Var] = v
				next = append(next, nb)
			}
		}
		bindings = next
		if len(bindings) == 0 {
			return nil, nil
		}
	}
	return bindings, nil
}

// run computes the fixpoint: stratum by stratum, re-deriving every rule from
// the full store until an iteration adds nothing.
func (r *refEvaluator) run() error {
	for _, stratum := range r.strata {
		for changed := true; changed; {
			changed = false
			for _, ri := range stratum {
				rule := r.prog.Rules[ri]
				meta := r.metas[ri]
				bindings, err := r.bodyBindings(rule, meta)
				if err != nil {
					return err
				}
				for _, b := range bindings {
					var frontier string
					if len(meta.existVars) > 0 {
						frontier = refFrontierKey(ri, meta.headVars, b)
					}
					for _, h := range rule.Head {
						args := make([]any, len(h.Terms))
						for i, t := range h.Terms {
							switch tt := t.(type) {
							case Constant:
								args[i] = tt.Value
							case Variable:
								if v, ok := b[tt]; ok {
									args[i] = v
								} else if meta.existVars[tt] {
									h := fnv.New64a()
									h.Write([]byte(frontier + "|" + string(tt)))
									args[i] = Null{ID: h.Sum64()}
								} else {
									return fmt.Errorf("reference: head variable %s unbound in rule %d", tt, ri)
								}
							}
						}
						if r.assert(Fact{Pred: h.Pred, Args: args}) {
							changed = true
						}
					}
				}
			}
		}
	}
	return nil
}

// factSet renders every fact of the given predicates as a sorted key list —
// the comparison form of the differential tests.
func (r *refEvaluator) factSet(preds []string) []string {
	var out []string
	for _, p := range preds {
		for _, f := range r.facts[p] {
			out = append(out, f.Key())
		}
	}
	sortStrings(out)
	return out
}

// refFrontierKey renders the existential frontier of a binding: the rule
// number, then "|V=value" for every bound head variable in name order.
func refFrontierKey(ri int, headVars []Variable, b map[Variable]any) string {
	key := fmt.Sprintf("r%d", ri)
	for _, v := range headVars {
		if val, ok := b[v]; ok {
			key += "|" + string(v) + "=" + encodeValue(val)
		}
	}
	return key
}

// refEvalExpr evaluates an expression over a binding map.
func refEvalExpr(builtins map[string]Builtin, ex Expr, b map[Variable]any) (any, error) {
	switch x := ex.(type) {
	case TermExpr:
		switch t := x.Term.(type) {
		case Constant:
			return t.Value, nil
		case Variable:
			v, ok := b[t]
			if !ok {
				return nil, fmt.Errorf("reference: unbound variable %s in expression", t)
			}
			return v, nil
		}
	case BinExpr:
		lv, err := refEvalExpr(builtins, x.L, b)
		if err != nil {
			return nil, err
		}
		rv, err := refEvalExpr(builtins, x.R, b)
		if err != nil {
			return nil, err
		}
		return arith(x.Op, lv, rv)
	case CallExpr:
		args := make([]any, len(x.Args))
		for i, a := range x.Args {
			v, err := refEvalExpr(builtins, a, b)
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
		return nil, fmt.Errorf("reference: unknown builtin #%s", x.Name)
	}
	return nil, fmt.Errorf("reference: bad expression %v", ex)
}
