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
// Monotonic aggregation follows DESIGN.md §5 by naive fixpoint: every
// contributor tuple keeps its best contribution (the largest, the smallest
// under mmin), a group's total is recomputed from all of them, and the
// iteration runs until neither a fact nor a contribution changes. The head
// atom an aggregate groups by holds one fact per group, at the group's
// current total: a change of the total retracts the fact of the old one,
// and a binding that saw a total the group has since left records none.

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
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

	// agg holds the contributions: group key → contributor key → best
	// contribution. aggChanged records a change in the iteration running.
	// aggTotal holds each group's current total, and aggCur the fact that
	// records it, if any.
	agg        map[string]map[string]float64
	aggChanged bool
	aggTotal   map[string]float64
	aggCur     map[string]Fact
}

func newReference(prog *Program) (*refEvaluator, error) {
	r := &refEvaluator{
		prog:     prog,
		builtins: map[string]Builtin{},
		facts:    map[string][]Fact{},
		keys:     map[string]bool{},
		agg:      map[string]map[string]float64{},
		aggTotal: map[string]float64{},
		aggCur:   map[string]Fact{},
	}
	for _, rule := range prog.Rules {
		if err := rule.Validate(); err != nil {
			return nil, err
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

// refKey is the reference's fact identity: the predicate and every
// argument's canonical encoding, each length-prefixed, so no two argument
// lists share a key (Fact.Key joins them with ',', and p("a,sb", "c") and
// p("a", "b,sc") both render as p(sa,sb,sc)).
func refKey(f Fact) string {
	b := append([]byte(f.Pred), '(')
	for _, a := range f.Args {
		enc := encodeValue(a)
		b = strconv.AppendInt(b, int64(len(enc)), 10)
		b = append(b, ':')
		b = append(b, enc...)
	}
	return string(append(b, ')'))
}

func (r *refEvaluator) assert(f Fact) bool {
	k := refKey(f)
	if r.keys[k] {
		return false
	}
	r.keys[k] = true
	r.facts[f.Pred] = append(r.facts[f.Pred], f)
	return true
}

// retract removes f from the store. The slice it leaves is a copy, so a
// loop ranging over the old one is undisturbed.
func (r *refEvaluator) retract(f Fact) {
	k := refKey(f)
	delete(r.keys, k)
	fs := r.facts[f.Pred]
	for i := range fs {
		if refKey(fs[i]) == k {
			r.facts[f.Pred] = append(fs[:i:i], fs[i+1:]...)
			return
		}
	}
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
// exhaustive linear scans. An aggregate literal records each binding's
// contribution and binds the group's total as it stands.
func (r *refEvaluator) bodyBindings(ri int, rule Rule, meta ruleMeta) ([]map[Variable]any, error) {
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
			case LitAgg:
				total, err := r.contribute(ri, rule, meta, l, b)
				if err != nil {
					return nil, err
				}
				nb := make(map[Variable]any, len(b)+1)
				for k, vv := range b {
					nb[k] = vv
				}
				nb[l.Var] = total
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
			r.aggChanged = false
			for _, ri := range stratum {
				rule := r.prog.Rules[ri]
				meta := r.metas[ri]
				bindings, err := r.bodyBindings(ri, rule, meta)
				if err != nil {
					return err
				}
				for _, b := range bindings {
					var frontier string
					if len(meta.existVars) > 0 {
						frontier = refFrontierKey(ri, meta.headVars, b)
					}
					// The group's fact records only its current total.
					gk, stale := "", false
					if meta.aggLit >= 0 && slices.Contains(meta.aggSkip, true) {
						if gk, err = r.groupKey(rule, meta, b); err != nil {
							return err
						}
						stale = b[rule.Body[meta.aggLit].Var] != r.aggTotal[gk]
					}
					for hi, h := range rule.Head {
						if stale && hi == meta.aggHead {
							continue
						}
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
						f := Fact{Pred: h.Pred, Args: args}
						if r.assert(f) {
							changed = true
							if gk != "" && hi == meta.aggHead {
								r.aggCur[gk] = f
							}
						}
					}
				}
			}
			changed = changed || r.aggChanged
		}
	}
	return nil
}

// groupKey renders the aggregation group of binding b: the head predicate
// of the rule's aggregate group atom and that atom's non-target arguments,
// as the engine keys it.
func (r *refEvaluator) groupKey(rule Rule, meta ruleMeta, b map[Variable]any) (string, error) {
	h := rule.Head[meta.aggHead]
	group := Fact{Pred: h.Pred + "/"}
	for i, t := range h.Terms {
		if meta.aggSkip[i] {
			group.Pred += "@"
			continue
		}
		group.Pred += "."
		switch tt := t.(type) {
		case Constant:
			group.Args = append(group.Args, tt.Value)
		case Variable:
			gv, ok := b[tt]
			if !ok {
				return "", fmt.Errorf("reference: aggregation group variable %s unbound", tt)
			}
			group.Args = append(group.Args, gv)
		}
	}
	return refKey(group), nil
}

// contribute records the contribution of binding b to its group under its
// contributor key (the rule and the contributor values), and returns the
// group's total. A total that changes retracts the fact recording the old
// one.
func (r *refEvaluator) contribute(ri int, rule Rule, meta ruleMeta, l Literal, b map[Variable]any) (float64, error) {
	v, err := refEvalExpr(r.builtins, l.AggValue, b)
	if err != nil {
		return 0, err
	}
	fv, ok := toFloat(v)
	if !ok {
		return 0, fmt.Errorf("reference: aggregate value %v is not numeric", v)
	}
	gk, err := r.groupKey(rule, meta, b)
	if err != nil {
		return 0, err
	}
	contrib := Fact{Pred: fmt.Sprintf("r%d", ri)}
	for _, c := range l.Contributors {
		contrib.Args = append(contrib.Args, b[c])
	}
	ck := refKey(contrib)
	g := r.agg[gk]
	if g == nil {
		g = map[string]float64{}
		r.agg[gk] = g
	}
	if cur, seen := g[ck]; seen && (l.Agg == AggMin && fv >= cur || l.Agg != AggMin && fv <= cur) {
		return r.aggTotal[gk], nil
	}
	g[ck] = fv
	r.aggChanged = true
	// Summed in key order, so an unchanged set of contributions always
	// gives the same total.
	keys := make([]string, 0, len(g))
	for k := range g {
		keys = append(keys, k)
	}
	sortStrings(keys)
	total := 0.0
	switch l.Agg {
	case AggCount:
		total = float64(len(g))
	case AggMax:
		total = math.Inf(-1)
	case AggMin:
		total = math.Inf(1)
	case AggProd:
		total = 1
	}
	for _, k := range keys {
		switch c := g[k]; l.Agg {
		case AggSum:
			total += c
		case AggMax:
			total = math.Max(total, c)
		case AggMin:
			total = math.Min(total, c)
		case AggProd:
			total *= c
		}
	}
	if old, seen := r.aggTotal[gk]; !seen || total != old {
		r.aggTotal[gk] = total
		if f, ok := r.aggCur[gk]; ok {
			r.retract(f)
			delete(r.aggCur, gk)
		}
	}
	return total, nil
}

// factSet renders every fact of the given predicates as a sorted key list —
// the comparison form of the differential tests.
func (r *refEvaluator) factSet(preds []string) []string {
	var out []string
	for _, p := range preds {
		for _, f := range r.facts[p] {
			out = append(out, refKey(f))
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
