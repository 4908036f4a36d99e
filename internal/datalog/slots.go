package datalog

import (
	"fmt"
	"strconv"
	"strings"
)

// Slot-compiled bindings (DESIGN.md §7.6). planRule numbers a rule's
// variables once, and every term, expression and key the chase evaluates
// refers to a variable by its slot: a join level binds a variable by writing
// evalCtx.vals[slot] and undoes it by clearing evalCtx.set[slot], where it
// once inserted into and deleted from a map[Variable]any. Query compiles its
// goal the same way, so the chase and goal answering share one evaluator.

// termKind discriminates compiled terms.
type termKind uint8

const (
	termSlot  termKind = iota // a variable: compared with or bound to its slot
	termConst                 // a ground value
	termWild                  // "_" in a body or goal atom: matches anything, binds nothing
	termExist                 // a head variable no body literal binds: an invented null
)

// cterm is a compiled term.
type cterm struct {
	kind termKind
	slot int      // termSlot
	val  any      // termConst
	name Variable // termSlot, termExist: for error messages and null invention
}

// catom is a compiled atom.
type catom struct {
	pred  string
	terms []cterm
}

// cexpr is a compiled expression: a term (op 0), arithmetic on args[0] and
// args[1] (op '+', '-', '*', '/'), or the builtin call #name(args...)
// (op '#'). Builtins resolve by name at call time, since RegisterBuiltin may
// run after NewEngine.
type cexpr struct {
	op   byte
	term cterm
	name string
	args []cexpr
}

// clit is the compiled form of one body literal; the Literal beside it still
// supplies the kind and the comparison or aggregation operator.
type clit struct {
	atom    catom // LitAtom, LitNot
	l, r    cexpr // LitCmp operands; l is also the LitAssign expression and the LitAgg value
	target  int   // LitAssign, LitAgg: the slot assigned
	contrib []int // LitAgg: the contributor slots
}

// slotter numbers variables in order of first appearance.
type slotter map[Variable]int

func (s slotter) of(v Variable) int {
	i, ok := s[v]
	if !ok {
		i = len(s)
		s[v] = i
	}
	return i
}

// compileAtom compiles a body or goal atom: "_" is a wildcard there.
func (s slotter) compileAtom(a Atom) catom {
	c := catom{pred: a.Pred, terms: make([]cterm, len(a.Terms))}
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			c.terms[i] = cterm{kind: termConst, val: tt.Value}
		case Variable:
			if tt == "_" {
				c.terms[i] = cterm{kind: termWild}
			} else {
				c.terms[i] = cterm{kind: termSlot, slot: s.of(tt), name: tt}
			}
		}
	}
	return c
}

func (s slotter) compileExpr(ex Expr) cexpr {
	switch x := ex.(type) {
	case TermExpr:
		switch t := x.Term.(type) {
		case Constant:
			return cexpr{term: cterm{kind: termConst, val: t.Value}}
		case Variable:
			return cexpr{term: cterm{kind: termSlot, slot: s.of(t), name: t}}
		}
	case BinExpr:
		return cexpr{op: x.Op, args: []cexpr{s.compileExpr(x.L), s.compileExpr(x.R)}}
	case CallExpr:
		c := cexpr{op: '#', name: x.Name, args: make([]cexpr, len(x.Args))}
		for i, a := range x.Args {
			c.args[i] = s.compileExpr(a)
		}
		return c
	}
	// Unreachable for parsed programs; evaluates to a "bad expression" error.
	return cexpr{op: '?', name: fmt.Sprint(ex)}
}

// compileRule fills in the slot form of a planned rule: its body literals,
// head atoms (existential variables become invented nulls) and the slots of
// the frontier that keys those nulls.
func compileRule(r Rule, m *ruleMeta) {
	s := slotter{}
	m.lits = make([]clit, len(r.Body))
	for i, l := range r.Body {
		c := &m.lits[i]
		switch l.Kind {
		case LitAtom, LitNot:
			c.atom = s.compileAtom(l.Atom)
		case LitCmp:
			c.l, c.r = s.compileExpr(l.Left), s.compileExpr(l.Right)
		case LitAssign:
			c.l, c.target = s.compileExpr(l.Expr), s.of(l.Var)
		case LitAgg:
			c.l, c.target = s.compileExpr(l.AggValue), s.of(l.Var)
			for _, v := range l.Contributors {
				c.contrib = append(c.contrib, s.of(v))
			}
		}
	}
	m.head = make([]catom, len(r.Head))
	for hi, h := range r.Head {
		c := catom{pred: h.Pred, terms: make([]cterm, len(h.Terms))}
		for i, t := range h.Terms {
			switch tt := t.(type) {
			case Constant:
				c.terms[i] = cterm{kind: termConst, val: tt.Value}
			case Variable:
				if m.existVars[tt] {
					c.terms[i] = cterm{kind: termExist, name: tt}
				} else {
					c.terms[i] = cterm{kind: termSlot, slot: s.of(tt), name: tt}
				}
			}
		}
		m.head[hi] = c
	}
	m.frontier = make([]int, len(m.headVars))
	for i, v := range m.headVars {
		m.frontier[i] = s.of(v)
	}
	m.nslots = len(s)
}

// reset sizes the slot frame for n variables, all unbound.
func (ec *evalCtx) reset(n int) {
	if cap(ec.vals) < n {
		ec.vals, ec.set = make([]any, n), make([]bool, n)
	}
	ec.vals, ec.set = ec.vals[:n], ec.set[:n]
	clear(ec.set)
	ec.trail = ec.trail[:0]
}

// value returns a term's value under the frame and whether it has one.
func (ec *evalCtx) value(t *cterm) (any, bool) {
	switch t.kind {
	case termConst:
		return t.val, true
	case termSlot:
		return ec.vals[t.slot], ec.set[t.slot]
	}
	return nil, false
}

// bindSlot binds a slot and pushes it on the trail.
func (ec *evalCtx) bindSlot(slot int, v any) {
	ec.vals[slot], ec.set[slot] = v, true
	ec.trail = append(ec.trail, slot)
}

// bind unifies an atom with a fact of its relation under the frame, pushing
// every slot it binds onto the trail. A failed unification undoes its own
// bindings; a successful one is undone by unbind to the trail length the
// caller noted before the call. The fact comes from the atom's own relation
// (or its delta), so only the arity is checked, not the predicate.
func (ec *evalCtx) bind(a *catom, f Fact) bool {
	if len(a.terms) != len(f.Args) {
		return false
	}
	mark := len(ec.trail)
	for i := range a.terms {
		t := &a.terms[i]
		switch t.kind {
		case termConst:
			if !valueEqual(t.val, f.Args[i]) {
				ec.unbind(mark)
				return false
			}
		case termSlot:
			if ec.set[t.slot] {
				if !valueEqual(ec.vals[t.slot], f.Args[i]) {
					ec.unbind(mark)
					return false
				}
			} else {
				ec.bindSlot(t.slot, f.Args[i])
			}
		}
	}
	return true
}

// unbind clears the slots bound since the trail was mark long.
func (ec *evalCtx) unbind(mark int) {
	for _, s := range ec.trail[mark:] {
		ec.set[s] = false
	}
	ec.trail = ec.trail[:mark]
}

// eval evaluates a compiled expression under the frame.
func (ec *evalCtx) eval(x *cexpr) (any, error) {
	switch x.op {
	case 0:
		v, ok := ec.value(&x.term)
		if !ok {
			return nil, fmt.Errorf("datalog: unbound variable %s in expression", x.term.name)
		}
		return v, nil
	case '+', '-', '*', '/':
		lv, err := ec.eval(&x.args[0])
		if err != nil {
			return nil, err
		}
		rv, err := ec.eval(&x.args[1])
		if err != nil {
			return nil, err
		}
		return arith(x.op, lv, rv)
	case '#':
		args := make([]any, len(x.args))
		for i := range x.args {
			v, err := ec.eval(&x.args[i])
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		if fn, ok := ec.e.builtins[x.name]; ok {
			return fn(args)
		}
		if strings.HasPrefix(x.name, "sk") {
			return NewSkolem(x.name, args...), nil
		}
		return nil, fmt.Errorf("datalog: unknown builtin #%s", x.name)
	}
	return nil, fmt.Errorf("datalog: bad expression %s", x.name)
}

// arith applies a binary arithmetic operator; '+' on a non-number
// concatenates.
func arith(op byte, lv, rv any) (any, error) {
	lf, lok := toFloat(lv)
	rf, rok := toFloat(rv)
	if !lok || !rok {
		if op == '+' {
			return fmt.Sprintf("%v%v", lv, rv), nil
		}
		return nil, fmt.Errorf("datalog: arithmetic on non-numeric values %v, %v", lv, rv)
	}
	switch op {
	case '+':
		return lf + rf, nil
	case '-':
		return lf - rf, nil
	case '*':
		return lf * rf, nil
	}
	if rf == 0 {
		return nil, fmt.Errorf("datalog: division by zero")
	}
	return lf / rf, nil
}

// appendFrontier appends the key of the frame's existential frontier — the
// rule number and every bound head variable with its value, in name order —
// which invented nulls hash.
func (ec *evalCtx) appendFrontier(dst []byte) []byte {
	meta := ec.meta
	dst = append(dst, 'r')
	dst = strconv.AppendInt(dst, int64(ec.ri), 10)
	for i, s := range meta.frontier {
		if ec.set[s] {
			dst = append(dst, '|')
			dst = append(dst, meta.headVars[i]...)
			dst = append(dst, '=')
			dst = appendValue(dst, ec.vals[s])
		}
	}
	return dst
}

// appendGroupKey appends the aggregation group of the frame's body match:
// the predicate of the head atom the aggregate defines plus the values of
// its non-target arguments. Keying on the head predicate (not the rule) lets
// the msum calls of several rules contribute to one total, as the paper
// requires for Algorithm 8 ("the two monotonic summations of Rules (2) and
// (3) contribute to the same total, one for each (F, y) pair").
func (ec *evalCtx) appendGroupKey(dst []byte) ([]byte, error) {
	meta := ec.meta
	h := &meta.head[meta.aggHead]
	dst = append(dst, h.pred...)
	for i := range h.terms {
		dst = append(dst, '|')
		if meta.aggSkip[i] {
			dst = append(dst, '@') // target position: excluded from the group
			continue
		}
		v, ok := ec.value(&h.terms[i])
		if !ok {
			return dst, fmt.Errorf("datalog: rule %q: aggregation group variable %s unbound", ec.rule.Label, h.terms[i].name)
		}
		dst = appendValue(dst, v)
	}
	return dst, nil
}

// appendContrib appends the contributor key of an aggregate literal: the
// rule number and the contributor values.
func (ec *evalCtx) appendContrib(dst []byte, slots []int) []byte {
	dst = append(dst, 'r')
	dst = strconv.AppendInt(dst, int64(ec.ri), 10)
	dst = append(dst, '|')
	for i, s := range slots {
		if i > 0 {
			dst = append(dst, '|')
		}
		if ec.set[s] {
			dst = appendValue(dst, ec.vals[s])
		}
	}
	return dst
}
