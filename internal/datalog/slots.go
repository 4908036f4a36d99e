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
// Slots, constants and every value an expression yields are values
// (value.go), as the rows they are matched against are.

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
	val  value    // termConst
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
// Constants enter sy.
func (s slotter) compileAtom(a Atom, sy *symtab) catom {
	c := catom{pred: a.Pred, terms: make([]cterm, len(a.Terms))}
	for i, t := range a.Terms {
		switch tt := t.(type) {
		case Constant:
			c.terms[i] = cterm{kind: termConst, val: sy.of(tt.Value)}
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

func (s slotter) compileExpr(ex Expr, sy *symtab) cexpr {
	switch x := ex.(type) {
	case TermExpr:
		switch t := x.Term.(type) {
		case Constant:
			return cexpr{term: cterm{kind: termConst, val: sy.of(t.Value)}}
		case Variable:
			return cexpr{term: cterm{kind: termSlot, slot: s.of(t), name: t}}
		}
	case BinExpr:
		return cexpr{op: x.Op, args: []cexpr{s.compileExpr(x.L, sy), s.compileExpr(x.R, sy)}}
	case CallExpr:
		c := cexpr{op: '#', name: x.Name, args: make([]cexpr, len(x.Args))}
		for i, a := range x.Args {
			c.args[i] = s.compileExpr(a, sy)
		}
		return c
	}
	// Unreachable for parsed programs; evaluates to a "bad expression" error.
	return cexpr{op: '?', name: fmt.Sprint(ex)}
}

// compileRule fills in the slot form of a planned rule: its body literals,
// head atoms (existential variables become invented nulls) and the slots of
// the frontier that keys those nulls. Constants enter sy.
func compileRule(r Rule, m *ruleMeta, sy *symtab) {
	s := slotter{}
	m.lits = make([]clit, len(r.Body))
	for i, l := range r.Body {
		c := &m.lits[i]
		switch l.Kind {
		case LitAtom, LitNot:
			c.atom = s.compileAtom(l.Atom, sy)
		case LitCmp:
			c.l, c.r = s.compileExpr(l.Left, sy), s.compileExpr(l.Right, sy)
		case LitAssign:
			c.l, c.target = s.compileExpr(l.Expr, sy), s.of(l.Var)
		case LitAgg:
			c.l, c.target = s.compileExpr(l.AggValue, sy), s.of(l.Var)
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
				c.terms[i] = cterm{kind: termConst, val: sy.of(tt.Value)}
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
		ec.vals, ec.set = make([]value, n), make([]bool, n)
	}
	ec.vals, ec.set = ec.vals[:n], ec.set[:n]
	clear(ec.set)
	ec.trail = ec.trail[:0]
}

// value returns a term's value under the frame and whether it has one.
func (ec *evalCtx) value(t *cterm) (value, bool) {
	switch t.kind {
	case termConst:
		return t.val, true
	case termSlot:
		return ec.vals[t.slot], ec.set[t.slot]
	}
	return value{}, false
}

// bindSlot binds a slot and pushes it on the trail.
func (ec *evalCtx) bindSlot(slot int, v value) {
	ec.vals[slot], ec.set[slot] = v, true
	ec.trail = append(ec.trail, slot)
}

// bind unifies an atom with a row of its relation under the frame, pushing
// every slot it binds onto the trail. A failed unification undoes its own
// bindings; a successful one is undone by unbind to the trail length the
// caller noted before the call. The row comes from the atom's own relation
// (or its delta), so it has the atom's arity.
func (ec *evalCtx) bind(a *catom, row []value) bool {
	mark := len(ec.trail)
	for i := range a.terms {
		t := &a.terms[i]
		switch t.kind {
		case termConst:
			if !ec.sy.eq(t.val, row[i]) {
				ec.unbind(mark)
				return false
			}
		case termSlot:
			if ec.set[t.slot] {
				if !ec.sy.eq(ec.vals[t.slot], row[i]) {
					ec.unbind(mark)
					return false
				}
			} else {
				ec.bindSlot(t.slot, row[i])
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
func (ec *evalCtx) eval(x *cexpr) (value, error) {
	switch x.op {
	case 0:
		v, ok := ec.value(&x.term)
		if !ok {
			return value{}, fmt.Errorf("datalog: unbound variable %s in expression", x.term.name)
		}
		return v, nil
	case '+', '-', '*', '/':
		lv, err := ec.eval(&x.args[0])
		if err != nil {
			return value{}, err
		}
		rv, err := ec.eval(&x.args[1])
		if err != nil {
			return value{}, err
		}
		return ec.sy.arith(x.op, lv, rv)
	case '#':
		// The arguments go on a stack shared with nested calls, which pop
		// their own before returning.
		base := len(ec.stack)
		defer func() { ec.stack = ec.stack[:base] }()
		for i := range x.args {
			v, err := ec.eval(&x.args[i])
			if err != nil {
				return value{}, err
			}
			ec.stack = append(ec.stack, v)
		}
		fn, ok := ec.e.builtins[x.name]
		if !ok && !strings.HasPrefix(x.name, "sk") {
			return value{}, fmt.Errorf("datalog: unknown builtin #%s", x.name)
		}
		args := make([]any, len(x.args))
		for i, v := range ec.stack[base:] {
			args[i] = ec.sy.any(v)
		}
		if !ok {
			return ec.sy.of(NewSkolem(x.name, args...)), nil
		}
		out, err := fn(args)
		if err != nil {
			return value{}, err
		}
		return ec.sy.of(out), nil
	}
	return value{}, fmt.Errorf("datalog: bad expression %s", x.name)
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
	return arithFloat(op, lf, rf)
}

func arithFloat(op byte, lf, rf float64) (float64, error) {
	switch op {
	case '+':
		return lf + rf, nil
	case '-':
		return lf - rf, nil
	case '*':
		return lf * rf, nil
	}
	if rf == 0 {
		return 0, fmt.Errorf("datalog: division by zero")
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
			dst = ec.sy.appendEnc(dst, ec.vals[s])
		}
	}
	return dst
}

// groupRow builds the aggregation group of the frame's body match in
// scratch: the values of the non-target arguments of the head atom the
// aggregate defines (the table, ruleMeta.aggKey, names the predicate and
// the target positions).
func (ec *evalCtx) groupRow() ([]value, error) {
	meta := ec.meta
	h := &meta.head[meta.aggHead]
	row := ec.grow[:0]
	for i := range h.terms {
		if meta.aggSkip[i] {
			continue
		}
		v, ok := ec.value(&h.terms[i])
		if !ok {
			return nil, fmt.Errorf("datalog: rule %q: aggregation group variable %s unbound", ec.rule.Label, h.terms[i].name)
		}
		row = append(row, v)
	}
	ec.grow = row
	return row, nil
}

// contribRow builds the contributor key of the frame's aggregate in scratch:
// the group, then the contributor values (the zero value for an unbound
// one).
func (ec *evalCtx) contribRow(g int) []value {
	row := append(ec.crow[:0], value{kindInt, uint64(g)})
	for _, s := range ec.meta.lits[ec.meta.aggLit].contrib {
		var v value
		if ec.set[s] {
			v = ec.vals[s]
		}
		row = append(row, v)
	}
	ec.crow = row
	return row
}
