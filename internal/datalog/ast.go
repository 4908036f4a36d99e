package datalog

import (
	"fmt"
	"strings"
)

// Atom is a predicate applied to terms.
type Atom struct {
	Pred  string
	Terms []Term
}

func (a Atom) String() string {
	parts := make([]string, len(a.Terms))
	for i, t := range a.Terms {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// CmpOp is a comparison operator in a body condition.
type CmpOp int

// Comparison operators.
const (
	OpEq CmpOp = iota
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
)

func (op CmpOp) String() string {
	switch op {
	case OpEq:
		return "=="
	case OpNeq:
		return "!="
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	}
	return "?"
}

// Expr is an arithmetic/functional expression evaluated against a binding.
type Expr interface {
	isExpr()
	String() string
	// vars appends the variables mentioned by the expression.
	vars(set map[Variable]bool)
}

// TermExpr lifts a term (variable or constant) into an expression.
type TermExpr struct{ Term Term }

func (TermExpr) isExpr()          {}
func (e TermExpr) String() string { return e.Term.String() }
func (e TermExpr) vars(set map[Variable]bool) {
	if v, ok := e.Term.(Variable); ok {
		set[v] = true
	}
}

// BinExpr is a binary arithmetic expression: +, -, *, /.
type BinExpr struct {
	Op   byte // '+', '-', '*', '/'
	L, R Expr
}

func (BinExpr) isExpr() {}
func (e BinExpr) String() string {
	return "(" + e.L.String() + " " + string(e.Op) + " " + e.R.String() + ")"
}
func (e BinExpr) vars(set map[Variable]bool) { e.L.vars(set); e.R.vars(set) }

// CallExpr is a built-in function application: #name(args...).
type CallExpr struct {
	Name string
	Args []Expr
}

func (CallExpr) isExpr() {}
func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return "#" + e.Name + "(" + strings.Join(parts, ", ") + ")"
}
func (e CallExpr) vars(set map[Variable]bool) {
	for _, a := range e.Args {
		a.vars(set)
	}
}

// AggOp is a monotonic aggregation operator (Section 4, "monotonic
// aggregation"; the msum of Algorithms 5, 6 and 8).
type AggOp int

// Monotonic aggregation operators.
const (
	AggSum AggOp = iota
	AggProd
	AggMax
	AggMin
	AggCount
)

func (op AggOp) String() string {
	switch op {
	case AggSum:
		return "msum"
	case AggProd:
		return "mprod"
	case AggMax:
		return "mmax"
	case AggMin:
		return "mmin"
	case AggCount:
		return "mcount"
	}
	return "?"
}

// Literal is one element of a rule body.
type Literal struct {
	// Exactly one of the following shapes is populated.

	// Positive atom (Kind == LitAtom) or negated atom (LitNot).
	Atom Atom

	// Condition (LitCmp): L op R over bound expressions.
	Cmp   CmpOp
	Left  Expr
	Right Expr

	// Assignment (LitAssign): Var = Expr with Expr's variables bound.
	Var  Variable
	Expr Expr

	// Aggregate (LitAgg): Var = aggop(ValueExpr, <Contributors...>).
	Agg          AggOp
	AggValue     Expr
	Contributors []Variable

	Kind LitKind
}

// LitKind discriminates body literal shapes.
type LitKind int

// Body literal kinds.
const (
	LitAtom LitKind = iota
	LitNot
	LitCmp
	LitAssign
	LitAgg
)

func (l Literal) String() string {
	switch l.Kind {
	case LitAtom:
		return l.Atom.String()
	case LitNot:
		return "not " + l.Atom.String()
	case LitCmp:
		return l.Left.String() + " " + l.Cmp.String() + " " + l.Right.String()
	case LitAssign:
		return l.Var.String() + " = " + l.Expr.String()
	case LitAgg:
		if len(l.Contributors) == 0 {
			return fmt.Sprintf("%s = %s(%s)", l.Var, l.Agg, l.AggValue)
		}
		vars := make([]string, len(l.Contributors))
		for i, v := range l.Contributors {
			vars[i] = v.String()
		}
		return fmt.Sprintf("%s = %s(%s, <%s>)", l.Var, l.Agg, l.AggValue, strings.Join(vars, ", "))
	}
	return "?"
}

// Rule is an existential rule: Body → Head. Head variables that do not occur
// in the body and are not produced by assignments are existential; the chase
// Skolemizes them deterministically over the rule's frontier.
type Rule struct {
	Head []Atom
	Body []Literal

	// Label is an optional human-readable name used in errors and traces.
	Label string
}

func (r Rule) String() string {
	bodyParts := make([]string, len(r.Body))
	for i, l := range r.Body {
		bodyParts[i] = l.String()
	}
	headParts := make([]string, len(r.Head))
	for i, a := range r.Head {
		headParts[i] = a.String()
	}
	return strings.Join(bodyParts, ", ") + " -> " + strings.Join(headParts, ", ") + "."
}

// Program is a set of rules evaluated together.
type Program struct {
	Rules []Rule
}

func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// HeadPreds returns the set of intensional predicates (those appearing in
// some rule head).
func (p *Program) HeadPreds() map[string]bool {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		for _, a := range r.Head {
			set[a.Pred] = true
		}
	}
	return set
}

// boundVars reports variables bound before body position i under
// left-to-right evaluation after reordering.
func bodyVarsOfAtom(a Atom, set map[Variable]bool) {
	for _, t := range a.Terms {
		if v, ok := t.(Variable); ok {
			set[v] = true
		}
	}
}

// Validate performs static checks: every condition/assignment/aggregate
// variable must be boundable by some ordering of the body; head variables
// must be body-bound, assigned, or existential (never both head-repeated and
// unbound in a way that is ambiguous). It returns the first problem found.
func (r Rule) Validate() error {
	// Compute the set of variables that can ever be bound: positive atom
	// variables plus assignment and aggregate targets.
	bindable := make(map[Variable]bool)
	for _, l := range r.Body {
		switch l.Kind {
		case LitAtom:
			bodyVarsOfAtom(l.Atom, bindable)
		case LitAssign, LitAgg:
			bindable[l.Var] = true
		}
	}
	need := func(e Expr, ctx string) error {
		set := make(map[Variable]bool)
		e.vars(set)
		for v := range set {
			if !bindable[v] {
				return fmt.Errorf("datalog: rule %q: %s uses unbound variable %s", r.Label, ctx, v)
			}
		}
		return nil
	}
	for _, l := range r.Body {
		switch l.Kind {
		case LitCmp:
			if err := need(l.Left, "condition"); err != nil {
				return err
			}
			if err := need(l.Right, "condition"); err != nil {
				return err
			}
		case LitAssign:
			if err := need(l.Expr, "assignment"); err != nil {
				return err
			}
		case LitAgg:
			if err := need(l.AggValue, "aggregate"); err != nil {
				return err
			}
			for _, v := range l.Contributors {
				if !bindable[v] {
					return fmt.Errorf("datalog: rule %q: aggregate contributor %s is unbound", r.Label, v)
				}
			}
		case LitNot:
			set := make(map[Variable]bool)
			bodyVarsOfAtom(l.Atom, set)
			for v := range set {
				if !bindable[v] {
					return fmt.Errorf("datalog: rule %q: negated atom uses unbound variable %s (unsafe negation)", r.Label, v)
				}
			}
		}
	}
	for _, a := range r.Body {
		for _, l := range r.Body {
			if a.Kind == LitAgg && l.Kind == LitCmp && !monotoneOn(l, a, r.Body) {
				return fmt.Errorf("datalog: rule %q: condition %s can hold of a partial %s total %s and not of "+
					"the final one (msum, mmax and mcount only rise, mmin only falls, mprod moves either way)",
					r.Label, l, a.Agg, a.Var)
			}
		}
	}
	if len(r.Head) == 0 {
		return fmt.Errorf("datalog: rule %q: empty head", r.Label)
	}
	return nil
}

// monotoneOn reports whether condition l of a rule with the given body stays
// true as aggregate a's target improves: it mentions neither the target nor
// a variable the body assigns from it, or compares the target alone, against
// an expression free of both, in the direction updateAgg moves it — down for
// mmin, up for msum, mmax and mcount. An mprod moves either way (a factor
// below 1 lowers it), so no condition on its target is monotone.
func monotoneOn(l, a Literal, body []Literal) bool {
	derived := map[Variable]bool{a.Var: true}
	mentions := func(e Expr) bool {
		set := map[Variable]bool{}
		e.vars(set)
		for v := range set {
			if derived[v] {
				return true
			}
		}
		return false
	}
	for range body { // each pass reaches one more assignment down a chain
		for _, b := range body {
			if b.Kind == LitAssign && mentions(b.Expr) {
				derived[b.Var] = true
			}
		}
	}
	if !mentions(l.Left) && !mentions(l.Right) {
		return true
	}
	target := Expr(TermExpr{Term: a.Var})
	op, other := l.Cmp, l.Right
	if l.Left != target { // c < S reads S > c
		op, other = map[CmpOp]CmpOp{OpLt: OpGt, OpLeq: OpGeq, OpGt: OpLt, OpGeq: OpLeq}[op], l.Left
	}
	if l.Left != target && l.Right != target || mentions(other) || a.Agg == AggProd {
		return false
	}
	if a.Agg == AggMin {
		return op == OpLt || op == OpLeq
	}
	return op == OpGt || op == OpGeq
}
