// Package datalog implements the logic substrate of Vada-Link: a Datalog±
// engine in the style of the Vadalog system (Section 3 of the paper).
//
// The engine supports:
//
//   - existential rules (Datalog with existential quantification in rule
//     heads), evaluated by a semi-naive bottom-up chase with deterministic
//     Skolemization of existential variables;
//   - Skolem functions for OID invention (deterministic, injective, with
//     disjoint ranges per function symbol — the three properties required in
//     Section 4);
//   - comparison conditions and arithmetic assignments in rule bodies;
//   - monotonic aggregation (msum, mprod, mmax, mmin, mcount) with
//     per-contributor semantics, as used by the company-control and
//     accumulated-ownership programs (Algorithms 5 and 6);
//   - stratified negation as an extension;
//   - pluggable built-in functions (the paper's #GraphEmbedClust,
//     #GenerateBlocks and #LinkProbability hooks are registered by the
//     vadalog package).
//
// Programs written in the concrete Vadalog-like syntax are produced by the
// parser in parse.go; the evaluation engine lives in engine.go.
package datalog

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Term is a term of the logic: a Constant, a Variable, or — at runtime only —
// a Null or Skolem value wrapped in a Constant.
type Term interface {
	isTerm()
	String() string
}

// Variable is a (regular) variable. By the paper's convention variables start
// with an upper-case letter.
type Variable string

func (Variable) isTerm()          {}
func (v Variable) String() string { return string(v) }

// Constant wraps a ground value: string, float64, int64, bool, Null or
// SkolemID.
type Constant struct {
	Value any
}

func (Constant) isTerm() {}
func (c Constant) String() string {
	switch v := c.Value.(type) {
	case string:
		return strconv.Quote(v)
	case float64:
		return strconv.FormatFloat(v, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(v, 10)
	case bool:
		return strconv.FormatBool(v)
	case Null:
		return v.String()
	case SkolemID:
		return v.String()
	default:
		return fmt.Sprintf("%v", v)
	}
}

// Null is a labeled null, invented to satisfy an existential variable that is
// not explicitly Skolemized. Nulls produced for the same rule, variable and
// frontier binding coincide (deterministic chase), so re-running a program is
// reproducible and the isomorphism check of Section 4.4 reduces to set
// semantics over these canonical nulls.
type Null struct {
	ID uint64
}

func (n Null) String() string { return fmt.Sprintf("ν%d", n.ID) }

// SkolemID is the result of a Skolem function application: the function
// symbol plus a canonical encoding of the arguments. Determinism, injectivity
// and range disjointness (Section 4, "Skolem functions") follow from the
// encoding: equal (symbol, args) yield equal IDs, different args yield
// different Key strings, and the symbol participates in the identity.
type SkolemID struct {
	Fn  string
	Key string
}

func (s SkolemID) String() string { return "#" + s.Fn + "(" + s.Key + ")" }

// NewSkolem applies the Skolem function named fn to ground args.
func NewSkolem(fn string, args ...any) SkolemID {
	var sb strings.Builder
	for i, a := range args {
		if i > 0 {
			sb.WriteByte('|')
		}
		appendValue(&sb, a)
	}
	return SkolemID{Fn: fn, Key: sb.String()}
}

// Str, Num, Int and Bool are convenience constructors for constants.
func Str(s string) Constant  { return Constant{Value: s} }
func Num(f float64) Constant { return Constant{Value: f} }
func Int(i int64) Constant   { return Constant{Value: i} }
func Bool(b bool) Constant   { return Constant{Value: b} }

// encodeValue renders a ground value as a canonical string usable in fact
// keys and Skolem keys. The one-letter prefix keeps types disjoint
// (e.g. string "1" ≠ int 1 ≠ float 1.0).
func encodeValue(v any) string {
	var sb strings.Builder
	appendValue(&sb, v)
	return sb.String()
}

// appendValue writes the canonical encoding of a ground value into a builder
// without allocating an intermediate string — the hot-path form of
// encodeValue, used when building fact keys and index probes. Numbers are
// formatted into a stack buffer: every fact a bulk load asserts passes
// through here.
func appendValue(sb *strings.Builder, v any) {
	var num [32]byte
	switch x := v.(type) {
	case string:
		sb.WriteByte('s')
		sb.WriteString(x)
	case float64:
		sb.WriteByte('f')
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			// Normalize integral floats so 1.0 and 1 compare equal when both
			// arrive as float64 through different arithmetic paths.
			sb.Write(strconv.AppendFloat(num[:0], x, 'f', 1, 64))
			return
		}
		sb.Write(strconv.AppendFloat(num[:0], x, 'g', 17, 64))
	case int64:
		sb.WriteByte('i')
		sb.Write(strconv.AppendInt(num[:0], x, 10))
	case int:
		sb.WriteByte('i')
		sb.Write(strconv.AppendInt(num[:0], int64(x), 10))
	case bool:
		sb.WriteByte('b')
		sb.WriteString(strconv.FormatBool(x))
	case Null:
		sb.WriteByte('n')
		sb.WriteString(strconv.FormatUint(x.ID, 10))
	case SkolemID:
		sb.WriteByte('k')
		sb.WriteString(x.Fn)
		sb.WriteByte(':')
		sb.WriteString(x.Key)
	default:
		fmt.Fprintf(sb, "?%v", x)
	}
}

// valueEqual reports whether two ground values have equal canonical
// encodings, without building the encodings. The cases mirror appendValue
// exactly: types are disjoint except int/int64 (both encode with the "i"
// prefix), and floats compare by bit pattern (the 17-digit 'g' encoding is
// injective on non-NaN floats, so -0.0 ≠ 0.0 — the same distinction the
// string form makes). Exotic values fall back to the string comparison.
func valueEqual(a, b any) bool {
	switch x := a.(type) {
	case string:
		y, ok := b.(string)
		return ok && x == y
	case float64:
		y, ok := b.(float64)
		return ok && math.Float64bits(x) == math.Float64bits(y)
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case int:
			return x == int64(y)
		}
		return false
	case int:
		switch y := b.(type) {
		case int64:
			return int64(x) == y
		case int:
			return x == y
		}
		return false
	case bool:
		y, ok := b.(bool)
		return ok && x == y
	case Null:
		y, ok := b.(Null)
		return ok && x.ID == y.ID
	case SkolemID:
		y, ok := b.(SkolemID)
		return ok && x == y
	}
	return encodeValue(a) == encodeValue(b)
}

// Fact is a ground atom: a predicate applied to ground values.
type Fact struct {
	Pred string
	Args []any
}

// Key returns the canonical identity of the fact (set semantics).
func (f Fact) Key() string {
	var sb strings.Builder
	// One scratch buffer for a typical row instead of one per doubling; the
	// key itself is copied out at its exact length, since a relation's key
	// set keeps it for as long as the engine lives.
	sb.Grow(len(f.Pred) + 2 + 16*len(f.Args))
	sb.WriteString(f.Pred)
	sb.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			sb.WriteByte(',')
		}
		appendValue(&sb, a)
	}
	sb.WriteByte(')')
	return strings.Clone(sb.String())
}

func (f Fact) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = Constant{Value: a}.String()
	}
	return f.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// hashKey hashes a canonical string to a uint64, used for deterministic null
// invention.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// SortFacts orders facts by their canonical keys, for deterministic output.
func SortFacts(fs []Fact) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Key() < fs[j].Key() })
}
