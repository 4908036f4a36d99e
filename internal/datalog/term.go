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

// NewSkolem applies the Skolem function named fn to ground args. The key
// joins the arguments' canonical encodings with '|', escaping each '|' and
// backslash inside an argument with a backslash, so distinct argument lists
// never share a key; a key without those characters is the plain join.
func NewSkolem(fn string, args ...any) SkolemID {
	var buf [64]byte
	var enc [32]byte
	b := buf[:0]
	for i, a := range args {
		if i > 0 {
			b = append(b, '|')
		}
		b = appendEscaped(b, appendValue(enc[:0], a))
	}
	return SkolemID{Fn: fn, Key: string(b)}
}

// appendEscaped appends enc with every '|' and backslash escaped by a
// backslash.
func appendEscaped(dst, enc []byte) []byte {
	for _, c := range enc {
		if c == '|' || c == '\\' {
			dst = append(dst, '\\')
		}
		dst = append(dst, c)
	}
	return dst
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
	var buf [32]byte
	return string(appendValue(buf[:0], v))
}

// appendValue appends the canonical encoding of a ground value to dst — the
// hot-path form of encodeValue, used when building fact keys, index probes
// and aggregation keys into reused buffers.
func appendValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		dst = append(dst, 's')
		return append(dst, x...)
	case float64:
		return appendFloatEnc(dst, x)
	case int64:
		return appendIntEnc(dst, x)
	case int:
		return appendIntEnc(dst, int64(x))
	case bool:
		return appendBoolEnc(dst, x)
	case Null:
		return appendNullEnc(dst, x.ID)
	case SkolemID:
		dst = append(dst, 'k')
		dst = append(dst, x.Fn...)
		dst = append(dst, ':')
		return append(dst, x.Key...)
	default:
		return fmt.Appendf(dst, "?%v", x)
	}
}

func appendFloatEnc(dst []byte, x float64) []byte {
	dst = append(dst, 'f')
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		// Normalize integral floats so 1.0 and 1 compare equal when both
		// arrive as float64 through different arithmetic paths.
		return strconv.AppendFloat(dst, x, 'f', 1, 64)
	}
	return strconv.AppendFloat(dst, x, 'g', 17, 64)
}

func appendIntEnc(dst []byte, x int64) []byte {
	return strconv.AppendInt(append(dst, 'i'), x, 10)
}

func appendBoolEnc(dst []byte, x bool) []byte {
	return strconv.AppendBool(append(dst, 'b'), x)
}

func appendNullEnc(dst []byte, id uint64) []byte {
	return strconv.AppendUint(append(dst, 'n'), id, 10)
}

// Fact is a ground atom: a predicate applied to ground values.
type Fact struct {
	Pred string
	Args []any
}

// Key returns the canonical key of the fact, the one SortFacts orders by.
// It joins the arguments' encodings with ',' unescaped, so two facts can
// share a key (p("a,sb", "c") and p("a", "b,sc")); the engine decides fact
// identity on values instead (DESIGN.md §7.8).
func (f Fact) Key() string {
	var buf [128]byte
	return string(appendFactKey(buf[:0], f.Pred, f.Args))
}

// appendFactKey appends the canonical key of the fact pred(args...) to dst.
func appendFactKey(dst []byte, pred string, args []any) []byte {
	dst = append(dst, pred...)
	dst = append(dst, '(')
	for i, a := range args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValue(dst, a)
	}
	return append(dst, ')')
}

func (f Fact) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = Constant{Value: a}.String()
	}
	return f.Pred + "(" + strings.Join(parts, ", ") + ")"
}

// FNV-1a, 64 bit: the hash of invented nulls (fireHead).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into the running FNV-1a hash h; start from fnvOffset64.
func fnv1a[T ~string | ~[]byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// SortFacts orders facts by their canonical keys, for deterministic output.
// Every key is built once, into one shared buffer, and the facts sort
// together with their keys. sort.Sort runs the same pattern-defeating
// quicksort as sort.Slice, so the order — ties included — is the one a
// comparator calling Key twice per comparison produced, without its
// O(n log n) key strings.
func SortFacts(fs []Fact) {
	if len(fs) < 2 {
		return
	}
	buf := make([]byte, 0, len(fs)*(len(fs[0].Pred)+2+12*len(fs[0].Args)))
	ends := make([]int, len(fs))
	for i, f := range fs {
		buf = appendFactKey(buf, f.Pred, f.Args)
		ends[i] = len(buf)
	}
	all, start := string(buf), 0
	k := keyedFacts{facts: fs, keys: make([]string, len(fs))}
	for i, end := range ends {
		k.keys[i], start = all[start:end], end
	}
	sort.Sort(k)
}

// keyedFacts sorts facts by the key beside each.
type keyedFacts struct {
	facts []Fact
	keys  []string
}

func (k keyedFacts) Len() int           { return len(k.facts) }
func (k keyedFacts) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedFacts) Swap(i, j int) {
	k.facts[i], k.facts[j] = k.facts[j], k.facts[i]
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
}
