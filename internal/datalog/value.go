package datalog

import (
	"hash/maphash"
	"math"
)

// Value rows (DESIGN.md §7.8). The chase keeps every ground value as a value:
// a kind and a 64-bit payload. Numbers, booleans and nulls live in the
// payload; a string, a Skolem term or any other value is an index into the
// engine's symtab. Rows of values hold no pointers, so the garbage collector
// never scans a relation, and dedup and indexes hash a row's words instead
// of building a string key per fact. The API keeps Fact{Pred, Args []any};
// values convert to and from it at that boundary only.

// kind discriminates values. The inline kinds come before kindStr.
type kind uint8

const (
	kindInt    kind = iota + 1 // int64
	kindGoInt                  // a Go int: equal to the int64 of the same number
	kindFloat                  // float64 bits
	kindBool                   // 0 or 1
	kindNull                   // Null.ID
	kindStr                    // symtab index, or emptyStr
	kindSkolem                 // symtab index of a SkolemID
	kindOther                  // symtab index of a value of no other kind
)

// value is one ground value of a row.
type value struct {
	k    kind
	bits uint64
}

// emptyStr is the payload of the empty string, which takes no symtab entry:
// the relational image pads every missing property with it.
const emptyStr = math.MaxUint64

// float returns a numeric value as a float64.
func (v value) float() (float64, bool) {
	switch v.k {
	case kindInt, kindGoInt:
		return float64(int64(v.bits)), true
	case kindFloat:
		return math.Float64frombits(v.bits), true
	}
	return 0, false
}

func floatValue(f float64) value { return value{kindFloat, math.Float64bits(f)} }

// symtab is an engine's table of the values a payload cannot hold. Entries
// are the API's own interface values, compared by content, so converting a
// string to a value and back allocates nothing. The table only grows, except
// that release drops the entries made since a mark when nothing stored
// since then can refer to them (pinned).
type symtab struct {
	objs []any
	// pinned is the table length when a row was last stored: entries below
	// it may be referenced and are never released.
	pinned int
}

// of converts an API value.
func (sy *symtab) of(a any) value {
	switch x := a.(type) {
	case int64:
		return value{kindInt, uint64(x)}
	case int:
		return value{kindGoInt, uint64(int64(x))}
	case float64:
		return floatValue(x)
	case bool:
		if x {
			return value{kindBool, 1}
		}
		return value{kindBool, 0}
	case Null:
		return value{kindNull, x.ID}
	case string:
		if x == "" {
			return value{kindStr, emptyStr}
		}
		return sy.add(kindStr, a)
	case SkolemID:
		return sy.add(kindSkolem, a)
	}
	return sy.add(kindOther, a)
}

// boxed reports whether of(a) takes a symtab entry.
func boxed(a any) bool {
	switch x := a.(type) {
	case int64, int, float64, bool, Null:
		return false
	case string:
		return x != ""
	}
	return true
}

func (sy *symtab) add(k kind, a any) value {
	sy.objs = append(sy.objs, a)
	return value{k, uint64(len(sy.objs) - 1)}
}

// any converts a value back to its API form.
func (sy *symtab) any(v value) any {
	switch v.k {
	case kindInt:
		return int64(v.bits)
	case kindGoInt:
		return int(int64(v.bits))
	case kindFloat:
		return math.Float64frombits(v.bits)
	case kindBool:
		return v.bits != 0
	case kindNull:
		return Null{ID: v.bits}
	case kindStr:
		if v.bits == emptyStr {
			return ""
		}
	}
	return sy.objs[v.bits]
}

// reserve makes room for n more entries, exactly: a table a load sizes
// ahead keeps no growth slack.
func (sy *symtab) reserve(n int) {
	if cap(sy.objs)-len(sy.objs) < n {
		objs := make([]any, len(sy.objs), len(sy.objs)+n)
		copy(objs, sy.objs)
		sy.objs = objs
	}
}

// mark, pin and release bound the table by what is stored: a value made
// while matching (an Assert's duplicate, a probe of Has, a Skolem term of a
// derivation that turned out known) is dropped again unless a stored row
// may refer to it.
func (sy *symtab) mark() int { return len(sy.objs) }
func (sy *symtab) pin()      { sy.pinned = len(sy.objs) }
func (sy *symtab) release(m int) {
	if sy.pinned <= m && len(sy.objs) > m {
		clear(sy.objs[m:])
		sy.objs = sy.objs[:m]
	}
}

// eq is valueEqual on values: int ≡ int64, floats by bit pattern, strings
// and Skolem terms by content, nulls by ID.
func (sy *symtab) eq(a, b value) bool {
	if a == b {
		return true
	}
	if a.k >= kindStr {
		return a.k == b.k && a.bits != emptyStr && b.bits != emptyStr && sy.eqObj(a, b)
	}
	return a.bits == b.bits && a.k <= kindGoInt && b.k <= kindGoInt
}

func (sy *symtab) eqObj(a, b value) bool {
	x, y := sy.objs[a.bits], sy.objs[b.bits]
	switch a.k {
	case kindStr:
		return x.(string) == y.(string)
	case kindSkolem:
		return x.(SkolemID) == y.(SkolemID)
	}
	return encodeValue(x) == encodeValue(y)
}

func (sy *symtab) rowEq(a, b []value) bool {
	for i := range a {
		if !sy.eq(a[i], b[i]) {
			return false
		}
	}
	return true
}

var hashSeed = maphash.MakeSeed()

// mix is the 64-bit finalizer of MurmurHash3.
func mix(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hash is consistent with eq.
func (sy *symtab) hash(v value) uint64 {
	switch v.k {
	case kindGoInt:
		v.k = kindInt
	case kindStr:
		if v.bits != emptyStr {
			return maphash.String(hashSeed, sy.objs[v.bits].(string))
		}
	case kindSkolem:
		s := sy.objs[v.bits].(SkolemID)
		return mix(maphash.String(hashSeed, s.Fn)) ^ maphash.String(hashSeed, s.Key)
	case kindOther:
		return maphash.String(hashSeed, encodeValue(sy.objs[v.bits]))
	}
	return mix(v.bits ^ uint64(v.k)*0x9e3779b97f4a7c15)
}

func (sy *symtab) hashRow(row []value) uint64 {
	h := uint64(len(row))
	for _, v := range row {
		h = (h ^ sy.hash(v)) * 0x100000001b3
	}
	return mix(h)
}

// appendEnc is appendValue on a value: the canonical encoding the keys of
// invented nulls hash.
func (sy *symtab) appendEnc(dst []byte, v value) []byte {
	switch v.k {
	case kindInt, kindGoInt:
		return appendIntEnc(dst, int64(v.bits))
	case kindFloat:
		return appendFloatEnc(dst, math.Float64frombits(v.bits))
	case kindBool:
		return appendBoolEnc(dst, v.bits != 0)
	case kindNull:
		return appendNullEnc(dst, v.bits)
	}
	return appendValue(dst, sy.any(v))
}

// compare is compare on values; only a non-numeric operand leaves the
// payload.
func (sy *symtab) compare(op CmpOp, l, r value) bool {
	if lf, ok := l.float(); ok {
		if rf, ok := r.float(); ok {
			return cmpOrdered(op, lf, rf)
		}
	}
	return compare(op, sy.any(l), sy.any(r))
}

// arith is arith on values.
func (sy *symtab) arith(op byte, l, r value) (value, error) {
	if lf, ok := l.float(); ok {
		if rf, ok := r.float(); ok {
			f, err := arithFloat(op, lf, rf)
			return floatValue(f), err
		}
	}
	res, err := arith(op, sy.any(l), sy.any(r))
	if err != nil {
		return value{}, err
	}
	return sy.of(res), nil
}
