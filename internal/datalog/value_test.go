package datalog

import (
	"math"
	"testing"
)

// TestFactIdentityHasNoCollisions: two facts whose arguments only a joined,
// type-prefixed key would confuse — p("a,sb", "c") and p("a", "b,sc") both
// render as p(sa,sb,sc) — are two facts. Assert keeps both, Facts lists
// both, Has finds each.
func TestFactIdentityHasNoCollisions(t *testing.T) {
	e, err := NewEngine(MustParse(`p(X, Y) -> q(X, Y).`))
	if err != nil {
		t.Fatal(err)
	}
	f1 := Fact{Pred: "p", Args: []any{"a,sb", "c"}}
	f2 := Fact{Pred: "p", Args: []any{"a", "b,sc"}}
	if !e.Assert(f1) || !e.Assert(f2) {
		t.Fatal("Assert dropped a distinct fact")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"p", "q"} {
		if n := len(e.Facts(pred)); n != 2 {
			t.Errorf("%s facts = %d, want 2: %v", pred, n, e.Facts(pred))
		}
	}
	for _, f := range []Fact{f1, f2, {Pred: "q", Args: f1.Args}, {Pred: "q", Args: f2.Args}} {
		if !e.Has(f) {
			t.Errorf("Has(%v) = false", f)
		}
	}
}

// TestValueEquality holds the value rows to valueEqual's rules: int ≡
// int64, floats by bit pattern (so 1 ≠ 1.0 and 0.0 ≠ -0.0), strings by
// content, and no kind equal to another.
func TestValueEquality(t *testing.T) {
	vals := []any{
		int64(1), 1, 1.0, 0.0, math.Copysign(0, -1), int64(0), "1", "", "s", true, false,
		Null{ID: 1}, NewSkolem("sk", "a"), NewSkolem("sk", "b"), []int{1},
	}
	var sy symtab
	for _, a := range vals {
		for _, b := range vals {
			va, vb := sy.of(a), sy.of(b)
			if got, want := sy.eq(va, vb), valueEqual(a, b); got != want {
				t.Errorf("eq(%#v, %#v) = %v, valueEqual says %v", a, b, got, want)
			}
			if sy.eq(va, vb) && sy.hash(va) != sy.hash(vb) {
				t.Errorf("equal values %#v, %#v hash apart", a, b)
			}
			if enc := sy.appendEnc(nil, va); string(enc) != encodeValue(a) {
				t.Errorf("encoding of %#v = %q, want %q", a, enc, encodeValue(a))
			}
		}
		if back := sy.any(sy.of(a)); encodeValue(back) != encodeValue(a) {
			t.Errorf("%#v comes back as %#v", a, back)
		}
	}
}

// TestSkolemInjective: a Skolem key escapes '|' and '\' inside arguments,
// so #sk("a|sb", "c") and #sk("a", "b|sc") are two terms, in the chase as
// in NewSkolem. Keys without those characters keep their plain form.
func TestSkolemInjective(t *testing.T) {
	if NewSkolem("sk", "a|sb", "c") == NewSkolem("sk", "a", "b|sc") {
		t.Error(`#sk("a|sb", "c") == #sk("a", "b|sc")`)
	}
	if NewSkolem("sk", `a\`, "b") == NewSkolem("sk", `a\|sb`) {
		t.Error("a backslash escapes the separator")
	}
	for _, tc := range []struct {
		sk   SkolemID
		want string
	}{
		{NewSkolem("skc", int64(42)), "i42"},
		{NewSkolem("skp", "rossi", int64(1), 0.5), "srossi|i1|f0.5"},
		{NewSkolem("sk", "a|b"), `sa\|b`},
	} {
		if tc.sk.Key != tc.want {
			t.Errorf("%v key = %q, want %q", tc.sk, tc.sk.Key, tc.want)
		}
	}

	e := run(t, `q(X, Y), Z = #sk(X, Y) -> r(Z, X, Y).`, []Fact{
		{Pred: "q", Args: []any{"a|sb", "c"}},
		{Pred: "q", Args: []any{"a", "b|sc"}},
	})
	rs := e.Facts("r")
	if len(rs) != 2 {
		t.Fatalf("r facts = %d, want 2: %v", len(rs), rs)
	}
	if rs[0].Args[0] == rs[1].Args[0] {
		t.Errorf("two q rows got one Skolem term: %v", rs)
	}
}

// TestIndexBytesCountTheTables holds Budget.MaxIndexBytes's estimate to the
// index tables it stands for: after loading, chasing and querying, the
// engine's count is exactly 16 bytes per bucket-table slot plus 4 per
// chained row over every built index, and it never fell on the way.
func TestIndexBytesCountTheTables(t *testing.T) {
	e, err := NewEngine(MustParse(`
		own(X, Y, W) -> reach(X, Y).
		reach(X, Z), own(Z, Y, W) -> reach(X, Y).
	`))
	if err != nil {
		t.Fatal(err)
	}
	var last int64
	check := func(when string) {
		t.Helper()
		want := int64(0)
		for _, head := range e.rels {
			for r := head; r != nil; r = r.other {
				for pos := range r.index {
					if r.hasIndex(pos) {
						x := &r.index[pos]
						want += int64(bucketBytes*len(x.buckets) + linkBytes*len(x.next))
					}
				}
			}
		}
		if e.indexBytes != want {
			t.Errorf("%s: indexBytes = %d, the tables hold %d", when, e.indexBytes, want)
		}
		if e.indexBytes < last {
			t.Errorf("%s: indexBytes fell %d → %d", when, last, e.indexBytes)
		}
		last = e.indexBytes
	}
	for i := int64(0); i < 300; i++ {
		e.Assert(Fact{Pred: "own", Args: []any{i % 40, (i * 7) % 40, 0.5}})
	}
	check("after loading")
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	check("after the chase")
	if last == 0 {
		t.Fatal("the chase built no index")
	}
	match(e, "reach", nil, int64(3))
	check("after a query on a new position")
	for i := int64(300); i < 400; i++ {
		e.Assert(Fact{Pred: "own", Args: []any{i, i + 1, 0.5}})
	}
	check("after asserting into indexed relations")
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
