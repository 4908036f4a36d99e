package pg

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// rec converts a Properties literal, failing loudly on a bad one.
func rec(p Properties) Record {
	r, err := NewRecord(p)
	if err != nil {
		panic(err)
	}
	return r
}

// TestRecordKinds: every kind comes back with its value and kind, through
// the typed accessors, Get, Field and Map; fields are sorted by key.
func TestRecordKinds(t *testing.T) {
	var b RecordBuilder
	b.Str("name", "Ada")
	b.Str("empty", "")
	b.Float("share", 0.5)
	b.Float("negzero", math.Copysign(0, -1))
	b.Float("nan", math.NaN())
	b.Int("min", math.MinInt64)
	b.Int("max", math.MaxInt64)
	b.Bool("yes", true)
	b.Bool("no", false)
	r := b.Record()
	if r.Len() != 9 {
		t.Fatalf("Len = %d, want 9", r.Len())
	}
	var keys []string
	for i := range r.Len() {
		k, _ := r.Field(i)
		keys = append(keys, k)
	}
	if want := []string{"empty", "max", "min", "name", "nan", "negzero", "no", "share", "yes"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("fields in order %v, want %v", keys, want)
	}
	if s, ok := r.Str("name"); !ok || s != "Ada" {
		t.Errorf(`Str("name") = %q, %v`, s, ok)
	}
	if s, ok := r.Str("empty"); !ok || s != "" {
		t.Errorf(`Str("empty") = %q, %v`, s, ok)
	}
	if v, ok := r.Lookup("negzero"); !ok || v.Kind() != KindFloat || math.Float64bits(v.Float()) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf(`Lookup("negzero") = %+v, %v`, v, ok)
	}
	if f, ok := r.Num("nan"); !ok || !math.IsNaN(f) {
		t.Errorf(`Num("nan") = %v, %v`, f, ok)
	}
	if v, ok := r.Lookup("min"); !ok || v.Kind() != KindInt || v.Int() != math.MinInt64 {
		t.Errorf(`Lookup("min") = %+v, %v`, v, ok)
	}
	if f, ok := r.Num("max"); !ok || f != float64(math.MaxInt64) {
		t.Errorf(`Num("max") = %v, %v`, f, ok)
	}
	if v, ok := r.Lookup("no"); !ok || v.Kind() != KindBool || v.Bool() {
		t.Errorf(`Lookup("no") = %+v, %v`, v, ok)
	}
	if v, ok := r.Get("yes"); !ok || v != true {
		t.Errorf(`Get("yes") = %v, %v`, v, ok)
	}
	if v, _ := r.Lookup("name"); v.Float() != 0 || v.Int() != 0 || v.Bool() {
		t.Error("a string reads as a number or bool")
	}
	if _, ok := r.Num("name"); ok {
		t.Error(`Num("name") reads a string as a number`)
	}
	if v, ok := r.Lookup("missing"); ok || v.Kind() != 0 || v.Any() != nil {
		t.Errorf(`Lookup("missing") = %+v, %v`, v, ok)
	}
	m := r.Map()
	if len(m) != 9 || m["max"] != int64(math.MaxInt64) || m["yes"] != true || m["share"] != 0.5 || m["name"] != "Ada" {
		t.Errorf("Map = %v", m)
	}
	if again := rec(m); again != r {
		t.Error("a record rebuilt from its Map differs")
	}
	if (Record{}).Map() != nil || (Record{}).Len() != 0 || rec(nil) != (Record{}) || rec(Properties{}) != (Record{}) {
		t.Error("the empty record is not the zero Record")
	}
}

// TestRecordNormalises: a Go int is stored as an int64, a numeric share
// amount as a float64, and a key set twice keeps its last value.
func TestRecordNormalises(t *testing.T) {
	r := rec(Properties{"n": 7, WeightProp: 1})
	if v, _ := r.Lookup("n"); v.Kind() != KindInt || v.Int() != 7 {
		t.Errorf("a Go int is stored as %+v", v)
	}
	if v, _ := r.Lookup(WeightProp); v.Kind() != KindFloat || v.Float() != 1 {
		t.Errorf("an int share is stored as %+v", v)
	}
	var b RecordBuilder
	b.Int(WeightProp, 2)
	b.Str("x", "first")
	b.Str("x", "second")
	r = b.Record()
	if w, ok := (&Edge{Props: r}).Weight(); !ok || w != 2 {
		t.Errorf("Weight of an int64 share = %v, %v", w, ok)
	}
	if s, _ := r.Str("x"); s != "second" || r.Len() != 2 {
		t.Errorf("a key set twice reads %q in %d fields", s, r.Len())
	}
	if b.Record() != (Record{}) {
		t.Error("Record does not reset the builder")
	}
}

// TestRecordRefusesOtherTypes: a value outside the four kinds is refused
// where it enters, with the element and key named: NewRecord, AddNode
// (which panics), AddEdge on a graph and on an overlay.
func TestRecordRefusesOtherTypes(t *testing.T) {
	for _, v := range []Value{nil, []string{"a"}, map[string]any{}, float32(1), uint8(1), struct{}{}} {
		if _, err := NewRecord(Properties{"tags": v}); err == nil || !strings.Contains(err.Error(), `"tags"`) {
			t.Errorf("NewRecord of a %T: %v, want an error naming the key", v, err)
		}
	}
	bad := Properties{"tags": []any{1}}
	g := New()
	a := g.AddNode(LabelCompany, nil)
	if _, err := g.AddEdge(LabelControl, a, a, bad); err == nil || !strings.Contains(err.Error(), "add edge 0") || !strings.Contains(err.Error(), `"tags"`) {
		t.Errorf("AddEdge with a bad value: %v", err)
	}
	o := NewOverlay(g)
	if _, err := o.AddEdge(LabelControl, a, a, bad); err == nil || !strings.Contains(err.Error(), `"tags"`) {
		t.Errorf("Overlay.AddEdge with a bad value: %v", err)
	}
	if g.NumEdges() != 0 || g.NextEdgeID() != 0 || o.NumEdges() != 0 {
		t.Error("a refused edge moved the graph")
	}
	for name, add := range map[string]func(){
		"Graph":   func() { g.AddNode(LabelCompany, bad) },
		"Overlay": func() { o.AddNode(LabelCompany, bad) },
	} {
		func() {
			defer func() {
				if err, _ := recover().(error); err == nil || !strings.Contains(err.Error(), "add node 1") || !strings.Contains(err.Error(), `"tags"`) {
					t.Errorf("%s.AddNode with a bad value panicked with %v", name, err)
				}
			}()
			add()
		}()
	}
}

// TestReadJSONRefusesBadInput: a duplicate ID, an ID far beyond the
// document's elements and a property outside the four kinds are refused
// with the element named, where a document used to load with the last
// duplicate winning and the value failing later.
func TestReadJSONRefusesBadInput(t *testing.T) {
	for doc, want := range map[string]string{
		`{"nodes":[{"id":0,"label":"Company"},{"id":0,"label":"Company"},{"id":1,"label":"Company"}]}`:                                           "duplicate node id 0",
		`{"nodes":[{"id":0,"label":"Company"}],"edges":[{"id":4,"label":"Control","from":0,"to":0},{"id":4,"label":"Control","from":0,"to":0}]}`: "duplicate edge id 4",
		`{"nodes":[{"id":-1,"label":"Company"}]}`:                                             "node id -1",
		`{"nodes":[{"id":0,"label":"Company"}],"edges":[{"id":0,"from":0,"to":3}]}`:           "unknown target node 3",
		`{"nodes":[{"id":3,"label":"Person","props":{"tags":["a"]}}]}`:                        `node 3: property "tags": unsupported value: an array`,
		`{"nodes":[{"id":3,"label":"Person","props":{"x":{"y":1}}}]}`:                         `node 3: property "x": unsupported value: an object`,
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"id":2,"from":0,"to":1,"props":{"w":null}}]}`: `edge 2: property "w": unsupported value null`,
		`{"nodes":[{"id":3,"props":7}]}`:                                                      "node 3: props is not an object",
		`{"nodes":[{"id":70000}]}`:                                                            "node id 70000 at or above 65540 for 1 nodes",
		`{"nodes":[{"id":0},{"id":1}],"edges":[{"id":1000000000000,"from":0,"to":1}]}`:        "edge id 1000000000000 at or above 65540 for 1 edges",
	} {
		_, err := ReadJSON(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadJSON(%s) = %v, want an error containing %q", doc, err, want)
		}
	}
	g, err := ReadJSON(strings.NewReader(`{"nodes":[{"id":0,"props":null},{"id":2,"props":{"name":"B","n":2,"ok":true}}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if g.NextNodeID() != 3 || g.Node(0).Props.Len() != 0 || g.Node(2).Props.Map()["n"] != 2.0 {
		t.Errorf("read %d nodes, next %d, node 2 %v", g.NumNodes(), g.NextNodeID(), g.Node(2).Props.Map())
	}
}

// TestWellKnownKeys: the lock-free fast path names the indexes the table
// was seeded with.
func TestWellKnownKeys(t *testing.T) {
	for i, k := range wellKnown {
		if id, ok := wellKnownKey(k); !ok || id != uint32(i) || keyName(id) != k {
			t.Errorf("well-known key %q: index %d, %v, want %d", k, id, ok, i)
		}
	}
	if _, ok := wellKnownKey("not-a-known-key"); ok {
		t.Error("an unknown key takes the fast path")
	}
}

// TestKeysInternConcurrently: records built on many goroutines with new
// keys read back on others (run under -race, the key table's lock-free
// reads are checked too).
func TestKeysInternConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	out := make(chan Record, 64)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b RecordBuilder
			for i := range 16 {
				b.Int(fmt.Sprintf("concurrent-%d-%d", w, i), int64(i))
				b.Str("name", "x")
				out <- b.Record()
			}
		}()
	}
	go func() { wg.Wait(); close(out) }()
	n := 0
	for r := range out {
		k, v := r.Field(0)
		if !strings.HasPrefix(k, "concurrent-") || !strings.HasSuffix(k, fmt.Sprint("-", v.Int())) {
			t.Errorf("field %q = %+v", k, v)
		}
		if got, ok := r.Lookup(k); !ok || got != v {
			t.Errorf("Lookup(%q) = %+v, %v", k, got, ok)
		}
		n++
	}
	if n != 64 {
		t.Fatalf("%d records, want 64", n)
	}
}

// TestRecordManyFields: a record of more fields than a one-byte count holds
// reads back whole, and Field refuses an index outside it.
func TestRecordManyFields(t *testing.T) {
	var b RecordBuilder
	for i := range 300 {
		b.Int(fmt.Sprintf("k%03d", i), int64(i))
	}
	r := b.Record()
	if r.Len() != 300 {
		t.Fatalf("Len = %d, want 300", r.Len())
	}
	for _, i := range []int{0, 127, 128, 299} {
		if k, v := r.Field(i); k != fmt.Sprintf("k%03d", i) || v.Int() != int64(i) {
			t.Errorf("Field(%d) = %q, %+v", i, k, v)
		}
	}
	if v, ok := r.Lookup("k299"); !ok || v.Int() != 299 {
		t.Errorf(`Lookup("k299") = %+v, %v`, v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Error("Field(300) of 300 did not panic")
		}
	}()
	r.Field(300)
}
