package persist

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vadalink/internal/pg"
)

// roundTripProps holds a value of every kind and the edge cases of each: the
// empty string, -0.0, NaN and the infinities, both int64 extremes and both
// bools.
var roundTripProps = pg.Properties{
	"empty": "", "name": "Ada ✓", "negzero": math.Copysign(0, -1), "share": 0.5,
	"nan": math.NaN(), "inf": math.Inf(1), "neginf": math.Inf(-1),
	"min": int64(math.MinInt64), "max": int64(math.MaxInt64), "zero": int64(0), "goint": -7,
	"yes": true, "no": false,
}

// sameProps reports where got differs from want in a value's kind or
// payload bits.
func sameProps(t *testing.T, stage string, got pg.Record, want pg.Properties) {
	t.Helper()
	if got.Len() != len(want) {
		t.Errorf("%s: %d properties, want %d", stage, got.Len(), len(want))
	}
	for k, w := range want {
		v, ok := got.Lookup(k)
		if !ok {
			t.Errorf("%s: %q lost", stage, k)
			continue
		}
		var match bool
		switch w := w.(type) {
		case string:
			match = v.Kind() == pg.KindString && v.Str() == w
		case float64:
			match = v.Kind() == pg.KindFloat && math.Float64bits(v.Float()) == math.Float64bits(w)
		case int64:
			match = v.Kind() == pg.KindInt && v.Int() == w
		case int:
			match = v.Kind() == pg.KindInt && v.Int() == int64(w)
		case bool:
			match = v.Kind() == pg.KindBool && v.Bool() == w
		}
		if !match {
			t.Errorf("%s: %q = %c %v, want %T %v", stage, k, v.Kind(), v.Any(), w, w)
		}
	}
}

// TestPropertyRoundTrip: properties added to a graph survive, kind and bits,
// the WAL record the hook logs, Graph.Replay of it, and a snapshot of the
// replayed graph, which snapshots again to the same bytes; and
// WriteJSON/ReadJSON with JSON's semantics.
func TestPropertyRoundTrip(t *testing.T) {
	edgeProps := pg.Properties{pg.WeightProp: 0.25, "right": "", "n": int64(-1)}
	g := pg.New()
	var wal []byte
	g.SetMutationHook(func(m pg.Mutation) { wal = append(wal, encodeFrame(t, Record{Mutation: m})...) })
	a := g.AddNode(pg.LabelPerson, roundTripProps)
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	e, err := g.AddEdge(pg.LabelShareholding, a, b, edgeProps)
	if err != nil {
		t.Fatal(err)
	}
	sameProps(t, "added", g.Node(a).Props, roundTripProps)

	replayed := pg.New()
	if _, _, err := scanFrames(wal, func(p []byte) error {
		r, err := decodeRecord(p)
		if err == nil {
			_, err = replayed.Replay(r.Mutation)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	sameProps(t, "WAL", replayed.Node(a).Props, roundTripProps)
	sameProps(t, "WAL", replayed.Edge(e).Props, edgeProps)

	snap, err := appendSnapshot(nil, replayed, nil)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := DecodeSnapshotMarks(snap)
	if err != nil {
		t.Fatal(err)
	}
	sameProps(t, "snapshot", restored.Node(a).Props, roundTripProps)
	sameProps(t, "snapshot", restored.Edge(e).Props, edgeProps)
	if again, _ := appendSnapshot(nil, restored, nil); !bytes.Equal(again, snap) {
		t.Error("a restored graph snapshots to other bytes")
	}
	if restored.Node(a).Props != g.Node(a).Props || restored.Edge(e).Props != g.Edge(e).Props {
		t.Error("restored records differ from the originals")
	}

	// JSON holds no NaN or infinity: WriteJSON refuses the graph rather than
	// write a document ReadJSON cannot read.
	var buf bytes.Buffer
	if err := restored.WriteJSON(&buf); err == nil || !strings.Contains(err.Error(), "unsupported value") {
		t.Errorf("WriteJSON of NaN: %v, want an unsupported-value error", err)
	}
	// Without them, strings, bools and floats (-0.0 included) come back as
	// they were, and an int64 as the float64 of its value.
	finite := pg.Properties{}
	for k, v := range roundTripProps {
		if f, ok := v.(float64); !ok || !math.IsNaN(f) && !math.IsInf(f, 0) {
			finite[k] = v
		}
	}
	h := pg.New()
	h.AddNode(pg.LabelPerson, finite)
	buf.Reset()
	if err := h.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := pg.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	asJSON := pg.Properties{}
	for k, v := range finite {
		switch v := v.(type) {
		case int64:
			asJSON[k] = float64(v)
		case int:
			asJSON[k] = float64(v)
		default:
			asJSON[k] = v
		}
	}
	sameProps(t, "JSON", read.Node(0).Props, asJSON)
}
