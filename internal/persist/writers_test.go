package persist

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"vadalink/internal/etl"
	"vadalink/internal/pg"
)

// definitionBase is the state every writer starts from: companies A and B,
// person P, a node F that is neither, a share A → B and a Control edge
// A → B. The next edge is 2.
var definitionBase = []Record{
	addNodeRec(0, pg.LabelCompany, pg.Properties{"name": "A"}),
	addNodeRec(1, pg.LabelCompany, pg.Properties{"name": "B"}),
	addNodeRec(2, pg.LabelPerson, pg.Properties{"name": "P"}),
	addNodeRec(3, "Fund", pg.Properties{"name": "F"}),
	addEdgeRec(0, pg.LabelShareholding, 0, 1, pg.Properties{pg.WeightProp: 0.5}),
	addEdgeRec(1, pg.LabelControl, 0, 1, nil),
}

// baseNames are definitionBase's nodes by the name the Builder and etl know
// them by.
var baseNames = []string{"A", "B", "P", "F"}

// invalidMutations are the changes Definition 2.2 or the graph's state rules
// out, each with the text of the one check that refuses it (pg's check).
func invalidMutations() []struct {
	name string
	m    pg.Mutation
	want string
} {
	share := func(from, to pg.NodeID, p pg.Properties) pg.Mutation {
		return addEdgeRec(2, pg.LabelShareholding, from, to, p).Mutation
	}
	w := func(v float64) pg.Properties { return pg.Properties{pg.WeightProp: v} }
	return []struct {
		name string
		m    pg.Mutation
		want string
	}{
		{"w NaN", share(0, 1, w(math.NaN())), "pg: edge 2: share amount NaN outside (0, 1]"},
		{"w 0", share(0, 1, w(0)), "pg: edge 2: share amount 0 outside (0, 1]"},
		{"w -1", share(0, 1, w(-1)), "pg: edge 2: share amount -1 outside (0, 1]"},
		{"w 5", share(0, 1, w(5)), "pg: edge 2: share amount 5 outside (0, 1]"},
		{"no w", share(0, 1, nil), `pg: edge 2: shareholding carries no share amount "w"`},
		{"into a Person", share(0, 2, w(0.5)), "pg: edge 2: shareholding target 2 is Person, want Company"},
		{"from a Fund", share(3, 1, w(0.5)), "pg: edge 2: shareholding source 3 is Fund, want Company or Person"},
		{"unknown endpoint", share(0, 9, w(0.5)), "pg: edge 2: unknown target node 9"},
		{"weight edit of a Control edge", weightRec(1, 0.5).Mutation, "pg: edge 1: weight edit of a Control edge, want Shareholding"},
	}
}

// namedWriter is the named mutator set Graph and Overlay share.
type namedWriter interface {
	AddEdge(label pg.Label, from, to pg.NodeID, props pg.PropSource) (pg.EdgeID, error)
	AddShare(from, to pg.NodeID, w float64) (pg.EdgeID, error)
	SetEdgeWeight(id pg.EdgeID, w float64) error
}

// viaNamed writes m through every named method that can express it: AddEdge
// and, for a weighted share, AddShare; SetEdgeWeight for a weight edit.
func viaNamed(g namedWriter, m pg.Mutation) []error {
	w, weighted := m.Edge.Weight()
	if m.Kind == pg.MutSetEdgeWeight {
		return []error{g.SetEdgeWeight(m.Edge.ID, w)}
	}
	_, err := g.AddEdge(m.Edge.Label, m.Edge.From, m.Edge.To, m.Edge.Props)
	errs := []error{err}
	if weighted {
		_, err = g.AddShare(m.Edge.From, m.Edge.To, w)
		errs = append(errs, err)
	}
	return errs
}

// TestEveryWriterRefusesInvalidMutations runs one table of invalid changes
// against every way a change enters a graph — the named methods and Replay
// of Graph and Overlay, the Builder, etl, ReadJSON, WAL recovery and
// snapshot decoding — and requires each to refuse each change it can
// express with the same text: pg's check is the one function that writes
// it. A writer that cannot express a case (JSON has no NaN; etl and the
// Builder name nodes by key and cannot add a Control edge) skips it.
func TestEveryWriterRefusesInvalidMutations(t *testing.T) {
	baseGraph := func(t *testing.T) *pg.Graph {
		g := pg.New()
		for _, r := range definitionBase {
			if _, err := g.Replay(r.Mutation); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	writers := []struct {
		name  string
		write func(t *testing.T, m pg.Mutation) []error // nil: cannot express m
	}{
		{"Graph named", func(t *testing.T, m pg.Mutation) []error { return viaNamed(baseGraph(t), m) }},
		{"Overlay named", func(t *testing.T, m pg.Mutation) []error { return viaNamed(pg.NewOverlay(baseGraph(t)), m) }},
		{"Graph.Replay", func(t *testing.T, m pg.Mutation) []error {
			_, err := baseGraph(t).Replay(m)
			return []error{err}
		}},
		{"Overlay.Replay", func(t *testing.T, m pg.Mutation) []error {
			_, err := pg.NewOverlay(baseGraph(t)).Replay(m)
			return []error{err}
		}},
		{"Builder", func(t *testing.T, m pg.Mutation) []error {
			w, ok := m.Edge.Weight()
			if m.Kind != pg.MutAddEdge || !ok || int(m.Edge.To) >= len(baseNames) {
				return nil
			}
			b := pg.NewBuilder()
			b.Company("A")
			b.Company("B")
			b.Person("P")
			if _, err := b.AddNode("F", "Fund"); err != nil {
				t.Fatal(err)
			}
			b.Own("A", "B", 0.5)
			b.Graph().MustAddEdge(pg.LabelControl, b.ID("A"), b.ID("B"), nil)
			_, err := b.AddOwnership(baseNames[m.Edge.From], baseNames[m.Edge.To], w)
			return []error{err}
		}},
		{"etl.Load", func(t *testing.T, m pg.Mutation) []error {
			w, ok := m.Edge.Weight()
			if m.Kind != pg.MutAddEdge || !ok || m.Edge.From > 2 || m.Edge.To > 2 {
				return nil
			}
			shares := fmt.Sprintf("A,B,0.5\nA,B,0.1\n%s,%s,%s\n",
				baseNames[m.Edge.From], baseNames[m.Edge.To], strconv.FormatFloat(w, 'g', -1, 64))
			_, err := etl.Load(strings.NewReader("A,A\nB,B\n"), strings.NewReader("P,P,S\n"), strings.NewReader(shares))
			var le *etl.LoadError
			if !errors.As(err, &le) || len(le.Rows) != 1 || le.Rows[0].Line != 3 {
				t.Errorf("etl.Load: %v, want one refused row, line 3", err)
				return nil
			}
			return []error{errors.New(le.Rows[0].Msg)}
		}},
		{"ReadJSON", func(t *testing.T, m pg.Mutation) []error {
			w, ok := m.Edge.Weight()
			if m.Kind != pg.MutAddEdge || math.IsNaN(w) {
				return nil
			}
			props := ""
			if ok {
				props = fmt.Sprintf(`,"props":{"w":%v}`, w)
			}
			doc := `{"nodes":[{"id":0,"label":"Company"},{"id":1,"label":"Company"},{"id":2,"label":"Person"},{"id":3,"label":"Fund"}],` +
				`"edges":[{"id":0,"label":"Shareholding","from":0,"to":1,"props":{"w":0.5}},{"id":1,"label":"Control","from":0,"to":1},` +
				fmt.Sprintf(`{"id":2,"label":"Shareholding","from":%d,"to":%d%s}]}`, m.Edge.From, m.Edge.To, props)
			_, err := pg.ReadJSON(strings.NewReader(doc))
			return []error{err}
		}},
		{"WAL recovery", func(t *testing.T, m pg.Mutation) []error {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			for _, r := range definitionBase {
				if _, err := s.Graph().Replay(r.Mutation); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			w, err := openWAL(walPath(dir, 0), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(Record{Mutation: m}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			s, err = Open(dir, Options{})
			if err == nil {
				s.Close()
			}
			return []error{err}
		}},
		{"snapshot decode", func(t *testing.T, m pg.Mutation) []error {
			payload := snapshotPayload(t, 0, 0, append(definitionBase[:len(definitionBase):len(definitionBase)], Record{Mutation: m})...)
			_, _, err := DecodeSnapshotMarks(reseal(payload))
			return []error{err}
		}},
	}
	for _, wr := range writers {
		refused := 0
		for _, c := range invalidMutations() {
			for _, err := range wr.write(t, c.m) {
				if err == nil || !strings.HasSuffix(err.Error(), c.want) {
					t.Errorf("%s, %s: %v, want %q", wr.name, c.name, err, c.want)
				}
				refused++
			}
		}
		t.Logf("%s: %d writes checked", wr.name, refused)
		if refused == 0 {
			t.Errorf("%s expressed no case", wr.name)
		}
	}
}

// TestImportedBuilderGraphSurvivesReopen: after Import, what a Builder's
// graph holds is what the store recovers. PersonWith once merged properties
// into an existing person by writing the graph's node map directly — no
// hook fired and no seq moved — so the merge was lost on reopen. It now
// refuses an existing key, and a new person reaches the WAL.
func TestImportedBuilderGraphSurvivesReopen(t *testing.T) {
	_, b := pg.Figure2()
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.Import(b.Graph()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PersonWith("P2", pg.Properties{"birth": 1970.0}); err == nil {
		t.Error("PersonWith merged into an existing person")
	}
	if _, err := b.PersonWith("P9", pg.Properties{"birth": 1980.0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if diff := sameGraph(s2.Graph(), b.Graph()); diff != "" {
		t.Errorf("the reopened store differs from the graph it captured: %s", diff)
	}
}
