package vadalog

import (
	"strings"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

func TestGenericPipelineFindsPartners(t *testing.T) {
	g := pg.New()
	mario := g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Mario", "surname": "Rossi", "birth": 1960.0,
		"addr": "Via Garibaldi 12", "city": "Roma",
	})
	elena := g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Elena", "surname": "Rossi", "birth": 1962.0,
		"addr": "Via Garibaldi 12", "city": "Roma",
	})
	carlo := g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Carlo", "surname": "Verdi", "birth": 1950.0,
		"addr": "Piazza Dante 1", "city": "Napoli",
	})
	res, err := RunGeneric(g, GenericConfig{})
	if err != nil {
		t.Fatal(err)
	}
	found := map[[2]pg.NodeID]bool{}
	for _, p := range res.Pairs {
		found[p] = true
	}
	if !found[[2]pg.NodeID{mario, elena}] && !found[[2]pg.NodeID{elena, mario}] {
		t.Errorf("generic pipeline missed the partner pair; pairs = %v", res.Pairs)
	}
	for p := range found {
		if p[0] == carlo || p[1] == carlo {
			t.Errorf("generic pipeline paired the unrelated person: %v", p)
		}
	}
	if res.Blocks == 0 {
		t.Error("no blocks recorded")
	}
}

func TestGenericPipelineRespectsBlocks(t *testing.T) {
	// Two identical-feature pairs in different cities: with the city-aware
	// person blocker they never co-block... they do share surname-pass keys.
	// Use a blocker splitting on city only to verify block discipline.
	g := pg.New()
	a1 := g.AddNode(pg.LabelPerson, pg.Properties{"name": "A", "surname": "Rossi", "birth": 1960.0, "addr": "X 1", "city": "Roma"})
	a2 := g.AddNode(pg.LabelPerson, pg.Properties{"name": "B", "surname": "Rossi", "birth": 1961.0, "addr": "X 1", "city": "Roma"})
	b1 := g.AddNode(pg.LabelPerson, pg.Properties{"name": "C", "surname": "Rossi", "birth": 1960.0, "addr": "X 1", "city": "Milano"})
	b2 := g.AddNode(pg.LabelPerson, pg.Properties{"name": "D", "surname": "Rossi", "birth": 1961.0, "addr": "X 1", "city": "Milano"})
	blocker := blockerFunc(func(n *pg.Node) string {
		c, _ := n.Props.Map()["city"].(string)
		return c
	})
	res, err := RunGeneric(g, GenericConfig{Blocker: blocker})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Pairs {
		cx := g.Node(p[0]).Props.Map()["city"]
		cy := g.Node(p[1]).Props.Map()["city"]
		if cx != cy {
			t.Errorf("pair %v crosses blocks (%v vs %v)", p, cx, cy)
		}
	}
	// Both within-city pairs must be found.
	found := map[[2]pg.NodeID]bool{}
	for _, p := range res.Pairs {
		found[p] = true
	}
	if !found[[2]pg.NodeID{a1, a2}] || !found[[2]pg.NodeID{b1, b2}] {
		t.Errorf("within-block pairs missing: %v", res.Pairs)
	}
}

type blockerFunc func(n *pg.Node) string

func (f blockerFunc) Key(n *pg.Node) string { return f(n) }

func TestGenericPipelineExplainable(t *testing.T) {
	// Provenance through the whole declarative pipeline: the partnerof
	// decision explains back to the person facts.
	g := pg.New()
	g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Mario", "surname": "Rossi", "birth": 1960.0,
		"addr": "Via Garibaldi 12", "city": "Roma",
	})
	g.AddNode(pg.LabelPerson, pg.Properties{
		"name": "Elena", "surname": "Rossi", "birth": 1962.0,
		"addr": "Via Garibaldi 12", "city": "Roma",
	})
	res, err := RunGeneric(g, GenericConfig{EngineOptions: []datalog.Option{datalog.WithProvenance()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("no pairs to explain")
	}
	facts := res.Engine.Facts("partnerof")
	tree := res.Engine.ExplainTree(facts[0], 0)
	joined := strings.Join(tree, "\n")
	if !strings.Contains(joined, "person") {
		t.Errorf("explanation does not reach the person facts:\n%s", joined)
	}
	if !strings.Contains(joined, "block") {
		t.Errorf("explanation does not show the blocking step:\n%s", joined)
	}
}

func TestGenericPipelineOnItalianGraph(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 80, Companies: 30, Seed: 4})
	res, err := RunGeneric(it.Graph, GenericConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("generic pipeline found nothing on the Italian graph")
	}
	// Pairs are persons.
	for _, p := range res.Pairs {
		if it.Graph.Node(p[0]).Label != pg.LabelPerson || it.Graph.Node(p[1]).Label != pg.LabelPerson {
			t.Errorf("non-person pair %v", p)
		}
	}
}

func TestSkolemNodeInverse(t *testing.T) {
	sk := datalog.NewSkolem("skp", int64(42))
	id, ok := skolemNode(sk)
	if !ok || id != 42 {
		t.Errorf("skolemNode = %v, %v", id, ok)
	}
	if _, ok := skolemNode(datalog.NewSkolem("other", int64(1))); ok {
		t.Error("foreign skolem accepted")
	}
	if _, ok := skolemNode("not a skolem"); ok {
		t.Error("non-skolem accepted")
	}
}
