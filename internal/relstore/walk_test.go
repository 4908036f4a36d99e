package relstore

import (
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// labelScanFacts is the reference walk the per-source walk is held to: node
// rows by label, then one own row per (from, to) pair of the shareholdings
// in label order, read through EdgesWithLabel, parallel parcels summed in
// edge order under a map of pairs.
func labelScanFacts(g pg.View) []datalog.Fact {
	var facts []datalog.Fact
	for _, nr := range nodeRels {
		for _, id := range g.NodesWithLabel(nr.label) {
			args := []any{int64(id)}
			for _, name := range NodeProps {
				v, _ := g.Node(id).Props.Lookup(name)
				args = append(args, propValue(v))
			}
			facts = append(facts, datalog.Fact{Pred: nr.pred, Args: args})
		}
	}
	pair := map[[2]pg.NodeID]int{} // a pair's row in facts
	for _, eid := range g.EdgesWithLabel(pg.LabelShareholding) {
		e := g.Edge(eid)
		x, _ := e.Weight()
		key := [2]pg.NodeID{e.From, e.To}
		if j, seen := pair[key]; seen {
			facts[j].Args[2] = facts[j].Args[2].(float64) + x
			continue
		}
		pair[key] = len(facts)
		facts = append(facts, datalog.Fact{Pred: PredOwn, Args: []any{int64(e.From), int64(e.To), x}})
	}
	return facts
}

// multiset counts facts by their key, which renders a float to the bit.
func multiset(facts []datalog.Fact) map[string]int {
	m := map[string]int{}
	for _, f := range facts {
		m[f.Key()]++
	}
	return m
}

// loaded returns the image's rows an engine holds after load.
func loaded(load func(*datalog.Engine)) []datalog.Fact {
	e, _ := datalog.NewEngine(datalog.MustParse(`own(X, Y, W) -> p(X, Y).`))
	load(e)
	var facts []datalog.Fact
	for _, p := range []string{PredCompany, PredPerson, PredOwn} {
		facts = append(facts, e.Facts(p)...)
	}
	return facts
}

// parcelGraph holds three parallel parcels P0 → C0 among other
// shareholdings, and edges of other labels out of P0.
func parcelGraph() (*pg.Graph, *pg.Builder) {
	b := pg.NewBuilder()
	for _, c := range []string{"C0", "C1", "C2", "C3"} {
		b.Company(c)
	}
	b.PersonWith("P0", pg.Properties{"name": "Ada", "birth": 1970.0})
	b.Person("P1")
	b.Own("P0", "C0", 0.1).Own("P0", "C1", 0.05).Own("P0", "C0", 0.2).Own("C2", "C0", 0.1).Own("P0", "C0", 0.3)
	b.Own("C1", "C2", 0.5).Own("C3", "C2", 0.25).Own("P1", "C3", 0.5).Own("C0", "C3", 0.125)
	g := b.Graph()
	g.MustAddEdge(pg.LabelControl, b.ID("P0"), b.ID("C0"), nil)
	g.MustAddEdge(pg.LabelSiblingOf, b.ID("P0"), b.ID("P1"), nil)
	return g, b
}

// differentialViews are the graphs both walks run over: generated
// registries, and hand cases for parallel parcels, removals, weight edits,
// edges of other labels and an overlay that adds, removes and edits.
func differentialViews(t *testing.T) map[string]pg.View {
	t.Helper()
	views := map[string]pg.View{}
	for seed := int64(1); seed <= 4; seed++ {
		views[fmt.Sprint("italian ", seed)] = graphgen.NewItalian(graphgen.ItalianConfig{Persons: 120, Companies: 200, Seed: seed}).Graph
		views[fmt.Sprint("barabasi ", seed)] = graphgen.BarabasiWith(graphgen.BarabasiConfig{N: 300, M: 3, Seed: seed, PersonFraction: 0.3})
	}

	g, b := parcelGraph()
	views["parallel parcels"] = g.Clone()

	edited := g.Clone()
	for _, eid := range []pg.EdgeID{edited.Out(b.ID("C1"))[0], edited.Out(b.ID("P0"))[2]} {
		if err := edited.SetEdgeWeight(eid, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	views["weight edits"] = edited

	removed := g.Clone()
	removed.RemoveEdge(removed.Out(b.ID("P0"))[1]) // the 0.05 parcel into C1
	removed.RemoveNode(b.ID("C3"))
	removed.MustAddEdgeWeighted(b.ID("P1"), b.ID("C1"), 0.3)
	views["removals"] = removed

	o := pg.NewOverlay(g)
	o.MustAddEdge(pg.LabelShareholding, b.ID("P0"), b.ID("C0"), pg.Properties{pg.WeightProp: 0.15}) // a fourth parcel, added over the base
	o.RemoveEdge(g.Out(b.ID("C2"))[0])
	if err := o.SetEdgeWeight(g.Out(b.ID("C1"))[0], 0.4); err != nil {
		t.Fatal(err)
	}
	c4 := o.AddNode(pg.LabelCompany, pg.Properties{"name": "New"})
	o.MustAddEdge(pg.LabelShareholding, b.ID("P1"), c4, pg.Properties{pg.WeightProp: 1.0})
	o.RemoveNode(b.ID("C3"))
	views["overlay"] = o
	views["overlay on overlay"] = func() pg.View {
		top := pg.NewOverlay(o)
		top.MustAddEdge(pg.LabelShareholding, c4, b.ID("C1"), pg.Properties{pg.WeightProp: 0.2})
		top.RemoveNode(b.ID("P1"))
		return top
	}()
	return views
}

// TestWalkMatchesLabelScan: on every view, the per-source walk emits the
// multiset of rows the label-scan reference emits, as facts and streamed
// into an engine, parallel parcels summed to the same bits.
func TestWalkMatchesLabelScan(t *testing.T) {
	for name, v := range differentialViews(t) {
		want := multiset(labelScanFacts(v))
		if got := multiset(CompanyGraphFacts(v)); !maps.Equal(got, want) {
			t.Errorf("%s: CompanyGraphFacts emits %v, the label scan %v", name, got, want)
		}
		if got := multiset(loaded(func(e *datalog.Engine) { Load(e, v) })); !maps.Equal(got, want) {
			t.Errorf("%s: Load streams %v, the label scan %v", name, got, want)
		}
	}
	// 0.1 + 0.2 + 0.3 in edge order is 0.6000000000000001, not 0.6.
	g, b := parcelGraph()
	sum := 0.1
	sum += 0.2
	sum += 0.3
	own := datalog.Fact{Pred: PredOwn, Args: []any{int64(b.ID("P0")), int64(b.ID("C0")), sum}}
	if multiset(CompanyGraphFacts(g))[own.Key()] != 1 {
		t.Errorf("the parcels P0 → C0 do not sum to %v in edge order", sum)
	}
}

// TestLoadScopeIsLoadRestricted: on every view, LoadScope over random
// scopes — unknown and removed IDs among them — streams exactly the rows of
// Load whose node is in the scope's nodes, or whose owner is in its sources.
func TestLoadScopeIsLoadRestricted(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for name, v := range differentialViews(t) {
		all := loaded(func(e *datalog.Engine) { Load(e, v) })
		for range 5 {
			nodes, sources := map[pg.NodeID]bool{}, map[pg.NodeID]bool{}
			for id := range v.NextNodeID() + 2 {
				if r.Intn(3) == 0 {
					nodes[id] = true
				}
				if r.Intn(3) == 0 {
					sources[id] = true
				}
			}
			var want []datalog.Fact
			for _, f := range all {
				id, _ := NodeID(f.Args[0])
				if f.Pred == PredOwn && sources[id] || f.Pred != PredOwn && nodes[id] {
					want = append(want, f)
				}
			}
			got := loaded(func(e *datalog.Engine) { LoadScope(e, v, nodes, sources) })
			if !maps.Equal(multiset(got), multiset(want)) {
				t.Errorf("%s: LoadScope streams %v, Load restricted %v", name, multiset(got), multiset(want))
			}
		}
	}
}
