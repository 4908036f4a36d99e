package pg

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randomBase builds a small random company graph.
func randomBase(rng *rand.Rand) *Graph {
	g := New()
	nCompanies := 4 + rng.Intn(6)
	nPersons := 1 + rng.Intn(3)
	var ids []NodeID
	for i := 0; i < nCompanies; i++ {
		ids = append(ids, g.AddNode(LabelCompany, Properties{"name": "C"}))
	}
	for i := 0; i < nPersons; i++ {
		ids = append(ids, g.AddNode(LabelPerson, Properties{"name": "P"}))
	}
	nEdges := rng.Intn(2 * len(ids))
	for i := 0; i < nEdges; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[rng.Intn(nCompanies)] // targets must be companies
		g.MustAddEdgeWeighted(from, to, 0.05+0.9*rng.Float64())
	}
	for i := rng.Intn(len(ids)); i > 0; i-- {
		g.MustAddEdge(randomOtherLabel(rng), ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))], nil)
	}
	return g
}

// randomOtherLabel draws one of the labels the random graphs use besides
// Shareholding (a Control edge or a family link).
func randomOtherLabel(rng *rand.Rand) Label {
	return edgeLabels[1+rng.Intn(len(edgeLabels)-2)]
}

// mutateOverlay applies a random batch of overlay mutations, including the
// what-if-only kinds when allowed, and edges of labels other than
// Shareholding.
func mutateOverlay(rng *rand.Rand, o *Overlay, whatIf bool) {
	ops := 1 + rng.Intn(8)
	for i := 0; i < ops; i++ {
		switch k := rng.Intn(6); {
		case k == 0:
			o.AddNode(LabelCompany, Properties{"name": "N"})
		case k == 1:
			nodes := o.Nodes()
			companies := o.NodesWithLabel(LabelCompany)
			if len(nodes) == 0 || len(companies) == 0 {
				continue
			}
			from := nodes[rng.Intn(len(nodes))]
			to := companies[rng.Intn(len(companies))]
			if _, err := o.AddShare(from, to, 0.05+0.9*rng.Float64()); err != nil {
				panic(err)
			}
		case k == 2:
			edges := o.Edges()
			if len(edges) == 0 {
				continue
			}
			o.RemoveEdge(edges[rng.Intn(len(edges))])
		case k == 3 && whatIf:
			edges := o.EdgesWithLabel(LabelShareholding)
			if len(edges) == 0 {
				continue
			}
			if err := o.SetEdgeWeight(edges[rng.Intn(len(edges))], 0.05+0.9*rng.Float64()); err != nil {
				panic(err)
			}
		case k == 4 && whatIf:
			nodes := o.Nodes()
			if len(nodes) < 3 {
				continue
			}
			o.RemoveNode(nodes[rng.Intn(len(nodes))])
		case k == 5:
			nodes := o.Nodes()
			if len(nodes) == 0 {
				continue
			}
			o.MustAddEdge(randomOtherLabel(rng), nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], nil)
		}
	}
}

// edgeLabels are the edge labels the differential reads through every
// label accessor: those the random graphs use, and CloseLink, which they do
// not.
var edgeLabels = []Label{LabelShareholding, LabelControl, LabelPartnerOf, LabelSiblingOf, LabelParentOf, LabelFamily, LabelCloseLink}

// labelled is an edge as the derived reads are compared: identity, label,
// endpoints and weight.
type labelled struct {
	ID       EdgeID
	Label    Label
	From, To NodeID
	W        float64
	Weighted bool
}

func labelledOf(e *Edge) labelled {
	w, ok := e.Weight()
	return labelled{e.ID, e.Label, e.From, e.To, w, ok}
}

// sortedLabelled returns es as labelled values in ID order.
func sortedLabelled(es []*Edge) []labelled {
	ls := make([]labelled, 0, len(es))
	for _, e := range es {
		ls = append(ls, labelledOf(e))
	}
	slices.SortFunc(ls, func(a, b labelled) int { return cmp.Compare(a.ID, b.ID) })
	return ls
}

// assertViewsEqual compares every View accessor of got against want, and
// the derived reads (OutLabel, InLabel, HasEdge) of both against an oracle
// that scans want's Edges.
func assertViewsEqual(t *testing.T, got, want View) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes: got %d want %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges: got %d want %d", got.NumEdges(), want.NumEdges())
	}
	if !slices.Equal(got.Nodes(), want.Nodes()) {
		t.Fatalf("Nodes: got %v want %v", got.Nodes(), want.Nodes())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("Edges: got %v want %v", got.Edges(), want.Edges())
	}
	if got.NextNodeID() != want.NextNodeID() || got.NextEdgeID() != want.NextEdgeID() {
		t.Fatalf("counters: got (%d,%d) want (%d,%d)",
			got.NextNodeID(), got.NextEdgeID(), want.NextNodeID(), want.NextEdgeID())
	}
	for _, label := range []Label{LabelCompany, LabelPerson} {
		if !slices.Equal(got.NodesWithLabel(label), want.NodesWithLabel(label)) {
			t.Fatalf("NodesWithLabel(%s): got %v want %v", label, got.NodesWithLabel(label), want.NodesWithLabel(label))
		}
	}
	for _, label := range edgeLabels {
		if !slices.Equal(got.EdgesWithLabel(label), want.EdgesWithLabel(label)) {
			t.Fatalf("EdgesWithLabel(%s): got %v want %v", label, got.EdgesWithLabel(label), want.EdgesWithLabel(label))
		}
	}
	// The oracle: want's edges by label and endpoint.
	type key struct {
		label Label
		node  NodeID
	}
	type pair struct {
		label    Label
		from, to NodeID
	}
	outOf, inOf, has := map[key][]*Edge{}, map[key][]*Edge{}, map[pair]bool{}
	for _, id := range want.Edges() {
		ge, we := got.Edge(id), want.Edge(id)
		if ge == nil || ge.Label != we.Label || ge.From != we.From || ge.To != we.To || !reflect.DeepEqual(ge.Props, we.Props) {
			t.Fatalf("Edge(%d): got %+v want %+v", id, ge, we)
		}
		outOf[key{we.Label, we.From}] = append(outOf[key{we.Label, we.From}], we)
		inOf[key{we.Label, we.To}] = append(inOf[key{we.Label, we.To}], we)
		has[pair{we.Label, we.From, we.To}] = true
	}
	sorted := func(ids []EdgeID) []EdgeID {
		c := slices.Clone(ids)
		slices.Sort(c)
		return c
	}
	for _, id := range want.Nodes() {
		gn, wn := got.Node(id), want.Node(id)
		if gn == nil || gn.Label != wn.Label || !reflect.DeepEqual(gn.Props, wn.Props) {
			t.Fatalf("Node(%d): got %+v want %+v", id, gn, wn)
		}
		if !slices.Equal(sorted(got.Out(id)), sorted(want.Out(id))) {
			t.Fatalf("Out(%d): got %v want %v", id, got.Out(id), want.Out(id))
		}
		if !slices.Equal(sorted(got.In(id)), sorted(want.In(id))) {
			t.Fatalf("In(%d): got %v want %v", id, got.In(id), want.In(id))
		}
		for _, label := range edgeLabels {
			for _, v := range []View{got, want} {
				if g, w := sortedLabelled(v.OutLabel(id, label)), sortedLabelled(outOf[key{label, id}]); !slices.Equal(g, w) {
					t.Fatalf("%T.OutLabel(%d, %s): got %+v want %+v", v, id, label, g, w)
				}
				if g, w := sortedLabelled(v.InLabel(id, label)), sortedLabelled(inOf[key{label, id}]); !slices.Equal(g, w) {
					t.Fatalf("%T.InLabel(%d, %s): got %+v want %+v", v, id, label, g, w)
				}
			}
		}
	}
	// HasEdge over every pair of IDs ever assigned, removed nodes included,
	// both ways round, under every label.
	for from := NodeID(0); from < want.NextNodeID(); from++ {
		for to := NodeID(0); to < want.NextNodeID(); to++ {
			for _, label := range edgeLabels {
				w := has[pair{label, from, to}]
				for _, v := range []View{got, want} {
					if v.HasEdge(label, from, to) != w {
						t.Fatalf("%T.HasEdge(%s, %d, %d) = %v, want %v", v, label, from, to, !w, w)
					}
				}
			}
		}
	}
}

// TestOverlayMatchesFlatten is the pg-level differential: a random overlay
// (including weight edits and node removals) must read identically to its
// flattened materialization, which is built through the independent
// restore path.
func TestOverlayMatchesFlatten(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := randomBase(rng)
		o := NewOverlay(base)
		mutateOverlay(rng, o, true)
		flat, err := Flatten(o)
		if err != nil {
			t.Fatalf("seed %d: Flatten: %v", seed, err)
		}
		assertViewsEqual(t, o, flat)
		if err := flat.Validate(); err != nil {
			t.Fatalf("seed %d: overlay invalid: %v", seed, err)
		}
	}
}

// TestOverlayChainMatchesFlatten stacks three overlay layers and checks the
// composite against its flattening.
func TestOverlayChainMatchesFlatten(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		base := randomBase(rng)
		var v View = base
		for layer := 0; layer < 3; layer++ {
			o := NewOverlay(v)
			mutateOverlay(rng, o, true)
			v = o
		}
		flat, err := Flatten(v)
		if err != nil {
			t.Fatalf("seed %d: Flatten: %v", seed, err)
		}
		assertViewsEqual(t, v, flat)
	}
}

// TestOverlayLeavesBaseUntouched pins the durability-leak regression at the
// pg level: heavy overlay mutation must never fire the base graph's
// mutation hook nor change any base state.
func TestOverlayLeavesBaseUntouched(t *testing.T) {
	base := randomBase(rand.New(rand.NewSource(7)))
	fired := 0
	base.SetMutationHook(func(Mutation) { fired++ })
	wantFlat, err := Flatten(base)
	if err != nil {
		t.Fatal(err)
	}

	for seed := int64(0); seed < 10; seed++ {
		o := NewOverlay(base)
		mutateOverlay(rand.New(rand.NewSource(seed)), o, true)
	}
	if fired != 0 {
		t.Fatalf("base mutation hook fired %d times during overlay mutation", fired)
	}
	base.SetMutationHook(nil)
	assertViewsEqual(t, base, wantFlat)
}

// TestOverlayJournal checks journal replay alignment and the what-if-only
// rejection.
func TestOverlayJournal(t *testing.T) {
	base := randomBase(rand.New(rand.NewSource(3)))
	o := NewOverlay(base)
	n1 := o.AddNode(LabelCompany, nil)
	n2 := o.AddNode(LabelCompany, nil)
	e1, err := o.AddShare(n1, n2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	victim := base.Edges()[0]
	if !o.RemoveEdge(victim) {
		t.Fatalf("RemoveEdge(%d) of base edge = false", victim)
	}
	journal, err := o.Journal()
	if err != nil {
		t.Fatalf("Journal: %v", err)
	}
	if len(journal) != 4 {
		t.Fatalf("journal has %d ops, want 4", len(journal))
	}
	// Replaying the journal onto a clone of the base must reproduce the
	// exact overlay-assigned IDs.
	replayed := base.Clone()
	for _, m := range journal {
		switch m.Kind {
		case MutAddNode:
			if id := replayed.AddNode(m.Node.Label, m.Node.Props); id != m.Node.ID {
				t.Fatalf("replayed node id %d, overlay assigned %d", id, m.Node.ID)
			}
		case MutAddEdge:
			id, err := replayed.AddEdge(m.Edge.Label, m.Edge.From, m.Edge.To, m.Edge.Props)
			if err != nil || id != m.Edge.ID {
				t.Fatalf("replayed edge id %d err %v, overlay assigned %d", id, err, m.Edge.ID)
			}
		case MutRemoveEdge:
			if !replayed.RemoveEdge(m.Edge.ID) {
				t.Fatalf("replayed remove of %d failed", m.Edge.ID)
			}
		}
	}
	assertViewsEqual(t, o, replayed)

	// A weight edit extends the journal like any other mutation.
	if err := o.SetEdgeWeight(e1, 0.9); err != nil {
		t.Fatal(err)
	}
	journal, err = o.Journal()
	if err != nil {
		t.Fatalf("Journal after weight edit: %v", err)
	}
	if len(journal) != 5 {
		t.Fatalf("journal has %d ops after weight edit, want 5", len(journal))
	}
	last := journal[len(journal)-1]
	if last.Kind != MutSetEdgeWeight || last.Edge.ID != e1 {
		t.Fatalf("last journal entry = %+v, want MutSetEdgeWeight of edge %d", last, e1)
	}
	if w, _ := last.Edge.Weight(); w != 0.9 {
		t.Fatalf("journaled weight = %v, want 0.9", w)
	}
	// The add that journaled e1 keeps the weight it was written with: an
	// edit replaces the overlay's own edge instead of writing it.
	if w, _ := journal[2].Edge.Weight(); journal[2].Kind != MutAddEdge || w != 0.4 {
		t.Fatalf("journaled add of edge %d = %+v, want weight 0.4", e1, journal[2].Edge)
	}
}

// TestOverlayWhatIfMutations covers the what-if-only ops' semantics.
func TestOverlayWhatIfMutations(t *testing.T) {
	base := New()
	a := base.AddNode(LabelCompany, nil)
	b := base.AddNode(LabelCompany, nil)
	c := base.AddNode(LabelCompany, nil)
	ab := base.MustAddEdgeWeighted(a, b, 0.6)
	base.MustAddEdgeWeighted(b, c, 0.8)

	o := NewOverlay(base)
	if err := o.SetEdgeWeight(ab, 0.25); err != nil {
		t.Fatal(err)
	}
	if w, _ := o.Edge(ab).Weight(); w != 0.25 {
		t.Fatalf("overlay weight = %v, want 0.25", w)
	}
	if w, _ := base.Edge(ab).Weight(); w != 0.6 {
		t.Fatalf("base weight changed to %v", w)
	}
	edited := o.Edge(ab)
	if err := o.SetEdgeWeight(ab, 0.3); err != nil {
		t.Fatal(err)
	}
	if w, _ := edited.Weight(); w != 0.25 || o.Edge(ab) == edited {
		t.Fatalf("a second edit of edge %d wrote the overlay's edited copy in place", ab)
	}
	if err := o.SetEdgeWeight(ab, 1.5); err == nil {
		t.Fatal("SetEdgeWeight(1.5) accepted")
	}
	if err := o.SetEdgeWeight(ab, math.NaN()); err == nil {
		t.Fatal("SetEdgeWeight(NaN) accepted")
	}
	if err := o.SetEdgeWeight(9999, 0.5); err == nil {
		t.Fatal("SetEdgeWeight on unknown edge accepted")
	}

	if !o.RemoveNode(b) {
		t.Fatal("RemoveNode(b) = false")
	}
	if o.Node(b) != nil {
		t.Fatal("removed node still visible")
	}
	if got := o.NumEdges(); got != 0 {
		t.Fatalf("NumEdges after removing b = %d, want 0 (both incident edges gone)", got)
	}
	if o.RemoveNode(b) {
		t.Fatal("second RemoveNode(b) = true")
	}
	if base.NumEdges() != 2 || base.Node(b) == nil {
		t.Fatal("base mutated by RemoveNode")
	}
	flat, err := Flatten(o)
	if err != nil {
		t.Fatal(err)
	}
	assertViewsEqual(t, o, flat)
}

// TestOverlayReplayRefusesWhatGraphRefuses: Overlay.Replay shares
// Graph.Replay's refusal rule, so every record the graph refuses is refused
// by an overlay over the same state too, before the overlay moves.
func TestOverlayReplayRefusesWhatGraphRefuses(t *testing.T) {
	for name, m := range refusedReplays() {
		g, _ := replayBase()
		o := NewOverlay(g)
		if _, err := o.Replay(m); err == nil {
			t.Errorf("%s: Overlay.Replay accepted it", name)
		}
		if journal, _ := o.Journal(); len(journal) != 0 || o.Delta() != (Delta{}) || o.NextNodeID() != 2 || o.NextEdgeID() != 1 {
			t.Errorf("%s: refusal moved the overlay: %d journaled, delta %+v", name, len(journal), o.Delta())
		}
	}
}

// TestOverlayReplayMatchesGraphReplay: the records a graph applied, replayed
// onto an overlay of the graph as it was, give the graph's state — the way a
// store version publishes a burst of replicated frames.
func TestOverlayReplayMatchesGraphReplay(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomBase(rng)
		before := g.Clone()
		var applied []Mutation
		g.SetMutationHook(func(m Mutation) { applied = append(applied, m) })
		src := NewOverlay(g.Clone())
		mutateOverlay(rng, src, true)
		journal, _ := src.Journal()
		for _, m := range journal {
			if _, err := g.Replay(m); err != nil {
				t.Fatalf("seed %d: graph refused its own overlay's record: %v", seed, err)
			}
		}
		o := NewOverlay(before)
		for _, m := range applied {
			if _, err := o.Replay(m); err != nil {
				t.Fatalf("seed %d: overlay refused a record the graph applied: %v", seed, err)
			}
		}
		assertViewsEqual(t, o, g)
	}
}

// TestHasEdgeRefusesWhatIsNotThere: on a graph and on an overlay alike,
// HasEdge is false for a removed edge, an edge into a removed node, the
// reversed pair and another label.
func TestHasEdgeRefusesWhatIsNotThere(t *testing.T) {
	for _, overlay := range []bool{false, true} {
		base := New()
		a := base.AddNode(LabelCompany, nil)
		b := base.AddNode(LabelCompany, nil)
		c := base.AddNode(LabelCompany, nil)
		d := base.AddNode(LabelCompany, nil)
		ab := base.MustAddEdgeWeighted(a, b, 0.5)
		base.MustAddEdgeWeighted(a, c, 0.5)
		base.MustAddEdgeWeighted(c, d, 0.5)
		var g interface {
			Mutable
			RemoveNode(NodeID) bool
		} = base
		if overlay {
			g = NewOverlay(base)
		}
		g.RemoveEdge(ab)
		g.RemoveNode(d)
		for _, tc := range []struct {
			what     string
			label    Label
			from, to NodeID
			want     bool
		}{
			{"a kept edge", LabelShareholding, a, c, true},
			{"a removed edge", LabelShareholding, a, b, false},
			{"an edge into a removed node", LabelShareholding, c, d, false},
			{"the reversed pair", LabelShareholding, c, a, false},
			{"another label", LabelControl, a, c, false},
		} {
			if got := g.HasEdge(tc.label, tc.from, tc.to); got != tc.want {
				t.Errorf("%T: HasEdge of %s = %v, want %v", g, tc.what, got, tc.want)
			}
		}
	}
}
