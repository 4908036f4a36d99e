package pg_test

import (
	"runtime"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// TestCloneAllocations pins the bytes one Clone of a fixed generated
// registry allocates. A clone shares nodes, edges and property maps with its
// origin and copies only the ID-indexed element and adjacency slices and the
// label slices, each index into one backing array: 13 allocations and 49 B
// per node-or-edge here, against 39 allocations and 62 B when elements and
// adjacency sat in maps, and 20,219 allocations and 482 B when Clone copied
// every element and property map. The budgets leave ~15 % headroom; a Clone
// that starts copying elements, allocating per adjacency list, or rebuilding
// a map, again fails here.
func TestCloneAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const allocBudget, byteBudget = 15, 340_000
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	elements := g.NumNodes() + g.NumEdges()
	var c *pg.Graph
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(5, func() { c = g.Clone() })
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / 6 // AllocsPerRun adds a warm-up run
	if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone holds %d/%d nodes/edges, want %d/%d", c.NumNodes(), c.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	t.Logf("%d nodes and edges: %.0f allocations, %.0f bytes (%.1f B per element) per clone",
		elements, allocs, bytes, bytes/float64(elements))
	if allocs > allocBudget {
		t.Errorf("a clone allocates %.0f times, budget %d", allocs, allocBudget)
	}
	if bytes > byteBudget {
		t.Errorf("a clone allocates %.0f bytes, budget %d", bytes, byteBudget)
	}
}

// TestGraphBytesPerElement pins the heap a generated registry keeps per node
// or edge: the elements, their records and the graph's index. Records are
// one string each, with interned keys and the string values in it, and the
// index is slices by ID: 168 B per element here, against 176 B when
// elements and adjacency sat in maps and 486 B when every element held a
// map[string]any. The budget leaves ~15 % headroom; an element that starts
// holding a map, or a string header per property, again fails here.
func TestGraphBytesPerElement(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const byteBudget = 193
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 2000, Persons: 1000, Seed: 11}).Graph
	runtime.GC()
	runtime.ReadMemStats(&after)
	elements := g.NumNodes() + g.NumEdges()
	perElement := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(elements)
	runtime.KeepAlive(g)
	t.Logf("%d nodes and edges: %.0f B per element retained", elements, perElement)
	if perElement > byteBudget {
		t.Errorf("a graph keeps %.0f B per element, budget %d", perElement, byteBudget)
	}
}

// TestPropertyReadsAllocateNothing: the typed reads the hot paths make — a
// share's weight, a name, a birth year, a key outside the well-known ones —
// box nothing and allocate nothing.
func TestPropertyReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	it := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 20, Persons: 20, Seed: 11})
	g := it.Graph
	person := g.Node(g.NodesWithLabel(pg.LabelPerson)[0])
	share := g.Edge(g.EdgesWithLabel(pg.LabelShareholding)[0])
	var b pg.RecordBuilder
	b.Str("registry-code", "IT-0001")
	b.Float("capital", 1.5e6)
	other := b.Record()
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		w, _ := share.Weight()
		name, _ := person.Props.Str("name")
		birth, _ := person.Props.Num("birth")
		code, _ := other.Str("registry-code")
		capital, _ := other.Num("capital")
		v, _ := person.Props.Lookup("city")
		sink += w + birth + capital + float64(len(name)+len(code)+len(v.Str()))
	})
	if sink == 0 {
		t.Fatal("the reads read nothing")
	}
	if allocs != 0 {
		t.Errorf("typed property reads allocate %.0f times, want 0", allocs)
	}
}

// TestMutatorAllocations pins the allocations of one add through the
// mutator. Measured before the named methods wrote through Replay:
// Graph.AddShare and Overlay.AddShare 3 each (the weight record, the record
// boxed as a PropSource, the Edge), and Graph.Replay of a decoded add-edge
// record 2 (its record boxed again, and a copy of its Edge). The mutator
// now holds the mutation's own Edge, and AddShare boxes nothing: 2, 2 and
// 0, the budgets. Index growth amortizes to nothing over the runs. Augment
// writes its links through AddEdge, and its workload is GC-sensitive, so an
// add that starts copying again fails here.
func TestMutatorAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const runs = 1000
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	o := pg.NewOverlay(g)
	r := pg.New()
	r.AddNode(pg.LabelCompany, nil)
	r.AddNode(pg.LabelCompany, nil)
	share, _ := pg.NewRecord(pg.Properties{pg.WeightProp: 0.001})
	var records []pg.Mutation // one decoded record per run, warm-up included
	for id := range pg.EdgeID(runs + 1) {
		records = append(records, pg.Mutation{Kind: pg.MutAddEdge, Edge: &pg.Edge{
			ID: id, Label: pg.LabelShareholding, From: a, To: b, Props: share}})
	}
	for _, c := range []struct {
		name   string
		budget float64
		add    func() error
	}{
		{"Graph.AddShare", 2, func() error { _, err := g.AddShare(a, b, 0.001); return err }},
		{"Overlay.AddShare", 2, func() error { _, err := o.AddShare(a, b, 0.001); return err }},
		{"Graph.Replay", 0, func() error { _, err := r.Replay(records[r.NextEdgeID()]); return err }},
	} {
		var err error
		allocs := testing.AllocsPerRun(runs, func() {
			if e := c.add(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs > c.budget {
			t.Errorf("%s allocates %.0f times per add, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
