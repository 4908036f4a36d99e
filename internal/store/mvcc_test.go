package store

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// weight converts a Properties literal, failing loudly on a bad one.
func weight(p pg.Properties) pg.Record {
	r, err := pg.NewRecord(p)
	if err != nil {
		panic(err)
	}
	return r
}

func seedGraph() *pg.Graph {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	g.MustAddEdgeWeighted(a, b, 0.6)
	g.MustAddEdgeWeighted(b, c, 0.8)
	return g
}

func TestVersionedCommitPublishes(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	v0 := vs.Current()
	if v0.Seq() != 5 || v0.depth != 0 {
		t.Fatalf("initial version seq=%d depth=%d, want 5/0 (3 nodes and 2 edges behind it)", v0.Seq(), v0.depth)
	}

	txn := vs.Begin()
	o := txn.Overlay()
	n := o.AddNode(pg.LabelCompany, pg.Properties{"name": "D"})
	if _, err := o.AddShare(0, n, 0.3); err != nil {
		t.Fatal(err)
	}

	// Uncommitted work is invisible: the current version still reads the
	// original state.
	if got := vs.Current().View().NumNodes(); got != 3 {
		t.Fatalf("pre-commit view has %d nodes, want 3", got)
	}

	v1, err := txn.Commit()
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if vs.Current() != v1 || v1.Seq() != v0.Seq()+2 {
		t.Fatalf("Current() != committed version (seq %d, want %d: one per record)", v1.Seq(), v0.Seq()+2)
	}
	if got := v1.View().NumNodes(); got != 4 {
		t.Fatalf("post-commit view has %d nodes, want 4", got)
	}
	// The frozen prior version is untouched.
	if got := v0.View().NumNodes(); got != 3 {
		t.Fatalf("prior version mutated: %d nodes", got)
	}
	// The master tracked the commit.
	if got := g.NumNodes(); got != 4 {
		t.Fatalf("master has %d nodes, want 4", got)
	}
	// Double-commit is rejected.
	if _, err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Commit err = %v, want ErrTxnDone", err)
	}
}

func TestVersionedConflict(t *testing.T) {
	vs := NewVersioned(seedGraph())
	t1 := vs.Begin()
	t2 := vs.Begin()
	t1.Overlay().AddNode(pg.LabelCompany, nil)
	t2.Overlay().AddNode(pg.LabelPerson, nil)
	if _, err := t1.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if _, err := t2.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting commit err = %v, want ErrConflict", err)
	}
	// The loser never reached the master or the published chain.
	if got := vs.Current().View().NodesWithLabel(pg.LabelPerson); len(got) != 0 {
		t.Fatalf("aborted txn leaked nodes: %v", got)
	}
}

func TestVersionedCommitsWeightEditAndNodeRemoval(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	txn := vs.Begin()
	edge := txn.Overlay().EdgesWithLabel(pg.LabelShareholding)[0]
	if err := txn.Overlay().SetEdgeWeight(edge, 0.99); err != nil {
		t.Fatal(err)
	}
	victim := txn.Overlay().Edge(edge).To
	if !txn.Overlay().RemoveNode(victim) {
		t.Fatalf("RemoveNode(%d) = false", victim)
	}
	v, err := txn.Commit()
	if err != nil {
		t.Fatalf("Commit of weight-edit + node-removal overlay: %v", err)
	}
	// One weight edit, two incident-edge removals, one node removal.
	if v.Seq() != 5+4 || uint64(g.Seq()) != v.Seq() {
		t.Fatalf("published seq = %d (master %d), want 9", v.Seq(), g.Seq())
	}
	// The replayed master and the published view agree.
	if g.Node(victim) != nil || v.View().Node(victim) != nil {
		t.Fatal("removed node survived commit")
	}
	if g.Edge(edge) != nil || v.View().Edge(edge) != nil {
		t.Fatal("edge incident to removed node survived commit")
	}
	if g.WeightEdits() != 1 {
		t.Fatalf("master WeightEdits = %d, want 1", g.WeightEdits())
	}
}

func TestVersionedFlattens(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	for i := 0; i < 2*flattenDepth+1; i++ {
		txn := vs.Begin()
		txn.Overlay().AddNode(pg.LabelCompany, nil)
		v, err := txn.Commit()
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if v.depth >= flattenDepth {
			t.Fatalf("commit %d: depth %d not flattened", i, v.depth)
		}
		if _, isGraph := v.View().(*pg.Graph); (v.depth == 0) != isGraph {
			t.Fatalf("commit %d: depth %d but view flat=%v", i, v.depth, isGraph)
		}
		if got, want := v.View().NumNodes(), 3+i+1; got != want {
			t.Fatalf("commit %d: %d nodes, want %d", i, got, want)
		}
	}
}

// TestVersionedHookFiresOnCommitOnly pins the durability contract: the
// master's mutation hook — the seam the WAL hangs on — observes exactly the
// committed journal, exactly once, and nothing during overlay mutation or
// on read-only what-if overlays.
func TestVersionedHookFiresOnCommitOnly(t *testing.T) {
	g := seedGraph()
	var fired []pg.MutationKind
	g.SetMutationHook(func(m pg.Mutation) { fired = append(fired, m.Kind) })
	vs := NewVersioned(g)

	// A what-if burst over the current version: no hook activity.
	for i := 0; i < 5; i++ {
		o := pg.NewOverlay(vs.Current().View())
		o.AddNode(pg.LabelCompany, nil)
		o.RemoveNode(0)
	}
	if len(fired) != 0 {
		t.Fatalf("hook fired %d times during what-if burst", len(fired))
	}

	txn := vs.Begin()
	txn.Overlay().AddNode(pg.LabelCompany, nil)
	if len(fired) != 0 {
		t.Fatalf("hook fired %d times before commit", len(fired))
	}
	if _, err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != pg.MutAddNode {
		t.Fatalf("hook observed %v, want exactly [MutAddNode]", fired)
	}
}

func TestVersionedCommitHook(t *testing.T) {
	vs := NewVersioned(seedGraph())

	commit := func() *Version {
		txn := vs.Begin()
		txn.Overlay().AddNode(pg.LabelCompany, nil)
		next, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	// The hook observes each commit once, with its journal, just before
	// the version is published: readers cannot hold it yet.
	var order []string
	vs.SetCommitHook(func(next *Version, journal []pg.Mutation) {
		if len(journal) != 1 || journal[0].Kind != pg.MutAddNode {
			t.Errorf("hook a observed journal %v, want one MutAddNode", journal)
		}
		if cur := vs.Current(); cur == next || cur.Seq()+1 != next.Seq() {
			t.Errorf("hook saw seq %d while seq %d was current, want the version before it", next.Seq(), cur.Seq())
		}
		order = append(order, "a")
	})
	commit()
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("after first commit hooks ran %v, want [a]", order)
	}

	// SetCommitHook replaces the observer; nil removes it.
	vs.SetCommitHook(func(next *Version, journal []pg.Mutation) {
		order = append(order, "c")
	})
	order = nil
	commit()
	if len(order) != 1 || order[0] != "c" {
		t.Fatalf("after SetCommitHook hooks ran %v, want [c]", order)
	}
	vs.SetCommitHook(nil)
	order = nil
	commit()
	if len(order) != 0 {
		t.Fatalf("hooks ran %v after removal, want none", order)
	}
}

// TestVersionedTxnBaseAndAbort: a transaction is stacked on the version
// current at Begin and is aborted by dropping it. Its staged mutations reach
// neither readers nor the master, and it holds nothing that blocks the next
// transaction.
func TestVersionedTxnBaseAndAbort(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	base := vs.Current()

	txn := vs.Begin()
	if txn.base != base {
		t.Fatalf("txn stacked on seq %d, want the version current at Begin (seq %d)", txn.base.Seq(), base.Seq())
	}
	txn.Overlay().AddNode(pg.LabelCompany, nil)
	if got := vs.Current(); got != base {
		t.Fatalf("a dropped txn published seq %d, want store unchanged at seq %d", got.Seq(), base.Seq())
	}
	if got, want := g.NumNodes(), base.View().NumNodes(); got != want {
		t.Fatalf("a dropped txn reached the master: %d nodes, want %d", got, want)
	}
	next := vs.Begin()
	next.Overlay().AddNode(pg.LabelCompany, nil)
	if v, err := next.Commit(); err != nil || v.Seq() != base.Seq()+1 {
		t.Fatalf("commit after a dropped txn = (%v, %v), want seq %d", v, err, base.Seq()+1)
	}
}

// TestPinnedVersionKeepsWeight: published versions share nodes and edges with
// the master and with each other — version 0 and every flattened version are
// clones of the master — so a committed weight edit must replace the edge,
// never write it. Every version pinned along a chain of weight edits that
// crosses a flatten keeps reading its own weight through Edge, OutLabel,
// InLabel and the relational image the chase loads, while the master and
// the newest version read the newest.
func TestPinnedVersionKeepsWeight(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	ab := g.EdgesWithLabel(pg.LabelShareholding)[0]
	a, b := g.Edge(ab).From, g.Edge(ab).To
	check := func(name string, v pg.View, want float64) {
		t.Helper()
		got := map[string]float64{}
		got["Edge"], _ = v.Edge(ab).Weight()
		for _, e := range v.OutLabel(a, pg.LabelShareholding) {
			if e.ID == ab {
				got["OutLabel"], _ = e.Weight()
			}
		}
		for _, e := range v.InLabel(b, pg.LabelShareholding) {
			if e.ID == ab {
				got["InLabel"], _ = e.Weight()
			}
		}
		for _, f := range relstore.CompanyGraphFacts(v) {
			if f.Pred == relstore.PredOwn && f.Args[0] == int64(a) && f.Args[1] == int64(b) {
				got["CompanyGraphFacts"] = f.Args[2].(float64)
			}
		}
		for _, via := range []string{"Edge", "OutLabel", "InLabel", "CompanyGraphFacts"} {
			if got[via] != want {
				t.Errorf("%s reads weight %v through %s, want %v", name, got[via], via, want)
			}
		}
	}

	type pinned struct {
		v *Version
		w float64
	}
	w0, _ := g.Edge(ab).Weight()
	versions := []pinned{{vs.Current(), w0}}
	flattened := false
	for i := 1; i <= flattenDepth+2; i++ {
		w := w0 / float64(i+1)
		txn := vs.Begin()
		if err := txn.Overlay().SetEdgeWeight(ab, w); err != nil {
			t.Fatal(err)
		}
		next, err := txn.Commit()
		if err != nil {
			t.Fatal(err)
		}
		flattened = flattened || next.depth == 0
		versions = append(versions, pinned{next, w})
		check("the master", g, w)
		for _, p := range versions {
			check(fmt.Sprintf("after commit %d, version %d (depth %d)", i, p.v.Seq(), p.v.depth), p.v.View(), p.w)
		}
	}
	if !flattened {
		t.Fatalf("no commit of %d flattened the chain", flattenDepth+2)
	}
}

// TestVersionedReplayPublishesPerBurst: records replayed onto the master stay
// invisible until Publish, which makes the whole burst one version at the
// master's record count and hands the hook the records as the master applied
// them. Commits conflict while a burst is unpublished, a refused record
// leaves the chain as it was, and bursts flatten like commits do.
func TestVersionedReplayPublishesPerBurst(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	v0 := vs.Current()
	var journals [][]pg.Mutation
	vs.SetCommitHook(func(next *Version, journal []pg.Mutation) { journals = append(journals, journal) })

	stale := vs.Begin()
	stale.Overlay().AddNode(pg.LabelPerson, nil)
	share := g.EdgesWithLabel(pg.LabelShareholding)[0]
	burst := []pg.Mutation{
		{Kind: pg.MutAddNode, Node: &pg.Node{ID: g.NextNodeID(), Label: pg.LabelCompany}},
		{Kind: pg.MutAddEdge, Edge: &pg.Edge{ID: g.NextEdgeID(), Label: pg.LabelShareholding, From: 0, To: g.NextNodeID(),
			Props: weight(pg.Properties{pg.WeightProp: 0.3})}},
		{Kind: pg.MutSetEdgeWeight, Edge: &pg.Edge{ID: share, Props: weight(pg.Properties{pg.WeightProp: 0.7})}},
	}
	for _, m := range burst {
		if err := vs.Replay(m); err != nil {
			t.Fatal(err)
		}
	}
	if vs.Current() != v0 || len(journals) != 0 {
		t.Fatalf("an unpublished burst is visible: seq %d, %d hook calls", vs.Current().Seq(), len(journals))
	}
	if _, err := stale.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("commit beside an unpublished burst: err = %v, want ErrConflict", err)
	}
	if err := vs.Replay(burst[0]); err == nil {
		t.Fatal("the master accepted a node id it already assigned")
	}
	vs.Publish()
	v1 := vs.Current()
	if v1.Seq() != v0.Seq()+3 || uint64(g.Seq()) != v1.Seq() {
		t.Fatalf("burst published at seq %d (master %d), want %d", v1.Seq(), g.Seq(), v0.Seq()+3)
	}
	if len(journals) != 1 || len(journals[0]) != 3 || journals[0][0].Node != g.Node(burst[0].Node.ID) {
		t.Fatalf("hook saw %v, want one journal of the master's own 3 records", journals)
	}
	if w, _ := v1.View().Edge(share).Weight(); w != 0.7 || v1.View().NumNodes() != 4 || v1.View().NumEdges() != 3 {
		t.Fatalf("published view: weight %v, %d nodes, %d edges", w, v1.View().NumNodes(), v1.View().NumEdges())
	}
	if w, _ := v0.View().Edge(share).Weight(); w != 0.6 {
		t.Fatalf("the burst moved the version before it: weight %v", w)
	}
	vs.Publish()
	if vs.Current() != v1 || len(journals) != 1 {
		t.Fatal("an empty Publish published a version")
	}

	for i := 0; i < 2*flattenDepth; i++ {
		if err := vs.Replay(pg.Mutation{Kind: pg.MutAddNode, Node: &pg.Node{ID: g.NextNodeID(), Label: pg.LabelCompany}}); err != nil {
			t.Fatal(err)
		}
		vs.Publish()
		v := vs.Current()
		if _, flat := v.View().(*pg.Graph); v.depth >= flattenDepth || (v.depth == 0) != flat {
			t.Fatalf("publication %d: depth %d, flat %v", i, v.depth, flat)
		}
		if v.View().NumNodes() != g.NumNodes() {
			t.Fatalf("publication %d: %d nodes, master %d", i, v.View().NumNodes(), g.NumNodes())
		}
	}
	txn := vs.Begin()
	txn.Overlay().AddNode(pg.LabelPerson, nil)
	if _, err := txn.Commit(); err != nil {
		t.Fatalf("commit once the bursts are published: %v", err)
	}
}

// TestVersionedReset: Reset adopts a new master and publishes a flat clone
// of it at its own seq, drops what was pending on the old one, and tells the
// hook with a nil journal; a failing adopt leaves the store untouched.
func TestVersionedReset(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	v0 := vs.Current()
	var resets []*Version
	vs.SetCommitHook(func(next *Version, journal []pg.Mutation) {
		if journal == nil {
			resets = append(resets, next)
		}
	})
	if err := vs.Replay(pg.Mutation{Kind: pg.MutAddNode, Node: &pg.Node{ID: g.NextNodeID(), Label: pg.LabelCompany}}); err != nil {
		t.Fatal(err)
	}

	adopted := pg.New()
	for i := 0; i < 7; i++ {
		adopted.AddNode(pg.LabelCompany, nil)
	}
	refused := errors.New("refused")
	if err := vs.Reset(adopted, func() error { return refused }); !errors.Is(err, refused) {
		t.Fatalf("Reset with a failing adopt: err = %v", err)
	}
	if vs.Current() != v0 || len(resets) != 0 {
		t.Fatal("a failed adopt moved the store")
	}
	if err := vs.Reset(adopted, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	v1 := vs.Current()
	if flat, ok := v1.View().(*pg.Graph); !ok || flat == adopted || v1.Seq() != 7 || flat.NumNodes() != 7 {
		t.Fatalf("Reset published %T at seq %d with %d nodes, want a flat clone at 7", v1.View(), v1.Seq(), v1.View().NumNodes())
	}
	if len(resets) != 1 || resets[0] != v1 {
		t.Fatalf("hook saw %d resets, want the published version once", len(resets))
	}
	vs.Publish()
	if vs.Current() != v1 {
		t.Fatal("the record replayed onto the old master was published after the Reset")
	}
	txn := vs.Begin()
	txn.Overlay().AddNode(pg.LabelPerson, nil)
	if _, err := txn.Commit(); err != nil || adopted.NumNodes() != 8 || g.NumNodes() != 4 {
		t.Fatalf("commit after Reset: err %v, adopted %d nodes, old master %d", err, adopted.NumNodes(), g.NumNodes())
	}
}

// TestVersionedExclusiveHoldsReplays: no record reaches the master while an
// Exclusive function runs.
func TestVersionedExclusiveHoldsReplays(t *testing.T) {
	g := seedGraph()
	vs := NewVersioned(g)
	replayed := make(chan error)
	err := vs.Exclusive(func() error {
		go func() {
			replayed <- vs.Replay(pg.Mutation{Kind: pg.MutAddNode, Node: &pg.Node{ID: g.NextNodeID(), Label: pg.LabelCompany}})
		}()
		select {
		case <-replayed:
			return errors.New("a record was replayed inside Exclusive")
		case <-time.After(20 * time.Millisecond):
		}
		if g.NumNodes() != 3 {
			return fmt.Errorf("master moved to %d nodes inside Exclusive", g.NumNodes())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := <-replayed; err != nil || g.NumNodes() != 4 {
		t.Fatalf("replay after Exclusive: err %v, %d nodes", err, g.NumNodes())
	}
}
