package store

import (
	"errors"
	"fmt"
	"testing"

	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

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
	if v0.Seq() != 0 || v0.depth != 0 {
		t.Fatalf("initial version seq=%d depth=%d, want 0/0", v0.Seq(), v0.depth)
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
	if vs.Current() != v1 || v1.Seq() != 1 {
		t.Fatalf("Current() != committed version (seq %d)", v1.Seq())
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
	if v.Seq() != 1 {
		t.Fatalf("published seq = %d, want 1", v.Seq())
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

	// The hook observes each commit once, with its journal, after the
	// version is published.
	var order []string
	vs.SetCommitHook(func(next *Version, journal []pg.Mutation) {
		if len(journal) != 1 || journal[0].Kind != pg.MutAddNode {
			t.Errorf("hook a observed journal %v, want one MutAddNode", journal)
		}
		if next != vs.Current() {
			t.Errorf("hook saw seq %d, current is %d", next.Seq(), vs.Current().Seq())
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
