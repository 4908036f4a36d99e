package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/pg"
)

// TestSnapshotIsolationRace is the MVCC proof under -race: a stream of
// committing writers, concurrent snapshot readers, and concurrent what-if
// overlays all share one Versioned store. Every committed transaction adds
// an atomic unit of two nodes joined by one edge — three records — so:
//
//   - a version with sequence number s0+3k must show exactly base+2k nodes
//     and base+k edges — a reader that ever observes anything else, or a
//     seq off that grid, saw a half-applied augment;
//   - re-reading a held version after a delay must reproduce the identical
//     counts — versions are frozen.
//
// A faultinject hook at the version-swap site stretches the window between
// master replay and publish and asserts the published version is still the
// transaction's base — readers never see a commit in progress.
func TestSnapshotIsolationRace(t *testing.T) {
	g := seedGraph()
	baseNodes, baseEdges := g.NumNodes(), g.NumEdges()
	vs := NewVersioned(g)
	s0 := vs.Current().Seq()
	// commits is the number of transactions behind a version.
	commits := func(v *Version) int { return int(v.Seq()-s0) / 3 }

	var swapChecks atomic.Int64
	faultinject.Set(faultinject.SiteStoreSwap, func() {
		// Inside the swap window the commit has already mutated the master,
		// but the published chain must not have moved yet.
		cur := vs.Current()
		if nodes := cur.View().NumNodes(); nodes != baseNodes+2*commits(cur) {
			t.Errorf("swap window: published version seq=%d shows %d nodes, want %d", cur.Seq(), nodes, baseNodes+2*commits(cur))
		}
		swapChecks.Add(1)
		time.Sleep(100 * time.Microsecond) // stretch the window
	})
	defer faultinject.Clear(faultinject.SiteStoreSwap)

	const (
		writers      = 3
		commitsTotal = 60
		readers      = 6
		whatIfs      = 4
	)
	var committed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Writers: contend optimistically, retrying on ErrConflict, until the
	// commit budget is spent.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for committed.Load() < commitsTotal {
				txn := vs.Begin()
				o := txn.Overlay()
				a := o.AddNode(pg.LabelCompany, nil)
				b := o.AddNode(pg.LabelCompany, nil)
				if _, err := o.AddShare(a, b, 0.5); err != nil {
					t.Errorf("AddShare: %v", err)
					return
				}
				if _, err := txn.Commit(); err != nil {
					if errors.Is(err, ErrConflict) {
						continue
					}
					t.Errorf("Commit: %v", err)
					return
				}
				committed.Add(1)
			}
		}()
	}

	checkVersion := func(v *Version) {
		k := commits(v)
		if (v.Seq()-s0)%3 != 0 {
			t.Errorf("version seq=%d is not a whole number of commits past %d", v.Seq(), s0)
		}
		if got, want := v.View().NumNodes(), baseNodes+2*k; got != want {
			t.Errorf("version seq=%d: %d nodes, want %d (half-applied commit visible)", v.Seq(), got, want)
		}
		if got, want := v.View().NumEdges(), baseEdges+k; got != want {
			t.Errorf("version seq=%d: %d edges, want %d", v.Seq(), got, want)
		}
	}

	// Readers: snapshot, verify, hold, verify again.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := vs.Current()
				checkVersion(v)
				// Walk some structure to race against commits.
				for _, id := range v.View().NodesWithLabel(pg.LabelCompany) {
					v.View().OutLabel(id, pg.LabelShareholding)
				}
				checkVersion(v) // the held version must not have moved
			}
		}()
	}

	// What-if workers: stack read-only overlays on the current version and
	// mutate them; published state must be unaffected (the invariant the
	// readers above keep checking).
	for w := 0; w < whatIfs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := vs.Current()
				o := pg.NewOverlay(v.View())
				n1 := o.AddNode(pg.LabelCompany, nil)
				n2 := o.AddNode(pg.LabelCompany, nil)
				if _, err := o.AddShare(n1, n2, 0.9); err != nil {
					t.Errorf("what-if AddShare: %v", err)
					return
				}
				if edges := o.EdgesWithLabel(pg.LabelShareholding); len(edges) > 0 {
					if err := o.SetEdgeWeight(edges[0], 0.42); err != nil {
						t.Errorf("what-if SetEdgeWeight: %v", err)
						return
					}
				}
				checkVersion(v)
			}
		}()
	}

	// Wait for the writers to finish, then stop the read/what-if load.
	done := make(chan struct{})
	go func() {
		for committed.Load() < commitsTotal {
			time.Sleep(time.Millisecond)
		}
		close(done)
	}()
	<-done
	close(stop)
	wg.Wait()

	final := vs.Current()
	if int64(commits(final)) != committed.Load() {
		t.Fatalf("final seq %d is %d commits past %d, want %d", final.Seq(), commits(final), s0, committed.Load())
	}
	checkVersion(final)
	if swapChecks.Load() == 0 {
		t.Fatal("faultinject swap site never fired")
	}
	// The master converged to the same state as the final published version.
	flat, err := pg.Flatten(final.View())
	if err != nil {
		t.Fatal(err)
	}
	if flat.NumNodes() != g.NumNodes() || flat.NumEdges() != g.NumEdges() {
		t.Fatalf("master (%d nodes, %d edges) diverged from published (%d, %d)",
			g.NumNodes(), g.NumEdges(), flat.NumNodes(), flat.NumEdges())
	}
}

// TestReplayPublishRace runs the follower's two steps against transactions
// and readers on one store under -race: a replicator replays weight-edit
// records and publishes every few, writers commit two nodes joined by an
// edge (retrying on ErrConflict, which an unpublished burst also causes),
// and readers check that every version they hold is a whole number of
// commits, keeps its counts while held, and that seqs never go backwards.
// At the end the master and the last version agree.
func TestReplayPublishRace(t *testing.T) {
	g := seedGraph()
	baseNodes, baseEdges := g.NumNodes(), g.NumEdges()
	share := g.EdgesWithLabel(pg.LabelShareholding)[0]
	vs := NewVersioned(g)
	const commits, records = 40, 200
	var committed atomic.Int64
	stop := make(chan struct{})
	var wg, load sync.WaitGroup

	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for committed.Load() < commits {
				txn := vs.Begin()
				a := txn.Overlay().AddNode(pg.LabelCompany, nil)
				b := txn.Overlay().AddNode(pg.LabelCompany, nil)
				if _, err := txn.Overlay().AddShare(a, b, 0.5); err != nil {
					t.Errorf("AddShare: %v", err)
					return
				}
				if _, err := txn.Commit(); err == nil {
					committed.Add(1)
				} else if !errors.Is(err, ErrConflict) {
					t.Errorf("Commit: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= records; i++ {
			w := 0.1 + 0.8*float64(i%7)/7
			var props pg.RecordBuilder
			props.Float(pg.WeightProp, w)
			if err := vs.Replay(pg.Mutation{Kind: pg.MutSetEdgeWeight, Edge: &pg.Edge{ID: share, Props: props.Record()}}); err != nil {
				t.Errorf("Replay: %v", err)
				return
			}
			if i%3 == 0 {
				vs.Publish()
			}
		}
		vs.Publish()
	}()
	for r := 0; r < 4; r++ {
		load.Add(1)
		go func() {
			defer load.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := vs.Current()
				if v.Seq() < last {
					t.Errorf("seq went backwards: %d after %d", v.Seq(), last)
				}
				last = v.Seq()
				nodes, edges := v.View().NumNodes(), v.View().NumEdges()
				if nodes-baseNodes != 2*(edges-baseEdges) {
					t.Errorf("version seq=%d: %d nodes, %d edges: half a commit visible", v.Seq(), nodes, edges)
				}
				for _, id := range v.View().NodesWithLabel(pg.LabelCompany) {
					v.View().OutLabel(id, pg.LabelShareholding)
				}
				if v.View().NumNodes() != nodes || v.View().NumEdges() != edges {
					t.Errorf("version seq=%d moved while held", v.Seq())
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	load.Wait()

	final := vs.Current()
	if final.Seq() != uint64(g.Seq()) || final.View().NumNodes() != g.NumNodes() || final.View().NumEdges() != g.NumEdges() {
		t.Fatalf("final version seq %d, %d nodes, %d edges; master seq %d, %d nodes, %d edges",
			final.Seq(), final.View().NumNodes(), final.View().NumEdges(), g.Seq(), g.NumNodes(), g.NumEdges())
	}
	if want := uint64(5 + 3*committed.Load() + records); final.Seq() != want {
		t.Fatalf("final seq %d, want %d: the seed's 5 records, 3 per commit, 1 per replayed record", final.Seq(), want)
	}
	wm, _ := g.Edge(share).Weight()
	if wv, _ := final.View().Edge(share).Weight(); wv != wm {
		t.Fatalf("the last version reads weight %v, the master %v", wv, wm)
	}
}
