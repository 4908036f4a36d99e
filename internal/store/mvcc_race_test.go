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
// an atomic unit of two nodes joined by one edge, so:
//
//   - a version with sequence number s must show exactly base+2s nodes and
//     base+s edges — a reader that ever observes anything else saw a
//     half-applied augment;
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

	var swapChecks atomic.Int64
	faultinject.Set(faultinject.SiteStoreSwap, func() {
		// Inside the swap window the commit has already mutated the master,
		// but the published chain must not have moved yet.
		seq := vs.Current().Seq()
		nodes := vs.Current().View().NumNodes()
		if nodes != baseNodes+2*int(seq) {
			t.Errorf("swap window: published version seq=%d shows %d nodes, want %d", seq, nodes, baseNodes+2*int(seq))
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
		seq := int(v.Seq())
		if got, want := v.View().NumNodes(), baseNodes+2*seq; got != want {
			t.Errorf("version seq=%d: %d nodes, want %d (half-applied commit visible)", seq, got, want)
		}
		if got, want := v.View().NumEdges(), baseEdges+seq; got != want {
			t.Errorf("version seq=%d: %d edges, want %d", seq, got, want)
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
	if int64(final.Seq()) != committed.Load() {
		t.Fatalf("final seq %d != %d commits", final.Seq(), committed.Load())
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
