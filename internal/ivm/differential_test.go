package ivm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// TestDifferentialMaintenance is the ground-truth harness for incremental
// view maintenance: across 100+ randomized generated graphs (Barabási
// scale-free and Italian-style) and random committed mutation streams —
// share adds and removals, reweights, cycle-creating edges, node churn —
// the maintained baseline must agree with a from-scratch full chase of the
// post-commit graph on the control relation, the close-link relation and
// the threshold-crossing accown rows, after every single commit — whether
// the journal is applied eagerly (Apply) or queued by Observe and drained by
// the read (BaselineAt), the way the serving layer feeds it.
func TestDifferentialMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is not short")
	}
	t.Run("Apply", func(t *testing.T) { differentialMaintenance(t, false) })
	t.Run("ObserveBaselineAt", func(t *testing.T) { differentialMaintenance(t, true) })
}

func differentialMaintenance(t *testing.T, lazy bool) {
	thresholds := []float64{0.1, 0.2, 0.3}

	const cases = 105
	ran := 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(7000 + i)))
		var base *pg.Graph
		if i%5 == 4 {
			base = graphgen.NewItalian(graphgen.ItalianConfig{
				Companies: 10 + rng.Intn(10),
				Persons:   6 + rng.Intn(6),
				Seed:      int64(i + 1),
			}).Graph
		} else {
			base = graphgen.Barabasi(8+rng.Intn(16), 1+rng.Intn(3), int64(i+1))
		}
		threshold := thresholds[i%len(thresholds)]
		d := newDriverFed(t, base, threshold, lazy)
		name := fmt.Sprintf("case %d (t=%v, %d nodes)", i, threshold, base.NumNodes())
		checkAgainstOracle(t, name+" seed", d.maintained(), d.oracle())

		commits := 0
		for c := 0; c < 6; c++ {
			txn := d.vs.Begin()
			if graphgen.RandomCommit(rng, txn.Overlay()) == 0 {
				continue
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatalf("%s: commit %d: %v", name, c, err)
			}
			commits++
			if len(d.applyErrs) > 0 {
				t.Fatalf("%s: commit %d: maintenance failed: %v", name, c, d.applyErrs)
			}
			checkAgainstOracle(t, fmt.Sprintf("%s commit %d", name, c), d.maintained(), d.oracle())
			if t.Failed() {
				t.Fatalf("%s: stopping after first divergence", name)
			}
		}
		if commits > 0 {
			ran++
		}
		st := d.m.Stats()
		if got := st.IncrementalCommits + st.SkippedCommits; got != int64(commits) || st.FullRebuilds != 1 {
			t.Fatalf("%s: stats account for %d commits and %d full rebuilds, want %d and 1 (%+v)",
				name, got, st.FullRebuilds, commits, st)
		}
	}
	if ran < 100 {
		t.Fatalf("only %d effective cases ran, want >= 100", ran)
	}
}

// TestConcurrentReadsDuringApply drives commits through the maintainer while
// reader goroutines continuously fetch and walk published baselines — the
// serving pattern (/v1/whatif readers vs the commit hook). Run under -race
// this proves published baselines are immutable: maintenance builds fresh
// maps instead of touching shared ones.
func TestConcurrentReadsDuringApply(t *testing.T) {
	base := graphgen.Barabasi(40, 2, 99)
	d := newDriver(t, base, whatif.DefaultThreshold)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := d.vs.Current()
				bl := d.m.Baseline(cur.Seq(), whatif.DefaultThreshold)
				if bl == nil {
					continue // a commit won the race; next iteration
				}
				// Walk every shared map the way a reader would.
				n := 0
				for _, row := range bl.Control {
					n += len(row)
				}
				for p := range bl.CloseLink {
					_ = p
					n++
				}
				for _, rows := range bl.Accown {
					n += len(rows)
				}
				_ = n
			}
		}()
	}

	rng := rand.New(rand.NewSource(5))
	for c := 0; c < 25; c++ {
		txn := d.vs.Begin()
		if graphgen.RandomCommit(rng, txn.Overlay()) == 0 {
			continue
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
		if len(d.applyErrs) > 0 {
			t.Fatalf("commit %d: maintenance failed: %v", c, d.applyErrs)
		}
	}
	close(stop)
	wg.Wait()

	checkAgainstOracle(t, "final state", d.maintained(), d.oracle())
}
