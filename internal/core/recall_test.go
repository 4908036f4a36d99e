package core

import (
	"testing"

	"vadalink/internal/cluster"
	"vadalink/internal/embed"
	"vadalink/internal/graphgen"
)

// preKernelRecall is the planted-family recall TestBenchShapedRecall measured
// on its graph set with the training kernel that preceded the flat-matrix
// one (math.Exp sigmoid, two-draw negatives).
const preKernelRecall = 1333.0 / 4090

// TestBenchShapedRecall runs Augment exactly as the benchmark's augment
// workload does — k-means over node2vec with k = 8, person blocking, the
// family candidate, embedding seed 1 — over a fixed set of graphs of the
// benchmark's shape (250 companies, 500 persons, its seed formula for seed 1,
// first draw), and guards the share of planted family pairs it recovers: a
// faster embedding must not buy its speed with lost links.
func TestBenchShapedRecall(t *testing.T) {
	a, err := New(Config{
		FirstLevelK: 8,
		Embed:       embed.Config{Seed: 1},
		Blocker:     cluster.PersonBlocker{},
		Candidates:  []Candidate{&FamilyCandidate{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var truth, recovered int
	var comparisons int64
	for job := 1; job <= 6; job++ {
		it := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 250, Persons: 500, Seed: 1_000_000 + int64(job)*10})
		res, err := a.Run(it.Graph)
		if err != nil {
			t.Fatal(err)
		}
		comparisons += res.Comparisons
		for _, gt := range it.Truth {
			truth++
			if hasAnyFamilyEdge(it.Graph, gt.X, gt.Y) || hasAnyFamilyEdge(it.Graph, gt.Y, gt.X) {
				recovered++
			}
		}
	}
	recall := float64(recovered) / float64(truth)
	t.Logf("recall %d/%d = %.4f (before the kernel: %.4f), comparisons %d", recovered, truth, recall, preKernelRecall, comparisons)
	if recall < preKernelRecall-0.01 {
		t.Errorf("planted-family recall %.4f fell more than 0.01 below %.4f", recall, preKernelRecall)
	}
}
