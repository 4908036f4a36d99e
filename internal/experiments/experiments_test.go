package experiments

import (
	"testing"
)

func TestStatsProfileShape(t *testing.T) {
	s, _ := StatsAndConcentration(2000, 2000, 1)
	if s.Nodes != 4000 {
		t.Fatalf("nodes = %d", s.Nodes)
	}
	// §2 profile, scaled: avg degree ≈ 1, tiny SCCs, low clustering.
	if s.AvgOutDegree < 0.6 || s.AvgOutDegree > 1.4 {
		t.Errorf("avg degree = %.2f, want ≈ 1", s.AvgOutDegree)
	}
	if s.LargestSCC > 40 {
		t.Errorf("largest SCC = %d, want small", s.LargestSCC)
	}
	if s.AvgClustering > 0.05 {
		t.Errorf("clustering = %.4f, want ≈ 0", s.AvgClustering)
	}
}

func TestFig4aShape(t *testing.T) {
	rows, err := Fig4a([]int{100, 300}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The clustered mode must do far fewer comparisons than the
		// quadratic baseline (the whole point of the paper).
		if r.VadaComparisons*2 >= r.NaiveComparisons {
			t.Errorf("n=%d: clustered comparisons %d not well below naive %d",
				r.Nodes, r.VadaComparisons, r.NaiveComparisons)
		}
		if r.NaiveLinks == 0 {
			t.Errorf("n=%d: naive mode found no links", r.Nodes)
		}
	}
	// Naive comparisons grow quadratically: 3× nodes → ≈9× comparisons.
	ratio := float64(rows[1].NaiveComparisons) / float64(rows[0].NaiveComparisons)
	if ratio < 5 {
		t.Errorf("naive comparison growth %.1f×, want ≈ 9× for 3× nodes", ratio)
	}
}

func TestFig4bRuns(t *testing.T) {
	rows, err := Fig4b([]int{150, 300}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.VadaLink <= 0 {
			t.Errorf("n=%d: zero elapsed time", r.Nodes)
		}
	}
}

func TestFig4cMoreClustersFewerComparisons(t *testing.T) {
	rows, err := Fig4c(300, []int{1, 10, 50}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Comparisons must drop monotonically with the cluster count.
	for i := 1; i < len(rows); i++ {
		if rows[i].Comparisons >= rows[i-1].Comparisons {
			t.Errorf("comparisons did not drop: k=%d→%d, %d→%d",
				rows[i-1].Clusters, rows[i].Clusters, rows[i-1].Comparisons, rows[i].Comparisons)
		}
	}
}

func TestFig4dDensityIncreasesEdges(t *testing.T) {
	rows, err := Fig4d([]int{120}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 densities", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Edges <= rows[i-1].Edges {
			t.Errorf("density %s edges %d not above %s's %d",
				rows[i].Density, rows[i].Edges, rows[i-1].Density, rows[i-1].Edges)
		}
	}
}

func TestFig4eRecallShape(t *testing.T) {
	rows, err := Fig4e([]int{1, 40}, Fig4eConfig{
		Persons: 150, Graphs: 1, RemovalSets: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Single cluster = exhaustive comparison = full recall.
	if rows[0].Recall < 0.999 {
		t.Errorf("recall at k=1 = %.3f, want 1.0", rows[0].Recall)
	}
	// Many clusters on 150 persons: recall must drop below the single-
	// cluster ceiling (families get split).
	if rows[1].Recall > rows[0].Recall {
		t.Errorf("recall increased with clusters: %.3f → %.3f", rows[0].Recall, rows[1].Recall)
	}
}

func TestAblationClusterLevels(t *testing.T) {
	rows, err := AblationClusterLevels(200, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMode := map[string]AblationClusterRow{}
	for _, r := range rows {
		byMode[r.Mode] = r
	}
	if byMode["two-level"].Comparisons >= byMode["none"].Comparisons {
		t.Error("two-level clustering does not reduce comparisons vs none")
	}
	if byMode["two-level"].Comparisons > byMode["embedding-only"].Comparisons {
		t.Error("adding blocking on top of embedding increased comparisons")
	}
}

func TestGroundTruthRecall(t *testing.T) {
	rec, total, err := GroundTruthRecall(200, 7)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("no ground truth")
	}
	if frac := float64(rec) / float64(total); frac < 0.5 {
		t.Errorf("classifier recovers %.2f of planted pairs exhaustively, want ≥ 0.5", frac)
	}
}

func TestClassifierQuality(t *testing.T) {
	m, auc, err := ClassifierQuality(300, 9)
	if err != nil {
		t.Fatal(err)
	}
	if m.TP+m.FN == 0 || m.TN+m.FP == 0 {
		t.Fatalf("degenerate evaluation set: %+v", m)
	}
	if auc < 0.8 {
		t.Errorf("AUC = %.3f on planted data, want ≥ 0.8\n%s", auc, m)
	}
	if m.Recall() < 0.5 {
		t.Errorf("recall = %.3f, want ≥ 0.5\n%s", m.Recall(), m)
	}
}

// TestRecursiveReembedRecall verifies the §4.4 reinforcement principle: at a
// moderate cluster count, recall with recursive re-embedding is at least as
// good as the single-clustering run.
func TestRecursiveReembedRecall(t *testing.T) {
	cfg := Fig4eConfig{Persons: 200, Seed: 3}
	on, err := ReembedRecall(20, true, cfg)
	if err != nil {
		t.Fatal(err)
	}
	off, err := ReembedRecall(20, false, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recall: reembed on %.3f, off %.3f", on, off)
	if on+1e-9 < off {
		t.Errorf("recursive re-embedding hurt recall: %.3f < %.3f", on, off)
	}
	if on < 0.5 {
		t.Errorf("recall with re-embedding = %.3f, suspiciously low", on)
	}
}
