// Benchmarks regenerating the paper's evaluation (Section 6): one benchmark
// per figure/table plus the design-choice ablations of DESIGN.md §4.
// Absolute numbers are machine-local; the recorded shapes live in
// EXPERIMENTS.md. The companion CLI (cmd/benchfig) prints the full data
// series.
package vadalink_test

import (
	"fmt"
	"testing"

	"vadalink"
	"vadalink/internal/datalog"
	"vadalink/internal/embed"
	"vadalink/internal/experiments"
	"vadalink/internal/graphgen"
	"vadalink/internal/graphstats"
)

// --- §2 statistics table ---

// BenchmarkStatsProfile regenerates the §2 structural profile on a scaled
// Italian company graph.
func BenchmarkStatsProfile(b *testing.B) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 20000, Companies: 20000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := graphstats.Compute(it.Graph)
		if s.Nodes == 0 {
			b.Fatal("empty stats")
		}
	}
}

// --- Figure 4(a): time vs nodes, Italian-company-like, clustered vs naive ---

func BenchmarkFig4aScalabilityNodes(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		b.Run(fmt.Sprintf("vadalink/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig4a([]int{n}, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows[0].VadaComparisons), "comparisons")
			}
		})
	}
}

func BenchmarkFig4aNaiveBaseline(b *testing.B) {
	// The red line of Figure 4(a): exhaustive all-pairs matching.
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 1000, Companies: 500, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := it.Graph.Clone()
		res, err := vadalink.Augment(g, vadalink.AugmentConfig{
			NoCluster:  true,
			Candidates: []vadalink.Candidate{&vadalink.FamilyCandidate{}},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Comparisons), "comparisons")
	}
}

// --- Figure 4(b): time vs nodes on dense synthetic graphs ---

func BenchmarkFig4bSyntheticNodes(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Fig4b([]int{n}, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4(c): time vs number of clusters ---

func BenchmarkFig4cClusters(b *testing.B) {
	for _, k := range []int{1, 10, 100, 500} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig4c(1000, []int{k}, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rows[0].Comparisons), "comparisons")
			}
		})
	}
}

// --- Figure 4(d): time vs density ---

func BenchmarkFig4dDensity(b *testing.B) {
	for _, d := range []graphgen.DensityLevel{graphgen.Sparse, graphgen.Normal, graphgen.Dense, graphgen.Superdense} {
		b.Run(d.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := graphgen.BarabasiWith(graphgen.BarabasiConfig{
					N: 500, M: d.EdgesPerNode(), Seed: 1, PersonFraction: 0.5,
				})
				_, err := vadalink.Augment(g, vadalink.AugmentConfig{
					FirstLevelK: 8,
					Embed:       vadalink.EmbedConfig{Dims: 16, WalkLength: 10, WalksPerNode: 3, Epochs: 1, Seed: 1},
					Blocker:     vadalink.PersonBlocker{},
					Candidates:  []vadalink.Candidate{&vadalink.FamilyCandidate{}},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 4(e): recall vs number of clusters ---

func BenchmarkFig4eRecall(b *testing.B) {
	for _, k := range []int{1, 20, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig4e([]int{k}, experiments.Fig4eConfig{
					Persons: 200, Graphs: 1, RemovalSets: 1, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rows[0].Recall, "recall")
			}
		})
	}
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationAliasSampling compares alias-table and linear-scan walk
// sampling in node2vec.
func BenchmarkAblationAliasSampling(b *testing.B) {
	g := graphgen.Barabasi(2000, 5, 1)
	for _, linear := range []bool{false, true} {
		name := "alias"
		if linear {
			name = "linear"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := embed.Learn(g, embed.Config{
					Dims: 16, WalkLength: 20, WalksPerNode: 2, Epochs: 1, Seed: 1,
					P: 0.5, Q: 2, LinearSampling: linear,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSemiNaive compares semi-naive and naive Datalog
// evaluation on a recursive reachability program.
func BenchmarkAblationSemiNaive(b *testing.B) {
	var edb []datalog.Fact
	const n = 300
	for i := 0; i < n; i++ {
		edb = append(edb, datalog.Fact{Pred: "edge", Args: []any{int64(i), int64(i + 1)}})
		edb = append(edb, datalog.Fact{Pred: "edge", Args: []any{int64(i), int64((i + 7) % n)}})
	}
	src := `
		edge(X, Y) -> path(X, Y).
		path(X, Z), edge(Z, Y) -> path(X, Y).
	`
	for _, naive := range []bool{false, true} {
		name := "seminaive"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var opts []datalog.Option
			if naive {
				opts = append(opts, datalog.WithNaive())
			}
			for i := 0; i < b.N; i++ {
				e, err := datalog.NewEngine(datalog.MustParse(src), opts...)
				if err != nil {
					b.Fatal(err)
				}
				e.AssertAll(edb)
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRecursiveReembed compares the recall protocol with
// recursive re-embedding on and off (the §4.4 reinforcement principle).
func BenchmarkAblationRecursiveReembed(b *testing.B) {
	for _, reembed := range []bool{true, false} {
		name := "reembed-on"
		if !reembed {
			name = "reembed-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				recall, err := experiments.ReembedRecall(20, reembed, experiments.Fig4eConfig{Persons: 150, Seed: 3})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(recall, "recall")
			}
		})
	}
}

// BenchmarkAblationParallelMatching compares sequential and parallel block
// matching in the augmentation loop.
func BenchmarkAblationParallelMatching(b *testing.B) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 3000, Companies: 1000, Seed: 1})
	for _, parallel := range []bool{false, true} {
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := it.Graph.Clone()
				_, err := vadalink.Augment(g, vadalink.AugmentConfig{
					Blocker:    vadalink.PersonBlocker{},
					Candidates: []vadalink.Candidate{&vadalink.FamilyCandidate{}},
					Parallel:   parallel,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClusterLevels compares the four clustering configurations.
func BenchmarkAblationClusterLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationClusterLevels(1000, 1); err != nil {
			b.Fatal(err)
		}
	}
}
