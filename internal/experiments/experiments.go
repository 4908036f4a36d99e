// Package experiments contains the harnesses that regenerate every figure
// and table of the paper's evaluation (Section 6). Each harness returns the
// data series the corresponding figure plots; cmd/benchfig prints them and
// bench_test.go wraps them in testing.B benchmarks.
//
// Paper → harness map (see DESIGN.md §3 for the full index):
//
//	§2 statistics table → StatsAndConcentration
//	Figure 4(a)         → Fig4a  (time vs nodes, real-world-like, vs naive)
//	Figure 4(b)         → Fig4b  (time vs nodes, dense synthetic)
//	Figure 4(c)         → Fig4c  (time vs number of clusters)
//	Figure 4(d)         → Fig4d  (time vs density)
//	Figure 4(e)         → Fig4e  (recall vs number of clusters)
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"vadalink/internal/cluster"
	"vadalink/internal/core"
	"vadalink/internal/embed"
	"vadalink/internal/family"
	"vadalink/internal/graphgen"
	"vadalink/internal/graphstats"
	"vadalink/internal/pg"
)

// fastEmbed is the embedding configuration used by the timing-focused
// harnesses (Figures 4(a), 4(b), 4(d)): small and quick.
func fastEmbed(seed int64) embed.Config {
	return embed.Config{Dims: 16, WalkLength: 10, WalksPerNode: 3, Window: 3, Epochs: 1, Seed: seed}
}

// strongEmbed is the configuration used where clustering *quality* is the
// measured quantity (Figure 4(e)): enough walks and epochs for node2vec to
// co-embed the members of a family connected by retained predicted links —
// the precondition for the paper's slow recall decay.
func strongEmbed(seed int64) embed.Config {
	return embed.Config{Dims: 32, WalkLength: 20, WalksPerNode: 8, Window: 5, Epochs: 3, Seed: seed}
}

// StatsAndConcentration generates a scaled-down Italian company graph and
// computes its structural profile, the reproduction of the §2 statistics
// (scaled: the paper's graph has 4.059M nodes; ratios, not absolutes, are the
// target), and its ownership-concentration profile.
func StatsAndConcentration(persons, companies int, seed int64) (graphstats.Stats, graphstats.Concentration) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: persons, Companies: companies, Seed: seed})
	return graphstats.Compute(it.Graph), graphstats.ComputeConcentration(it.Graph)
}

// Fig4aRow is one point of the Figure 4(a) series.
type Fig4aRow struct {
	Nodes int
	// VadaLink is the clustered augmentation time; Naive the exhaustive
	// single-block baseline (the red line of the figure).
	VadaLink time.Duration
	Naive    time.Duration
	// Comparisons performed by each mode: the machine-independent measure of
	// the quadratic-vs-clustered gap.
	VadaComparisons  int64
	NaiveComparisons int64
	// Links found by each mode.
	VadaLinks  int
	NaiveLinks int
}

// Fig4a runs the family-detection workload on Italian-company-like graphs of
// growing size, in clustered and naive mode.
func Fig4a(personCounts []int, seed int64) ([]Fig4aRow, error) {
	var rows []Fig4aRow
	for _, n := range personCounts {
		it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: n, Companies: n / 2, Seed: seed})

		naiveGraph := it.Graph.Clone()
		naive, err := core.New(core.Config{
			NoCluster:  true,
			Candidates: []core.Candidate{&core.FamilyCandidate{}},
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		naiveRes, err := naive.Run(naiveGraph)
		if err != nil {
			return nil, err
		}
		naiveTime := time.Since(t0)

		clusteredGraph := it.Graph.Clone()
		clustered, err := core.New(core.Config{
			FirstLevelK: clampK(n/50, 2, 64),
			Embed:       fastEmbed(seed),
			Blocker:     cluster.PersonBlocker{},
			Candidates:  []core.Candidate{&core.FamilyCandidate{}},
		})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		vadaRes, err := clustered.Run(clusteredGraph)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4aRow{
			Nodes:            n,
			VadaLink:         time.Since(t1),
			Naive:            naiveTime,
			VadaComparisons:  vadaRes.Comparisons,
			NaiveComparisons: naiveRes.Comparisons,
			VadaLinks:        totalAdded(vadaRes),
			NaiveLinks:       totalAdded(naiveRes),
		})
	}
	return rows, nil
}

func totalAdded(r *core.Result) int {
	t := 0
	for _, n := range r.Added {
		t += n
	}
	return t
}

func clampK(k, lo, hi int) int {
	if k < lo {
		return lo
	}
	if k > hi {
		return hi
	}
	return k
}

// Fig4bRow is one point of the Figure 4(b) series (dense synthetic graphs).
type Fig4bRow struct {
	Nodes       int
	VadaLink    time.Duration
	Comparisons int64
}

// Fig4b runs the same workload on much denser Barabási–Albert graphs (the
// paper: "elapsed times are higher by one order of magnitude, which we
// explain with the highly dense topology").
func Fig4b(nodeCounts []int, seed int64) ([]Fig4bRow, error) {
	var rows []Fig4bRow
	for _, n := range nodeCounts {
		g := graphgen.BarabasiWith(graphgen.BarabasiConfig{
			N: n, M: graphgen.Superdense.EdgesPerNode(), Seed: seed, PersonFraction: 0.5,
		})
		aug, err := core.New(core.Config{
			FirstLevelK: clampK(n/50, 2, 64),
			Embed:       fastEmbed(seed),
			Blocker:     cluster.PersonBlocker{},
			Candidates:  []core.Candidate{&core.FamilyCandidate{}},
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := aug.Run(g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4bRow{Nodes: n, VadaLink: time.Since(t0), Comparisons: res.Comparisons})
	}
	return rows, nil
}

// Fig4cRow is one point of the Figure 4(c) series.
type Fig4cRow struct {
	Clusters    int // requested number of second-level blocks
	Elapsed     time.Duration
	Comparisons int64
	AvgBlock    float64 // average block size
}

// Fig4c measures elapsed time against the number of second-level clusters,
// induced — exactly as in §6.1 — by hashing a feature vector into k blocks
// (the deterministic #GenerateBlocks mapping over a uniform feature space).
func Fig4c(persons int, clusterCounts []int, seed int64) ([]Fig4cRow, error) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: persons, Companies: persons / 2, Seed: seed})
	var rows []Fig4cRow
	for _, k := range clusterCounts {
		g := it.Graph.Clone()
		aug, err := core.New(core.Config{
			Blocker:    cluster.FeatureHashBlocker{Features: []string{"surname", "birth", "city"}, K: k},
			Candidates: []core.Candidate{&core.FamilyCandidate{}},
		})
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := aug.Run(g)
		if err != nil {
			return nil, err
		}
		row := Fig4cRow{Clusters: k, Elapsed: time.Since(t0), Comparisons: res.Comparisons}
		if res.Blocks > 0 {
			row.AvgBlock = float64(g.NumNodes()) / float64(res.Blocks)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4dRow is one point of the Figure 4(d) series.
type Fig4dRow struct {
	Density string
	Nodes   int
	Elapsed time.Duration
	Edges   int
}

// Fig4d measures elapsed time against graph density for the four scenarios
// sparse / normal / dense / superdense.
func Fig4d(nodeCounts []int, seed int64) ([]Fig4dRow, error) {
	var rows []Fig4dRow
	for _, d := range []graphgen.DensityLevel{graphgen.Sparse, graphgen.Normal, graphgen.Dense, graphgen.Superdense} {
		for _, n := range nodeCounts {
			g := graphgen.BarabasiWith(graphgen.BarabasiConfig{
				N: n, M: d.EdgesPerNode(), Seed: seed, PersonFraction: 0.5,
			})
			edges := g.NumEdges()
			aug, err := core.New(core.Config{
				FirstLevelK: clampK(n/50, 2, 32),
				Embed:       fastEmbed(seed),
				Blocker:     cluster.PersonBlocker{},
				Candidates:  []core.Candidate{&core.FamilyCandidate{}},
			})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			if _, err := aug.Run(g); err != nil {
				return nil, err
			}
			rows = append(rows, Fig4dRow{Density: d.String(), Nodes: n, Elapsed: time.Since(t0), Edges: edges})
		}
	}
	return rows, nil
}

// ReembedRecall runs one recall trial of the §6.2 protocol at the given
// cluster count with recursive re-embedding on or off — the ablation behind
// the paper's claim that the recursive clustering interplay is what keeps
// the recall decay slow.
func ReembedRecall(k int, reembed bool, cfg Fig4eConfig) (float64, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	it := graphgen.NewItalian(graphgen.ItalianConfig{
		Persons: cfg.Persons, Companies: cfg.Persons / 2, Seed: cfg.Seed,
	})
	aug, err := core.New(core.Config{NoCluster: true, Candidates: []core.Candidate{&core.FamilyCandidate{}}})
	if err != nil {
		return 0, err
	}
	res, err := aug.Run(it.Graph)
	if err != nil {
		return 0, err
	}
	removed := sampleEdges(rng, res.AddedEdges, removeFrac)
	if len(removed) == 0 {
		return 0, fmt.Errorf("experiments: nothing to remove")
	}
	g := it.Graph.Clone()
	for _, e := range removed {
		removeTyped(g, e)
	}
	rerun, err := core.New(core.Config{
		FirstLevelK: k,
		Embed:       strongEmbed(cfg.Seed + int64(k)),
		Candidates:  []core.Candidate{&core.FamilyCandidate{}},
		Reembed:     reembed,
		MaxRounds:   3,
	})
	if err != nil {
		return 0, err
	}
	if _, err := rerun.Run(g); err != nil {
		return 0, err
	}
	recovered := 0
	for _, e := range removed {
		if g.HasEdge(e.Label, e.From, e.To) {
			recovered++
		}
	}
	return float64(recovered) / float64(len(removed)), nil
}

// Fig4eRow is one point of the Figure 4(e) series.
type Fig4eRow struct {
	Clusters int
	Recall   float64
	Trials   int
}

// Fig4eConfig sizes the recall experiment; the paper used 10 graphs × 10
// removal sets × 20 cluster configurations, which is hours of compute — the
// defaults here shrink the repetition counts, not the protocol.
type Fig4eConfig struct {
	Persons     int // persons per generated graph (default 400)
	Graphs      int // independent graphs Sᵢ (default 3)
	RemovalSets int // removal sets Θᵢⱼ per graph (default 3)
	Seed        int64
}

// removeFrac is the fraction of predicted links each removal set takes out.
const removeFrac = 0.2

func (c Fig4eConfig) withDefaults() Fig4eConfig {
	if c.Persons == 0 {
		c.Persons = 400
	}
	if c.Graphs == 0 {
		c.Graphs = 3
	}
	if c.RemovalSets == 0 {
		c.RemovalSets = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Fig4e reproduces the §6.2 recall protocol: augment each graph in
// no-cluster mode (exhaustive ground truth S^Θ), randomly remove a fraction
// of the predicted links, re-run Vada-Link with k first-level clusters
// (recursive re-embedding on — the compensation mechanism the paper credits
// for the slow recall decay), and report the fraction of removed links
// recovered, averaged over graphs × removal sets.
func Fig4e(clusterCounts []int, cfg Fig4eConfig) ([]Fig4eRow, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	type groundCase struct {
		augmented *pg.Graph
		predicted []core.ProposedEdge
	}
	var cases []groundCase
	for gi := 0; gi < cfg.Graphs; gi++ {
		it := graphgen.NewItalian(graphgen.ItalianConfig{
			Persons: cfg.Persons, Companies: cfg.Persons / 2, Seed: cfg.Seed + int64(gi),
		})
		aug, err := core.New(core.Config{
			NoCluster:  true,
			Candidates: []core.Candidate{&core.FamilyCandidate{}},
		})
		if err != nil {
			return nil, err
		}
		res, err := aug.Run(it.Graph)
		if err != nil {
			return nil, err
		}
		if len(res.AddedEdges) == 0 {
			return nil, fmt.Errorf("experiments: ground-truth augmentation produced no links")
		}
		cases = append(cases, groundCase{augmented: it.Graph, predicted: res.AddedEdges})
	}

	rows := make([]Fig4eRow, 0, len(clusterCounts))
	for _, k := range clusterCounts {
		var recallSum float64
		trials := 0
		for _, gc := range cases {
			for rs := 0; rs < cfg.RemovalSets; rs++ {
				removed := sampleEdges(rng, gc.predicted, removeFrac)
				if len(removed) == 0 {
					continue
				}
				g := gc.augmented.Clone()
				for _, e := range removed {
					removeTyped(g, e)
				}
				aug, err := core.New(core.Config{
					FirstLevelK: k,
					Embed:       strongEmbed(cfg.Seed + int64(k)),
					Candidates:  []core.Candidate{&core.FamilyCandidate{}},
					Reembed:     true,
					MaxRounds:   3,
				})
				if err != nil {
					return nil, err
				}
				if _, err := aug.Run(g); err != nil {
					return nil, err
				}
				recovered := 0
				for _, e := range removed {
					if g.HasEdge(e.Label, e.From, e.To) {
						recovered++
					}
				}
				recallSum += float64(recovered) / float64(len(removed))
				trials++
			}
		}
		row := Fig4eRow{Clusters: k, Trials: trials}
		if trials > 0 {
			row.Recall = recallSum / float64(trials)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// sampleEdges picks ⌈frac·len⌉ distinct edges uniformly.
func sampleEdges(r *rand.Rand, edges []core.ProposedEdge, frac float64) []core.ProposedEdge {
	n := int(frac * float64(len(edges)))
	if n == 0 && len(edges) > 0 {
		n = 1
	}
	perm := r.Perm(len(edges))
	out := make([]core.ProposedEdge, 0, n)
	for _, i := range perm[:n] {
		out = append(out, edges[i])
	}
	return out
}

// removeTyped removes the first edge matching the proposed edge's label and
// endpoints.
func removeTyped(g *pg.Graph, e core.ProposedEdge) {
	for _, eid := range g.Out(e.From) {
		edge := g.Edge(eid)
		if edge != nil && edge.Label == e.Label && edge.To == e.To {
			g.RemoveEdge(eid)
			return
		}
	}
}

// Ablations

// AblationClusterRow compares clustering configurations on one workload.
type AblationClusterRow struct {
	Mode        string
	Elapsed     time.Duration
	Comparisons int64
	Links       int
}

// AblationClusterLevels runs family detection with (a) both levels, (b)
// embedding-only, (c) blocking-only, (d) no clustering — the design-choice
// ablation of DESIGN.md §4.
func AblationClusterLevels(persons int, seed int64) ([]AblationClusterRow, error) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: persons, Companies: persons / 2, Seed: seed})
	k := clampK(persons/50, 2, 64)
	modes := []struct {
		name string
		cfg  core.Config
	}{
		{"two-level", core.Config{FirstLevelK: k, Embed: fastEmbed(seed), Blocker: cluster.PersonBlocker{},
			Candidates: []core.Candidate{&core.FamilyCandidate{}}}},
		{"embedding-only", core.Config{FirstLevelK: k, Embed: fastEmbed(seed),
			Candidates: []core.Candidate{&core.FamilyCandidate{}}}},
		{"blocking-only", core.Config{Blocker: cluster.PersonBlocker{},
			Candidates: []core.Candidate{&core.FamilyCandidate{}}}},
		{"none", core.Config{NoCluster: true,
			Candidates: []core.Candidate{&core.FamilyCandidate{}}}},
	}
	var rows []AblationClusterRow
	for _, m := range modes {
		g := it.Graph.Clone()
		aug, err := core.New(m.cfg)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := aug.Run(g)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationClusterRow{
			Mode: m.name, Elapsed: time.Since(t0),
			Comparisons: res.Comparisons, Links: totalAdded(res),
		})
	}
	return rows, nil
}

// GroundTruthRecall measures, for one Italian graph, how many planted family
// pairs the exhaustive classifier recovers — the classifier-quality sanity
// number quoted in EXPERIMENTS.md.
func GroundTruthRecall(persons int, seed int64) (recovered, total int, err error) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: persons, Companies: persons / 2, Seed: seed})
	aug, err := core.New(core.Config{NoCluster: true, Candidates: []core.Candidate{&core.FamilyCandidate{}}})
	if err != nil {
		return 0, 0, err
	}
	if _, err := aug.Run(it.Graph); err != nil {
		return 0, 0, err
	}
	for _, gt := range it.Truth {
		if hasFamilyEdge(it.Graph, gt.X, gt.Y) || hasFamilyEdge(it.Graph, gt.Y, gt.X) {
			recovered++
		}
	}
	return recovered, len(it.Truth), nil
}

func hasFamilyEdge(g *pg.Graph, a, b pg.NodeID) bool {
	for _, l := range []pg.Label{pg.LabelPartnerOf, pg.LabelSiblingOf, pg.LabelParentOf} {
		if g.HasEdge(l, a, b) {
			return true
		}
	}
	return false
}

// ClassifierQuality trains the Bayesian classifier on one generated graph's
// ground truth and evaluates it on a second, unseen graph: confusion-matrix
// metrics at the 0.5 threshold plus ROC AUC — the §6.2 validation
// methodology applied to the planted ground truth. Negative pairs are
// sampled from different-family person pairs of the same size as the
// positives.
func ClassifierQuality(persons int, seed int64) (family.Metrics, float64, error) {
	build := func(s int64) []family.LabelledPair {
		it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: persons, Companies: persons / 2, Seed: s})
		g := it.Graph
		rng := rand.New(rand.NewSource(s))
		var pairs []family.LabelledPair
		for _, gt := range it.Truth {
			pairs = append(pairs, family.LabelledPair{
				X:      family.PersonFromNode(g.Node(gt.X)),
				Y:      family.PersonFromNode(g.Node(gt.Y)),
				Linked: true,
			})
		}
		// Same number of cross-family negatives.
		fams := make([][]pg.NodeID, 0, len(it.Families))
		for _, m := range it.Families {
			fams = append(fams, m)
		}
		for i := 0; i < len(it.Truth) && len(fams) > 1; i++ {
			fi := rng.Intn(len(fams))
			fj := rng.Intn(len(fams))
			if fi == fj {
				continue
			}
			fa, fb := fams[fi], fams[fj]
			x := fa[rng.Intn(len(fa))]
			y := fb[rng.Intn(len(fb))]
			if x == y {
				continue
			}
			pairs = append(pairs, family.LabelledPair{
				X:      family.PersonFromNode(g.Node(x)),
				Y:      family.PersonFromNode(g.Node(y)),
				Linked: false,
			})
		}
		return pairs
	}
	train := build(seed)
	test := build(seed + 1000)
	clf := family.NewClassifier()
	if err := clf.Train(train); err != nil {
		return family.Metrics{}, 0, err
	}
	metrics := clf.Evaluate(test)
	auc := family.AUC(clf.ROC(test))
	return metrics, auc, nil
}
