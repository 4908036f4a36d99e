// Package core implements the Vada-Link KG-augmentation framework —
// Algorithm 1 of the paper. Given a property graph it predicts and inserts
// hidden links (control, close-link, family relationships) by:
//
//  1. first-level clustering (#GraphEmbedClust): node2vec embedding of the
//     current graph followed by k-means — so the search space reflects both
//     node features and graph topology;
//  2. second-level blocking (#GenerateBlocks): deterministic feature-based
//     partitioning inside every cluster;
//  3. candidate matching: a polymorphic Candidate predicate per link class
//     examines the pairs of each block and proposes typed edges;
//  4. recursion: when edges were added, clustering re-runs on the augmented
//     graph (the "reinforcement principle" of Section 4.4 — predicted edges
//     improve the next embedding), until a fixpoint.
//
// "No-cluster mode" (Config.NoCluster) forces all nodes into a single block
// — the exhaustive quadratic baseline used both as the naive comparison of
// Figure 4(a) and to compute the recall ground truth of Section 6.2.
package core

import (
	"context"
	"fmt"
	"time"

	"vadalink/internal/cluster"
	"vadalink/internal/embed"
	"vadalink/internal/faultinject"
	"vadalink/internal/pg"
)

// ProposedEdge is a typed link proposed by a Candidate.
type ProposedEdge struct {
	From, To pg.NodeID
	Label    pg.Label
	Props    pg.Properties
}

// Candidate is the polymorphic candidate predicate of Algorithm 3 Rule (2):
// one implementation per link class (Section 4.3).
type Candidate interface {
	// Class returns the edge label this candidate predicts.
	Class() pg.Label
	// Propose examines a block of co-clustered nodes in the current graph
	// and returns the typed edges that must exist among them.
	Propose(g pg.View, block []pg.NodeID) []ProposedEdge
}

// Config configures the augmentation loop.
type Config struct {
	// Embed configures the node2vec step; ignored in NoCluster mode or when
	// FirstLevelK <= 1.
	Embed embed.Config
	// FirstLevelK is the k of the first-level k-means clustering; values
	// <= 1 disable the first level (all nodes form one cluster).
	FirstLevelK int
	// Blocker is the second-level #GenerateBlocks function; nil disables the
	// second level (each first-level cluster is one block).
	Blocker cluster.Blocker
	// Candidates are the link classes to predict.
	Candidates []Candidate
	// NoCluster forces the single-block exhaustive mode.
	NoCluster bool
	// Reembed re-runs the embedding+clustering on the augmented graph after
	// every round that added edges (the recursive self-improvement of
	// Algorithm 3). When false the clustering of round one is reused.
	Reembed bool
	// MaxRounds bounds the outer loop; 0 means 10.
	MaxRounds int
	// Nodes restricts augmentation to these nodes; nil means all nodes.
	Nodes []pg.NodeID
}

// Result reports what an augmentation run did.
type Result struct {
	// Added counts inserted edges per label.
	Added map[pg.Label]int
	// AddedEdges lists every inserted edge.
	AddedEdges []ProposedEdge
	// Rounds is the number of outer-loop iterations executed.
	Rounds int
	// Comparisons counts candidate pair evaluations — the cost measure that
	// clustering exists to shrink (quadratic in block sizes).
	Comparisons int64
	// Blocks is the number of (first × second)-level blocks of the last
	// round.
	Blocks int
	// EmbedTime and MatchTime break down where the wall-clock went.
	EmbedTime time.Duration
	MatchTime time.Duration
}

// Augmenter runs Algorithm 1 over a property graph.
type Augmenter struct {
	cfg Config
}

// New returns an Augmenter; it validates the configuration.
func New(cfg Config) (*Augmenter, error) {
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate predicates configured")
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10
	}
	return &Augmenter{cfg: cfg}, nil
}

// Run mutates g by inserting predicted edges and returns the run report.
func (a *Augmenter) Run(g pg.Mutable) (*Result, error) {
	return a.RunContext(context.Background(), g)
}

// RunContext is Run under a context: the augmentation loop stops between
// rounds and between blocks when the context is cancelled or its deadline
// expires, returning the context's error. Edges inserted by completed
// blocks stay in the graph (augmentation is monotone), so a later retry
// resumes where the cancelled run left off.
func (a *Augmenter) RunContext(ctx context.Context, g pg.Mutable) (*Result, error) {
	res := &Result{Added: map[pg.Label]int{}}
	nodes := a.cfg.Nodes
	if nodes == nil {
		nodes = g.Nodes()
	}

	var blocks [][]pg.NodeID
	changed := true
	for changed && res.Rounds < a.cfg.MaxRounds {
		faultinject.Fire(faultinject.SiteAugmentRound)
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("core: augmentation cancelled after %d rounds: %w", res.Rounds, err)
		}
		changed = false
		res.Rounds++

		if blocks == nil || a.cfg.Reembed {
			var err error
			blocks, err = a.clusterNodes(g, nodes, res)
			if err != nil {
				return nil, err
			}
		}
		res.Blocks = len(blocks)

		t0 := time.Now()
		proposals, comparisons, err := a.matchBlocks(ctx, g, blocks)
		res.Comparisons += comparisons
		if err != nil {
			return nil, fmt.Errorf("core: augmentation cancelled in round %d: %w", res.Rounds, err)
		}
		for _, e := range proposals {
			if g.HasEdge(e.Label, e.From, e.To) {
				continue
			}
			if _, err := g.AddEdge(e.Label, e.From, e.To, e.Props); err != nil {
				return nil, fmt.Errorf("core: inserting %s edge: %w", e.Label, err)
			}
			res.Added[e.Label]++
			res.AddedEdges = append(res.AddedEdges, e)
			changed = true
		}
		res.MatchTime += time.Since(t0)

		if !a.cfg.Reembed {
			// Without re-embedding the block structure cannot change, so a
			// second pass over the same blocks with the already-updated
			// graph suffices; run until the blocks are saturated.
			if !changed {
				break
			}
		}
	}
	return res, nil
}

// matchBlocks runs every candidate over every block, in block order, and
// returns the proposals plus the comparison count. Cancellation is checked
// between blocks; already matched blocks' proposals are discarded with the
// error (the caller reports a cancelled round without applying it).
func (a *Augmenter) matchBlocks(ctx context.Context, g pg.View, blocks [][]pg.NodeID) ([]ProposedEdge, int64, error) {
	var all []ProposedEdge
	var cmp int64
	for _, block := range blocks {
		if err := ctx.Err(); err != nil {
			return nil, cmp, err
		}
		if len(block) < 2 {
			continue
		}
		for _, cand := range a.cfg.Candidates {
			cmp += int64(len(block)) * int64(len(block)-1)
			all = append(all, cand.Propose(g, block)...)
		}
	}
	return all, cmp, nil
}

// clusterNodes computes the two-level block structure of the current graph.
func (a *Augmenter) clusterNodes(g pg.View, nodes []pg.NodeID, res *Result) ([][]pg.NodeID, error) {
	if a.cfg.NoCluster {
		return [][]pg.NodeID{nodes}, nil
	}

	// First level: node2vec + k-means (#GraphEmbedClust).
	firstLevel := [][]pg.NodeID{nodes}
	if a.cfg.FirstLevelK > 1 {
		t0 := time.Now()
		emb, err := embed.Learn(g, a.cfg.Embed)
		if err != nil {
			return nil, err
		}
		vecs := make(map[pg.NodeID][]float64, len(nodes))
		for _, id := range nodes {
			if v := emb.Vector(id); v != nil {
				vecs[id] = v
			}
		}
		km, err := cluster.KMeans(vecs, a.cfg.FirstLevelK, a.cfg.Embed.Seed+1, 0)
		if err != nil {
			return nil, err
		}
		res.EmbedTime += time.Since(t0)
		groups := make([][]pg.NodeID, km.K)
		for _, id := range nodes {
			c, ok := km.Assignment[id]
			if !ok {
				continue
			}
			groups[c] = append(groups[c], id)
		}
		firstLevel = firstLevel[:0]
		for _, grp := range groups {
			if len(grp) > 0 {
				firstLevel = append(firstLevel, grp)
			}
		}
	}

	// Second level: feature blocking (#GenerateBlocks) within each cluster.
	if a.cfg.Blocker == nil {
		return firstLevel, nil
	}
	var blocks [][]pg.NodeID
	for _, grp := range firstLevel {
		blocks = append(blocks, cluster.Partition(g, grp, a.cfg.Blocker)...)
	}
	return blocks, nil
}
