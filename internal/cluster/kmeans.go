// Package cluster implements the two clustering levels of Vada-Link's
// Algorithm 3:
//
//   - first level (#GraphEmbedClust): k-means over node2vec embeddings,
//     with k-means++ seeding and Lloyd iterations;
//   - second level (#GenerateBlocks): deterministic feature-based blocking
//     with pluggable, polymorphic key functions per node type (Section 4.2),
//     including the hash-partitioning variant used by the Figure 4(c)
//     cluster-count experiments.
package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"

	"vadalink/internal/pg"
)

// KMeansResult holds a clustering of embedded nodes.
type KMeansResult struct {
	K          int
	Assignment map[pg.NodeID]int
	Centroids  [][]float64
	Iterations int
}

// KMeans clusters node vectors into k groups with k-means++ seeding and at
// most maxIter Lloyd iterations (default 50 when 0). It is deterministic for
// a fixed seed. k is clamped to the number of distinct nodes.
func KMeans(vectors map[pg.NodeID][]float64, k int, seed int64, maxIter int) (*KMeansResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: k must be positive, got %d", k)
	}
	if maxIter <= 0 {
		maxIter = 50
	}
	ids := make([]pg.NodeID, 0, len(vectors))
	for id := range vectors {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) == 0 {
		return &KMeansResult{K: 0, Assignment: map[pg.NodeID]int{}}, nil
	}
	if k > len(ids) {
		k = len(ids)
	}
	dims := len(vectors[ids[0]])
	r := rand.New(rand.NewSource(seed))

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	first := ids[r.Intn(len(ids))]
	centroids = append(centroids, append([]float64(nil), vectors[first]...))
	dist2 := make([]float64, len(ids))
	for len(centroids) < k {
		var sum float64
		for i, id := range ids {
			d := sqDist(vectors[id], centroids[len(centroids)-1])
			if len(centroids) == 1 || d < dist2[i] {
				dist2[i] = d
			}
			sum += dist2[i]
		}
		var chosen pg.NodeID
		if sum == 0 {
			chosen = ids[r.Intn(len(ids))]
		} else {
			u := r.Float64() * sum
			chosen = ids[len(ids)-1]
			for i, id := range ids {
				u -= dist2[i]
				if u <= 0 {
					chosen = id
					break
				}
			}
		}
		centroids = append(centroids, append([]float64(nil), vectors[chosen]...))
	}

	assign := make(map[pg.NodeID]int, len(ids))
	iterations := 0
	for iter := 0; iter < maxIter; iter++ {
		iterations = iter + 1
		changed := false
		for _, id := range ids {
			best, bestD := 0, math.Inf(1)
			for c, cent := range centroids {
				if d := sqDist(vectors[id], cent); d < bestD {
					best, bestD = c, d
				}
			}
			if prev, ok := assign[id]; !ok || prev != best {
				assign[id] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids.
		sums := make([][]float64, k)
		counts := make([]int, k)
		for i := range sums {
			sums[i] = make([]float64, dims)
		}
		for _, id := range ids {
			c := assign[id]
			counts[c]++
			for d, v := range vectors[id] {
				sums[c][d] += v
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed empty clusters at a random point.
				centroids[c] = append([]float64(nil), vectors[ids[r.Intn(len(ids))]]...)
				continue
			}
			for d := range sums[c] {
				centroids[c][d] = sums[c][d] / float64(counts[c])
			}
		}
	}
	return &KMeansResult{K: k, Assignment: assign, Centroids: centroids, Iterations: iterations}, nil
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// --- second-level blocking (#GenerateBlocks) ---

// Blocker assigns a node to a second-level block. Implementations are the
// "pluggable implementations for various domains" of Section 4.2.
type Blocker interface {
	// Key returns the block identifier of the node, or "" to leave the node
	// unblocked (it then matches nothing).
	Key(n *pg.Node) string
}

// BlockerFunc adapts a function to the Blocker interface.
type BlockerFunc func(n *pg.Node) string

// Key implements Blocker.
func (f BlockerFunc) Key(n *pg.Node) string { return f(n) }

// FeatureHashBlocker hashes the listed feature values into K buckets — the
// Skolem/hash partitioning scheme of Section 4.2, and the mechanism the
// Figure 4(c) experiment uses to hijack the block count.
type FeatureHashBlocker struct {
	Features []string
	K        int
}

// Key implements Blocker.
func (b FeatureHashBlocker) Key(n *pg.Node) string {
	h := fnv.New64a()
	for _, f := range b.Features {
		fmt.Fprintf(h, "%v|", n.Props[f])
	}
	if b.K <= 0 {
		return fmt.Sprintf("h%x", h.Sum64())
	}
	return fmt.Sprintf("b%d", h.Sum64()%uint64(b.K))
}

// SingleBlock puts every node in one block — the paper's "no cluster mode"
// used to compute the exhaustive ground truth in Section 6.2.
type SingleBlock struct{}

// Key implements Blocker.
func (SingleBlock) Key(*pg.Node) string { return "all" }

// MultiKeyBlocker is an optional Blocker extension for multi-pass blocking,
// the standard record-linkage technique: a node belongs to one block per
// key, and a pair is compared when it shares any block. Partition uses
// AllKeys when available.
type MultiKeyBlocker interface {
	Blocker
	// AllKeys returns every blocking key of the node ("" entries are
	// skipped).
	AllKeys(n *pg.Node) []string
}

// Partition groups the given node IDs by blocker key, dropping nodes with an
// empty key. With a MultiKeyBlocker the blocks may overlap (multi-pass
// blocking). Block order and within-block order are deterministic.
func Partition(g pg.View, ids []pg.NodeID, b Blocker) [][]pg.NodeID {
	multi, isMulti := b.(MultiKeyBlocker)
	byKey := map[string][]pg.NodeID{}
	for _, id := range ids {
		n := g.Node(id)
		if n == nil {
			continue
		}
		var keys []string
		if isMulti {
			keys = multi.AllKeys(n)
		} else {
			keys = []string{b.Key(n)}
		}
		seen := map[string]bool{}
		for _, k := range keys {
			if k == "" || seen[k] {
				continue
			}
			seen[k] = true
			byKey[k] = append(byKey[k], id)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]pg.NodeID, 0, len(keys))
	for _, k := range keys {
		members := byKey[k]
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		out = append(out, members)
	}
	return out
}
