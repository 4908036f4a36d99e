// Package embed implements node2vec (Grover & Leskovec, KDD 2016), the
// neighbourhood-preserving node embedding that Vada-Link's #GraphEmbedClust
// function wraps for first-level clustering (Section 4.1 of the paper).
//
// The implementation has the two classic components:
//
//   - second-order biased random walks controlled by the return parameter p
//     and the in-out parameter q, sampled either by alias tables (O(1) per
//     step after preprocessing, the paper's choice) or by linear scan (the
//     ablation baseline);
//   - skip-gram with negative sampling over the walk corpus, trained by the
//     kernel of word2vec's C trainer: one []int32 walk arena, flat row-major
//     weight matrices, a precomputed sigmoid table, negatives drawn from the
//     unigram^0.75 alias table with one RNG draw each, and a linearly
//     decaying learning rate.
//
// Training runs on the calling goroutine: word2vec's Hogwild workers race on
// the shared rows, which the race detector rejects and which makes the
// result depend on scheduling. Everything is deterministic for a fixed
// Config.Seed.
package embed

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"

	"vadalink/internal/pg"
)

// Config configures walk generation and skip-gram training. Zero values take
// the documented defaults.
type Config struct {
	Dims         int     // embedding dimensionality (default 32)
	WalkLength   int     // steps per walk (default 20)
	WalksPerNode int     // walks started at every node (default 4)
	Window       int     // skip-gram context window (default 4)
	Negatives    int     // negative samples per positive pair (default 3)
	Epochs       int     // passes over the walk corpus (default 2)
	P            float64 // return parameter p (default 1)
	Q            float64 // in-out parameter q (default 1)
	LR           float64 // initial learning rate (default 0.025)
	Seed         int64   // RNG seed (default 1)

	// LinearSampling disables alias tables and samples each walk step by a
	// linear scan over the neighbourhood (ablation baseline).
	LinearSampling bool

	// Weighted biases every transition by the edge weight (share fraction)
	// in addition to the p/q bias, the weighted-graph variant of node2vec —
	// a natural fit for ownership graphs, where a 60% stake is a stronger
	// tie than a 2% one. Unweighted edges count as weight 1.
	Weighted bool
}

func (c Config) withDefaults() Config {
	if c.Dims == 0 {
		c.Dims = 32
	}
	if c.WalkLength == 0 {
		c.WalkLength = 20
	}
	if c.WalksPerNode == 0 {
		c.WalksPerNode = 4
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.Negatives == 0 {
		c.Negatives = 3
	}
	if c.Epochs == 0 {
		c.Epochs = 2
	}
	if c.P == 0 {
		c.P = 1
	}
	if c.Q == 0 {
		c.Q = 1
	}
	if c.LR == 0 {
		c.LR = 0.025
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Embedding maps node IDs to learned vectors.
type Embedding struct {
	Dims    int
	Vectors map[pg.NodeID][]float64
}

// Vector returns the embedding of a node (nil if unknown).
func (e *Embedding) Vector(id pg.NodeID) []float64 { return e.Vectors[id] }

// Cosine returns the cosine similarity of two nodes' vectors (0 when either
// is missing or zero).
func (e *Embedding) Cosine(a, b pg.NodeID) float64 {
	va, vb := e.Vectors[a], e.Vectors[b]
	if va == nil || vb == nil {
		return 0
	}
	return Cosine(va, vb)
}

// Cosine returns the cosine similarity of two vectors.
func Cosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// adjacency is the undirected neighbourhood view used for walks: node2vec
// treats ownership edges as a social structure, direction-agnostic. Edge
// weights (share fractions) are kept per neighbour, with the maximum over
// parallel/reciprocal edges.
type adjacency struct {
	ids    []pg.NodeID
	index  map[pg.NodeID]int
	neigh  [][]int32   // sorted neighbour indices
	weight [][]float64 // weight per neighbour, parallel to neigh
}

func buildAdjacency(g pg.View) *adjacency {
	ids := g.Nodes()
	index := make(map[pg.NodeID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	sets := make([]map[int32]float64, len(ids))
	add := func(a, b int32, w float64) {
		if a == b {
			return
		}
		if sets[a] == nil {
			sets[a] = make(map[int32]float64)
		}
		if w > sets[a][b] {
			sets[a][b] = w
		}
	}
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		u, v := int32(index[e.From]), int32(index[e.To])
		w, ok := e.Weight()
		if !ok || w <= 0 {
			w = 1
		}
		add(u, v, w)
		add(v, u, w)
	}
	neigh := make([][]int32, len(ids))
	weight := make([][]float64, len(ids))
	for i, s := range sets {
		for n := range s {
			neigh[i] = append(neigh[i], n)
		}
		sort.Slice(neigh[i], func(a, b int) bool { return neigh[i][a] < neigh[i][b] })
		weight[i] = make([]float64, len(neigh[i]))
		for j, n := range neigh[i] {
			weight[i][j] = s[n]
		}
	}
	return &adjacency{ids: ids, index: index, neigh: neigh, weight: weight}
}

func (a *adjacency) hasEdge(u, v int32) bool {
	ns := a.neigh[u]
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

// aliasTable supports O(1) sampling from a discrete distribution (Walker's
// alias method).
type aliasTable struct {
	prob  []float64
	alias []int32
}

func newAliasTable(weights []float64) aliasTable {
	n := len(weights)
	t := aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	if sum == 0 {
		for i := range t.prob {
			t.prob[i] = 1
		}
		return t
	}
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	return t
}

func (t aliasTable) sample(r *rand.Rand) int {
	i := r.Intn(len(t.prob))
	if r.Float64() < t.prob[i] {
		return i
	}
	return int(t.alias[i])
}

// pick samples from the table with one 64-bit draw u: the high word of
// u·n picks the column and the low word, uniform and independent of it,
// flips the column's coin.
func (t aliasTable) pick(u uint64) int {
	i, frac := bits.Mul64(u, uint64(len(t.prob)))
	if float64(frac>>11)*0x1p-53 < t.prob[i] {
		return int(i)
	}
	return int(t.alias[i])
}

// walker generates second-order biased walks.
type walker struct {
	adj *adjacency
	cfg Config
	r   *rand.Rand
	// edgeAlias caches second-order alias tables keyed by prev*n + cur.
	edgeAlias map[int64]aliasTable
}

func (w *walker) stepWeights(prev, cur int32) []float64 {
	ns := w.adj.neigh[cur]
	weights := make([]float64, len(ns))
	for i, nxt := range ns {
		switch {
		case nxt == prev:
			weights[i] = 1 / w.cfg.P
		case w.adj.hasEdge(prev, nxt):
			weights[i] = 1
		default:
			weights[i] = 1 / w.cfg.Q
		}
		if w.cfg.Weighted {
			weights[i] *= w.adj.weight[cur][i]
		}
	}
	return weights
}

func (w *walker) next(prev, cur int32) int32 {
	ns := w.adj.neigh[cur]
	if len(ns) == 0 {
		return -1
	}
	if prev < 0 {
		// First step: uniform over neighbours (weight-proportional in
		// weighted mode).
		if !w.cfg.Weighted {
			return ns[w.r.Intn(len(ns))]
		}
		var sum float64
		for _, x := range w.adj.weight[cur] {
			sum += x
		}
		u := w.r.Float64() * sum
		for i, x := range w.adj.weight[cur] {
			u -= x
			if u <= 0 {
				return ns[i]
			}
		}
		return ns[len(ns)-1]
	}
	if w.cfg.LinearSampling {
		weights := w.stepWeights(prev, cur)
		var sum float64
		for _, x := range weights {
			sum += x
		}
		u := w.r.Float64() * sum
		for i, x := range weights {
			u -= x
			if u <= 0 {
				return ns[i]
			}
		}
		return ns[len(ns)-1]
	}
	key := int64(prev)*int64(len(w.adj.ids)) + int64(cur)
	t, ok := w.edgeAlias[key]
	if !ok {
		t = newAliasTable(w.stepWeights(prev, cur))
		w.edgeAlias[key] = t
	}
	return ns[t.sample(w.r)]
}

// appendWalk appends one walk from start to dst.
func (w *walker) appendWalk(dst []int32, start int32) []int32 {
	dst = append(dst, start)
	prev, cur := int32(-1), start
	for k := 1; k < w.cfg.WalkLength; k++ {
		nxt := w.next(prev, cur)
		if nxt < 0 {
			break
		}
		dst = append(dst, nxt)
		prev, cur = cur, nxt
	}
	return dst
}

// walkCorpus runs cfg.WalksPerNode rounds of one walk from every node, in
// order, into one arena: walk i is words[ends[i-1]:ends[i]], with
// ends[-1] = 0. Walks of a single node teach skip-gram nothing and are
// dropped.
func walkCorpus(w *walker, order []int) (words []int32, ends []int) {
	for rep := 0; rep < w.cfg.WalksPerNode; rep++ {
		for _, i := range order {
			start := len(words)
			if words = w.appendWalk(words, int32(i)); len(words)-start > 1 {
				ends = append(ends, len(words))
			} else {
				words = words[:start]
			}
		}
	}
	return words, ends
}

// Learn runs node2vec over the graph and returns the embedding.
func Learn(g pg.View, cfg Config) (*Embedding, error) {
	cfg = cfg.withDefaults()
	adj := buildAdjacency(g)
	n := len(adj.ids)
	if n == 0 {
		return &Embedding{Dims: cfg.Dims, Vectors: map[pg.NodeID][]float64{}}, nil
	}
	if cfg.P <= 0 || cfg.Q <= 0 {
		return nil, fmt.Errorf("embed: p and q must be positive (got %v, %v)", cfg.P, cfg.Q)
	}
	r := rand.New(rand.NewSource(cfg.Seed))

	// 1. Walk corpus.
	w := &walker{adj: adj, cfg: cfg, r: r, edgeAlias: make(map[int64]aliasTable)}
	words, ends := walkCorpus(w, r.Perm(n))

	// 2. Negative-sampling distribution: unigram^0.75 over walk occurrences.
	counts := make([]float64, n)
	for _, v := range words {
		counts[v]++
	}
	for i := range counts {
		counts[i] = math.Pow(counts[i]+1, 0.75)
	}
	negTable := newAliasTable(counts)

	// 3. Skip-gram with negative sampling. Row i of in (out) is node i's
	// input (output) vector; the three-index slices keep an append to one
	// row from growing into the next.
	dims := cfg.Dims
	in := make([]float64, n*dims)
	out := make([]float64, n*dims)
	for i := range in {
		in[i] = (r.Float64() - 0.5) / float64(dims)
	}
	row := func(m []float64, i int32) []float64 {
		lo := int(i) * dims
		return m[lo : lo+dims : lo+dims]
	}
	totalSteps := cfg.Epochs * len(ends)
	step := 0
	for ep := 0; ep < cfg.Epochs; ep++ {
		begin := 0
		for _, end := range ends {
			walk := words[begin:end]
			begin = end
			lr := cfg.LR * (1 - float64(step)/float64(totalSteps+1))
			if lr < cfg.LR*0.01 {
				lr = cfg.LR * 0.01
			}
			step++
			for ci, center := range walk {
				cv := row(in, center)
				lo := ci - cfg.Window
				if lo < 0 {
					lo = 0
				}
				hi := ci + cfg.Window
				if hi >= len(walk) {
					hi = len(walk) - 1
				}
				for t := lo; t <= hi; t++ {
					if t == ci {
						continue
					}
					ctx := walk[t]
					trainPair(cv, row(out, ctx), 1, lr)
					for k := 0; k < cfg.Negatives; k++ {
						neg := int32(negTable.pick(r.Uint64()))
						if neg == ctx {
							continue
						}
						trainPair(cv, row(out, neg), 0, lr)
					}
				}
			}
		}
	}

	vectors := make(map[pg.NodeID][]float64, n)
	for i, id := range adj.ids {
		vectors[id] = row(in, int32(i))
	}
	return &Embedding{Dims: dims, Vectors: vectors}, nil
}

// trainPair applies one SGD update for a (center, context) pair with the
// given label (1 = positive, 0 = negative). The dot product keeps four
// independent sums so consecutive multiply-adds do not wait on each other.
func trainPair(center, ctx []float64, label float64, lr float64) {
	ctx = ctx[:len(center)]
	var s0, s1, s2, s3 float64
	d := 0
	for ; d+4 <= len(center); d += 4 {
		c, x := center[d:d+4:d+4], ctx[d:d+4:d+4]
		s0 += c[0] * x[0]
		s1 += c[1] * x[1]
		s2 += c[2] * x[2]
		s3 += c[3] * x[3]
	}
	for ; d < len(center); d++ {
		s0 += center[d] * ctx[d]
	}
	g := lr * (label - sigmoid(s0+s1+s2+s3))
	for d := range center {
		cd := center[d]
		center[d] += g * ctx[d]
		ctx[d] += g * cd
	}
}

// sigmoidClamp bounds the sigmoid's domain: beyond ±8 it is within 3.4e-4
// of 0 or 1. sigmoidTable holds its value at the midpoint of each of
// len(sigmoidTable) equal bins over the clamped domain, which puts a lookup
// within 2e-3 of the exact value.
const sigmoidClamp = 8

var sigmoidTable = func() (t [1024]float64) {
	for i := range t {
		x := (float64(i)+0.5)*(2*sigmoidClamp)/float64(len(t)) - sigmoidClamp
		t[i] = 1 / (1 + math.Exp(-x))
	}
	return t
}()

func sigmoid(x float64) float64 {
	if x >= sigmoidClamp {
		return 1
	}
	if !(x > -sigmoidClamp) { // also NaN, which would index out of range
		return 0
	}
	return sigmoidTable[int((x+sigmoidClamp)*(float64(len(sigmoidTable))/(2*sigmoidClamp)))]
}
