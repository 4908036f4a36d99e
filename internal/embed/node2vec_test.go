package embed

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// corpusChecksum is the FNV-64a of TestWalkCorpusMatchesPerWalkOutput's
// walks, recorded from the walk generator before the arena existed.
const corpusChecksum = 0x3c75e03a99bf4d14

// twoCliques builds two dense 6-node clusters joined by a single bridge
// edge — the canonical sanity graph for neighbourhood-preserving embeddings.
func twoCliques() (*pg.Graph, []pg.NodeID, []pg.NodeID) {
	g := pg.New()
	var a, b []pg.NodeID
	for i := 0; i < 6; i++ {
		a = append(a, g.AddNode(pg.LabelCompany, nil))
	}
	for i := 0; i < 6; i++ {
		b = append(b, g.AddNode(pg.LabelCompany, nil))
	}
	connect := func(ids []pg.NodeID) {
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				g.MustAddEdge(pg.LabelShareholding, ids[i], ids[j],
					pg.Properties{pg.WeightProp: 0.1})
			}
		}
	}
	connect(a)
	connect(b)
	g.MustAddEdge(pg.LabelShareholding, a[0], b[0], pg.Properties{pg.WeightProp: 0.1})
	return g, a, b
}

func TestLearnPreservesNeighbourhoods(t *testing.T) {
	g, a, b := twoCliques()
	emb, err := Learn(g, Config{Dims: 16, WalkLength: 15, WalksPerNode: 8, Epochs: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Average intra-clique cosine must exceed average inter-clique cosine.
	intra, inter := 0.0, 0.0
	ni, nx := 0, 0
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			intra += cosine(emb.Vector(a[i]), emb.Vector(a[j]))
			ni++
		}
		for j := 0; j < len(b); j++ {
			inter += cosine(emb.Vector(a[i]), emb.Vector(b[j]))
			nx++
		}
	}
	intra /= float64(ni)
	inter /= float64(nx)
	if intra <= inter {
		t.Errorf("intra-clique cosine %.3f ≤ inter-clique %.3f; embedding does not preserve neighbourhoods", intra, inter)
	}
}

func TestLearnDeterministic(t *testing.T) {
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 40, Persons: 80, Seed: 6}).Graph
	e1, err := Learn(g, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Learn(g, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(e1.Vectors) != g.NumNodes() || len(e2.Vectors) != g.NumNodes() {
		t.Fatalf("vectors = %d and %d, want %d", len(e1.Vectors), len(e2.Vectors), g.NumNodes())
	}
	for id, v1 := range e1.Vectors {
		v2 := e2.Vector(id)
		if len(v1) != e1.Dims || len(v2) != e1.Dims {
			t.Fatalf("node %d: vector lengths %d and %d, want %d", id, len(v1), len(v2), e1.Dims)
		}
		for d := range v1 {
			if v1[d] != v2[d] {
				t.Fatalf("embedding not deterministic at node %d dim %d: %v vs %v", id, d, v1[d], v2[d])
			}
		}
	}
}

func TestVectorsDoNotShareCapacity(t *testing.T) {
	g, _, _ := twoCliques()
	emb, err := Learn(g, Config{Dims: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := map[pg.NodeID][]float64{}
	for id, v := range emb.Vectors {
		before[id] = append([]float64(nil), v...)
	}
	for id, v := range emb.Vectors {
		_ = append(v, 1e9, 1e9)
		for other, ov := range emb.Vectors {
			for d := range ov {
				if ov[d] != before[other][d] {
					t.Fatalf("appending to node %d's vector changed node %d's dim %d", id, other, d)
				}
			}
		}
	}
}

func TestSigmoidTableAccuracy(t *testing.T) {
	worst, at := 0.0, 0.0
	for x := -10.0; x <= 10; x += 1e-3 {
		if e := math.Abs(sigmoid(x) - 1/(1+math.Exp(-x))); e > worst {
			worst, at = e, x
		}
	}
	if worst > 5e-3 {
		t.Errorf("sigmoid table max abs error %.2e at x = %.3f, want ≤ 5e-3", worst, at)
	}
	if s := sigmoid(math.NaN()); s != 0 {
		t.Errorf("sigmoid(NaN) = %v, want 0", s)
	}
}

func TestWalkCorpusMatchesPerWalkOutput(t *testing.T) {
	g := graphgen.NewItalian(graphgen.ItalianConfig{Companies: 40, Persons: 80, Seed: 4}).Graph
	adj := buildAdjacency(g)
	newWalker := func() (*walker, []int) {
		r := rand.New(rand.NewSource(9))
		cfg := Config{Seed: 9}.withDefaults()
		return &walker{adj: adj, cfg: cfg, r: r, edgeAlias: map[int64]aliasTable{}}, r.Perm(len(adj.ids))
	}

	w, order := newWalker()
	words, ends := walkCorpus(w, order)

	w, order = newWalker()
	h := fnv.New64a()
	begin, k := 0, 0
	for rep := 0; rep < w.cfg.WalksPerNode; rep++ {
		for _, i := range order {
			walk := w.appendWalk(nil, int32(i))
			if len(walk) < 2 {
				continue
			}
			if k >= len(ends) {
				t.Fatalf("arena has %d walks, per-walk generation more", len(ends))
			}
			got := words[begin:ends[k]]
			if len(got) != len(walk) {
				t.Fatalf("walk %d: arena length %d, per-walk %d", k, len(got), len(walk))
			}
			for j := range walk {
				if got[j] != walk[j] {
					t.Fatalf("walk %d step %d: arena %d, per-walk %d", k, j, got[j], walk[j])
				}
			}
			for _, v := range walk {
				binary.Write(h, binary.LittleEndian, v)
			}
			binary.Write(h, binary.LittleEndian, int32(-1))
			begin, k = ends[k], k+1
		}
	}
	if k != len(ends) || begin != len(words) {
		t.Fatalf("arena has %d walks over %d words, per-walk generation %d over %d", len(ends), len(words), k, begin)
	}
	// The checksum of the walks the per-walk corpus ([][]int32) produced
	// before the arena: the training kernel changes no walk.
	if sum := h.Sum64(); sum != corpusChecksum {
		t.Errorf("walk corpus checksum %#x, want %#x: walk generation changed", sum, uint64(corpusChecksum))
	}
}

func TestLearnEmptyGraph(t *testing.T) {
	emb, err := Learn(pg.New(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb.Vectors) != 0 {
		t.Errorf("empty graph produced %d vectors", len(emb.Vectors))
	}
}

func TestLearnIsolatedNodes(t *testing.T) {
	g := pg.New()
	g.AddNode(pg.LabelCompany, nil)
	g.AddNode(pg.LabelCompany, nil)
	emb, err := Learn(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Isolated nodes still get (near-zero) vectors.
	if len(emb.Vectors) != 2 {
		t.Errorf("vectors = %d, want 2", len(emb.Vectors))
	}
}

func TestLearnRejectsBadPQ(t *testing.T) {
	g, _, _ := twoCliques()
	if _, err := Learn(g, Config{P: -1, Q: 1}); err == nil {
		t.Error("negative p accepted")
	}
}

func TestLinearVsAliasSameDistributionShape(t *testing.T) {
	// Both samplers must produce neighbourhood-preserving embeddings; exact
	// values differ (different RNG consumption) but the structure holds.
	g, a, b := twoCliques()
	emb, err := Learn(g, Config{Dims: 16, WalkLength: 15, WalksPerNode: 8, Epochs: 4, Seed: 7, LinearSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	intra := cosine(emb.Vector(a[0]), emb.Vector(a[1]))
	inter := cosine(emb.Vector(a[0]), emb.Vector(b[3]))
	if intra <= inter {
		t.Errorf("linear sampling: intra %.3f ≤ inter %.3f", intra, inter)
	}
}

// cosine is the cosine similarity of two vectors, 0 when either is zero:
// the measure the embedding-quality tests compare clusters by.
func cosine(a, b []float64) float64 {
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

func TestCosine(t *testing.T) {
	if c := cosine([]float64{1, 0}, []float64{1, 0}); math.Abs(c-1) > 1e-12 {
		t.Errorf("cosine identical = %v", c)
	}
	if c := cosine([]float64{1, 0}, []float64{0, 1}); math.Abs(c) > 1e-12 {
		t.Errorf("cosine orthogonal = %v", c)
	}
	if c := cosine([]float64{1, 0}, []float64{-1, 0}); math.Abs(c+1) > 1e-12 {
		t.Errorf("cosine opposite = %v", c)
	}
	if c := cosine([]float64{0, 0}, []float64{1, 0}); c != 0 {
		t.Errorf("cosine zero vector = %v, want 0", c)
	}
}

func TestAliasTableDistribution(t *testing.T) {
	// Sampling frequencies must approximate the weights, whether a sample
	// takes two draws (walk steps) or one (negatives).
	weights := []float64{1, 2, 3, 4, 0.5, 7}
	table := newAliasTable(weights)
	for _, s := range []struct {
		name   string
		sample func(*rand.Rand) int
	}{
		{"sample", table.sample},
		{"pick", func(r *rand.Rand) int { return table.pick(r.Uint64()) }},
	} {
		r := rand.New(rand.NewSource(5))
		counts := make([]int, len(weights))
		const trials = 200000
		for i := 0; i < trials; i++ {
			counts[s.sample(r)]++
		}
		var sum float64
		for _, w := range weights {
			sum += w
		}
		for i, w := range weights {
			want := w / sum
			got := float64(counts[i]) / trials
			if math.Abs(got-want) > 0.01 {
				t.Errorf("alias %s freq[%d] = %.3f, want %.3f", s.name, i, got, want)
			}
		}
	}
}

func TestAliasTableUniformOnZeroWeights(t *testing.T) {
	table := newAliasTable([]float64{0, 0, 0})
	r := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		seen[table.sample(r)] = true
	}
	if len(seen) != 3 {
		t.Errorf("zero-weight alias table not uniform: %v", seen)
	}
}

func TestWalkLengthRespected(t *testing.T) {
	g, a, _ := twoCliques()
	adj := buildAdjacency(g)
	w := &walker{adj: adj, cfg: Config{WalkLength: 10, P: 1, Q: 1}.withDefaults(), r: rand.New(rand.NewSource(3)), edgeAlias: map[int64]aliasTable{}}
	walk := w.appendWalk(nil, int32(adj.index[a[0]]))
	if len(walk) != 10 {
		t.Errorf("walk length = %d, want 10", len(walk))
	}
}

func TestReturnParameterBiasesWalks(t *testing.T) {
	// On a path graph A–B–C, a tiny p (return-heavy) makes immediate
	// backtracking much more common than with a huge p.
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	c := g.AddNode(pg.LabelCompany, nil)
	g.MustAddEdge(pg.LabelShareholding, a, b, pg.Properties{pg.WeightProp: 0.5})
	g.MustAddEdge(pg.LabelShareholding, b, c, pg.Properties{pg.WeightProp: 0.5})
	adj := buildAdjacency(g)

	countReturns := func(p float64) int {
		w := &walker{adj: adj, cfg: Config{WalkLength: 3, P: p, Q: 1}.withDefaults(), r: rand.New(rand.NewSource(9)), edgeAlias: map[int64]aliasTable{}}
		w.cfg.P = p
		returns := 0
		for i := 0; i < 2000; i++ {
			walk := w.appendWalk(nil, int32(adj.index[a]))
			if len(walk) == 3 && walk[2] == walk[0] {
				returns++
			}
		}
		return returns
	}
	lowP := countReturns(0.05)  // return-friendly
	highP := countReturns(20.0) // return-averse
	if lowP <= highP {
		t.Errorf("return bias inverted: returns(p=0.05)=%d ≤ returns(p=20)=%d", lowP, highP)
	}
}
