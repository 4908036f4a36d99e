package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vadalink/internal/pg"
)

// blobs generates k well-separated Gaussian blobs of vectors.
func blobs(k, perBlob, dims int, seed int64) (map[pg.NodeID][]float64, map[pg.NodeID]int) {
	r := rand.New(rand.NewSource(seed))
	vectors := map[pg.NodeID][]float64{}
	truth := map[pg.NodeID]int{}
	id := pg.NodeID(0)
	for c := 0; c < k; c++ {
		center := make([]float64, dims)
		for d := range center {
			center[d] = float64(c*20) + r.Float64()
		}
		for i := 0; i < perBlob; i++ {
			v := make([]float64, dims)
			for d := range v {
				v[d] = center[d] + r.NormFloat64()*0.5
			}
			vectors[id] = v
			truth[id] = c
			id++
		}
	}
	return vectors, truth
}

func TestKMeansRecoversBlobs(t *testing.T) {
	vectors, truth := blobs(3, 30, 4, 11)
	res, err := KMeans(vectors, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// All members of a true blob must share an assigned cluster, and
	// different blobs must get different clusters.
	blobCluster := map[int]int{}
	for id, tc := range truth {
		ac := res.Assignment[id]
		if prev, ok := blobCluster[tc]; ok {
			if prev != ac {
				t.Fatalf("blob %d split across clusters %d and %d", tc, prev, ac)
			}
		} else {
			blobCluster[tc] = ac
		}
	}
	seen := map[int]bool{}
	for _, c := range blobCluster {
		if seen[c] {
			t.Fatal("two blobs merged into one cluster")
		}
		seen[c] = true
	}
}

func TestKMeansDeterministic(t *testing.T) {
	vectors, _ := blobs(4, 20, 3, 2)
	r1, _ := KMeans(vectors, 4, 99, 0)
	r2, _ := KMeans(vectors, 4, 99, 0)
	for id := range vectors {
		if r1.Assignment[id] != r2.Assignment[id] {
			t.Fatalf("assignment differs for %d", id)
		}
	}
}

func TestKMeansClampsK(t *testing.T) {
	vectors, _ := blobs(1, 3, 2, 3)
	res, err := KMeans(vectors, 10, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 3 {
		t.Errorf("K = %d, want clamped to 3", res.K)
	}
}

func TestKMeansRejectsNonPositiveK(t *testing.T) {
	vectors, _ := blobs(1, 3, 2, 3)
	if _, err := KMeans(vectors, 0, 1, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKMeansEmptyInput(t *testing.T) {
	res, err := KMeans(map[pg.NodeID][]float64{}, 3, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 0 {
		t.Error("empty input produced assignments")
	}
}

func TestKMeansEveryNodeAssigned(t *testing.T) {
	f := func(seed int64) bool {
		vectors, _ := blobs(3, 10, 3, seed)
		res, err := KMeans(vectors, 5, seed, 0)
		if err != nil {
			return false
		}
		if len(res.Assignment) != len(vectors) {
			return false
		}
		for _, c := range res.Assignment {
			if c < 0 || c >= res.K {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func personNode(g *pg.Graph, surname string, birth float64, city string) pg.NodeID {
	return g.AddNode(pg.LabelPerson, pg.Properties{
		"surname": surname, "birth": birth, "city": city,
	})
}

func TestPersonBlocker(t *testing.T) {
	g := pg.New()
	a := personNode(g, "Rossi", 1960, "Roma")
	b := personNode(g, "Rossi", 1965, "Roma") // same soundex, same decade? 1960/10=196, 1965/10=196 ✓
	c := personNode(g, "Bianchi", 1960, "Roma")
	comp := g.AddNode(pg.LabelCompany, pg.Properties{"sector": "finance"})

	blk := PersonBlocker{}
	if blk.Key(g.Node(a)) != blk.Key(g.Node(b)) {
		t.Error("same surname+decade persons must share a block")
	}
	if blk.Key(g.Node(a)) == blk.Key(g.Node(c)) {
		t.Error("different surnames must not share a block")
	}
	if blk.Key(g.Node(comp)) != "" {
		t.Error("companies must be unblocked by PersonBlocker")
	}
	// Phonetically identical surnames co-block (Rossi/Russo → R200).
	d := personNode(g, "Russo", 1961, "Roma")
	if blk.Key(g.Node(a)) != blk.Key(g.Node(d)) {
		t.Error("phonetically identical surnames should share a block")
	}
}

func TestFeatureHashBlockerBucketCount(t *testing.T) {
	g := pg.New()
	var ids []pg.NodeID
	for i := 0; i < 500; i++ {
		ids = append(ids, g.AddNode(pg.LabelPerson, pg.Properties{
			"surname": "S" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)),
			"birth":   float64(1940 + i%60),
		}))
	}
	for _, k := range []int{1, 5, 20, 100} {
		blocks := Partition(g, ids, FeatureHashBlocker{Features: []string{"surname", "birth"}, K: k})
		if len(blocks) > k {
			t.Errorf("K=%d produced %d blocks", k, len(blocks))
		}
		total := 0
		for _, blk := range blocks {
			total += len(blk)
		}
		if total != len(ids) {
			t.Errorf("K=%d lost nodes: %d/%d", k, total, len(ids))
		}
	}
}

func TestSingleBlock(t *testing.T) {
	g := pg.New()
	var ids []pg.NodeID
	for i := 0; i < 10; i++ {
		ids = append(ids, g.AddNode(pg.LabelPerson, nil))
	}
	blocks := Partition(g, ids, SingleBlock{})
	if len(blocks) != 1 || len(blocks[0]) != 10 {
		t.Errorf("SingleBlock partition = %v", blocks)
	}
}

func TestPartitionDeterministic(t *testing.T) {
	g := pg.New()
	var ids []pg.NodeID
	for i := 0; i < 100; i++ {
		ids = append(ids, g.AddNode(pg.LabelPerson, pg.Properties{
			"surname": "S" + string(rune('a'+i%7)),
		}))
	}
	b := FeatureHashBlocker{Features: []string{"surname"}, K: 4}
	p1 := Partition(g, ids, b)
	p2 := Partition(g, ids, b)
	if len(p1) != len(p2) {
		t.Fatal("partition count differs between runs")
	}
	for i := range p1 {
		if len(p1[i]) != len(p2[i]) {
			t.Fatal("partition sizes differ between runs")
		}
		for j := range p1[i] {
			if p1[i][j] != p2[i][j] {
				t.Fatal("partition order differs between runs")
			}
		}
	}
}
