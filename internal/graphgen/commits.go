package graphgen

import (
	"fmt"
	"math/rand"

	"vadalink/internal/pg"
)

// RandomCommit mutates the overlay with 1–4 random operations — share adds
// (including cycle-creating ones: any source, any target), reweights, edge
// removals, node removals and node additions — and reports how many applied.
// It is the commit stream of the differential harnesses that check derived
// state (incremental maintenance, the query cache) against a re-chase after
// every commit.
func RandomCommit(rng *rand.Rand, o *pg.Overlay) int {
	applied := 0
	for i := 0; i < 1+rng.Intn(4); i++ {
		switch rng.Intn(6) {
		case 0, 1: // bias toward adds so graphs don't wither
			nodes := o.Nodes()
			if len(nodes) < 2 {
				continue
			}
			from := nodes[rng.Intn(len(nodes))]
			to := nodes[rng.Intn(len(nodes))]
			if from == to && rng.Intn(4) != 0 {
				continue // keep a few self-loops, not many
			}
			if _, err := o.AddShare(from, to, 0.05+0.9*rng.Float64()); err == nil {
				applied++
			}
		case 2:
			shares := o.EdgesWithLabel(pg.LabelShareholding)
			if len(shares) == 0 {
				continue
			}
			if err := o.SetEdgeWeight(shares[rng.Intn(len(shares))], 0.05+0.9*rng.Float64()); err == nil {
				applied++
			}
		case 3:
			shares := o.EdgesWithLabel(pg.LabelShareholding)
			if len(shares) == 0 {
				continue
			}
			if o.RemoveEdge(shares[rng.Intn(len(shares))]) {
				applied++
			}
		case 4:
			nodes := o.Nodes()
			if len(nodes) < 5 {
				continue
			}
			if o.RemoveNode(nodes[rng.Intn(len(nodes))]) {
				applied++
			}
		case 5:
			label := pg.LabelCompany
			if rng.Intn(4) == 0 {
				label = pg.LabelPerson
			}
			o.AddNode(label, pg.Properties{"name": fmt.Sprintf("new%d", rng.Int())})
			applied++
		}
	}
	return applied
}
