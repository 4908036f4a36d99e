package main

import (
	"fmt"
	"math"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// generate draws the Italian graph of (seed, salt) — salt numbers the graphs
// one run needs: the job of a batch workload, the part of a registry. About
// one draw in a thousand (at 250 companies; more at larger sizes) plants a
// cross-ownership cycle that hands all of each member to the next — company
// A owns 100% of B and B 100% of A — on which accumulated ownership is a
// geometric series of ratio 1: the chase never converges and a request over
// it runs into its deadline. No registry records such a structure, so the
// generator's consumer redraws; the redraw is a function of the seed alone,
// like everything else here.
func generate(companies, persons int, seed int64, salt int) *graphgen.Italian {
	for attempt := int64(0); attempt < 10; attempt++ {
		it := graphgen.NewItalian(graphgen.ItalianConfig{
			Companies: companies, Persons: persons,
			Seed: seed*1_000_000 + int64(salt)*10 + attempt,
		})
		if cycleGain(it.Graph) <= maxCycleGain {
			return it
		}
	}
	panic(fmt.Sprintf("seed %d salt %d: ten draws in a row carry a divergent ownership cycle", seed, salt))
}

// maxCycleGain bounds the ratio of the accumulated-ownership series around
// any cross-ownership cycle: at 0.8 the series reaches the chase's 1e-4
// convergence step in about 40 rounds.
const maxCycleGain = 0.6

// cyclicCore returns the nodes left after peeling, over shareholding edges,
// every node nothing owns and every node that owns nothing, repeatedly: all
// nodes on an ownership cycle plus those on paths between cycles. It is
// empty exactly when the shareholding graph is acyclic.
func cyclicCore(g *pg.Graph) map[pg.NodeID]bool {
	core := map[pg.NodeID]bool{}
	in, out := map[pg.NodeID]int{}, map[pg.NodeID]int{}
	for _, id := range g.EdgesWithLabel(pg.LabelShareholding) {
		e := g.Edge(id)
		core[e.From], core[e.To] = true, true
		out[e.From]++
		in[e.To]++
	}
	var queue []pg.NodeID
	for n := range core {
		if in[n] == 0 || out[n] == 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !core[n] {
			continue
		}
		delete(core, n)
		for _, e := range g.OutLabel(n, pg.LabelShareholding) {
			if in[e.To]--; core[e.To] && in[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
		for _, e := range g.InLabel(n, pg.LabelShareholding) {
			if out[e.From]--; core[e.From] && out[e.From] == 0 {
				queue = append(queue, e.From)
			}
		}
	}
	return core
}

// cycleGain estimates the spectral radius of the cyclic core's weight matrix
// W — the ratio of the ownership series around the graph's strongest cycle —
// as the k-th root of the largest entry of W^k·1 (Gelfand's formula, from
// above). 0 for an acyclic graph, 1 for a cycle of 100% stakes.
func cycleGain(g *pg.Graph) float64 {
	core := cyclicCore(g)
	if len(core) == 0 {
		return 0
	}
	const k = 32
	x := make(map[pg.NodeID]float64, len(core))
	for n := range core {
		x[n] = 1
	}
	for i := 0; i < k; i++ {
		next := make(map[pg.NodeID]float64, len(core))
		for n := range core {
			for _, e := range g.InLabel(n, pg.LabelShareholding) {
				if w, ok := e.Weight(); ok && core[e.From] {
					next[n] += w * x[e.From]
				}
			}
		}
		x = next
	}
	largest := 0.0
	for _, v := range x {
		largest = math.Max(largest, v)
	}
	return math.Pow(largest, 1.0/k)
}

// registryGroup is the size, in companies, of the independently generated
// groups a what-if registry or a materialize job is made of. Both cost
// whole-graph work (extraction, close-link pair formation over every
// accumulated-ownership row, the full chase), and on one generated graph
// that work swings ~2x with the draw; over many small disjoint groups — the
// real registry has >600K components — the swing averages out, so a run
// measures the code rather than the draw.
const registryGroup = 32

// registry returns the disjoint union of c/registryGroup generated graphs of
// registryGroup companies and half as many persons each, drawn with salts
// salt, salt+1, ... It returns how many groups it drew.
func registry(c int, seed int64, salt int) (*pg.Graph, int) {
	parts := max(c/registryGroup, 1)
	groups := make([]*pg.Graph, parts)
	for p := range groups {
		groups[p] = generate(registryGroup, registryGroup/2, seed, salt+p).Graph
	}
	return union(groups), parts
}

// meanGroupWork is groupWork averaged over 3840 draws of a registryGroup
// group (median 125, tenth and ninetieth percentile 74 and 213).
const meanGroupWork = 136

// matchedRegistry is the what-if registry: parts groups chosen from
// 2*parts drawn ones so that their groupWork adds up to parts*meanGroupWork.
// A what-if's cost follows that sum, not the node count — over the first
// parts draws it ranges 3780-4850 from seed to seed at 32 groups, and the
// median latency with it (23.6-28.2 ms) — so a registry is sized in work:
// starting from the first parts draws, the swap with a spare draw that
// brings the sum closest to the target is made until none brings it closer.
func matchedRegistry(parts int, seed int64) *pg.Graph {
	groups := make([]*pg.Graph, 2*parts)
	work := make([]int, len(groups))
	excess := -parts * meanGroupWork
	for p := range groups {
		groups[p] = generate(registryGroup, registryGroup/2, seed, p).Graph
		work[p] = groupWork(groups[p])
		if p < parts {
			excess += work[p]
		}
	}
	abs := func(x int) int { return max(x, -x) }
	for {
		in, out := -1, -1
		for i := 0; i < parts; i++ {
			for j := parts; j < len(groups); j++ {
				if d := excess - work[i] + work[j]; abs(d) < abs(excess) && (in < 0 || abs(d) < abs(excess-work[in]+work[out])) {
					in, out = i, j
				}
			}
		}
		if in < 0 {
			return union(groups[:parts])
		}
		excess += work[out] - work[in]
		groups[in], groups[out] = groups[out], groups[in]
		work[in], work[out] = work[out], work[in]
	}
}

// union returns the disjoint union of groups, in order.
func union(groups []*pg.Graph) *pg.Graph {
	out := pg.New()
	for _, g := range groups {
		ids := make(map[pg.NodeID]pg.NodeID, g.NumNodes())
		for _, id := range g.Nodes() {
			n := g.Node(id)
			ids[id] = out.AddNode(n.Label, n.Props)
		}
		for _, id := range g.Edges() {
			e := g.Edge(id)
			out.MustAddEdge(e.Label, ids[e.From], ids[e.To], e.Props)
		}
	}
	return out
}

// groupWork counts the facts one what-if pushes through the engine on
// account of group g, whichever group the scenario touches: the group's
// accumulated-ownership rows (seeded from the baseline) and what close-link
// pair formation derives from them, duplicates included. Pair formation is
// quadratic in the strong stakes of one owner, so the count swings ~2x from
// draw to draw while nodes and edges barely move. It is computed here, from
// the graph alone, so that no change to the program can move it.
func groupWork(g *pg.Graph) int {
	nodes := g.Nodes()
	n := len(nodes)
	idx := make(map[pg.NodeID]int, n)
	company := make([]bool, n)
	for i, id := range nodes {
		idx[id] = i
		company[i] = g.Node(id).Label == pg.LabelCompany
	}
	w := make([]float64, n*n)
	for _, id := range g.EdgesWithLabel(pg.LabelShareholding) {
		e := g.Edge(id)
		if x, ok := e.Weight(); ok && e.From != e.To {
			w[idx[e.From]*n+idx[e.To]] += x
		}
	}
	// Accumulated ownership is the fixpoint of acc = W + W*acc off the
	// diagonal; cycleGain <= maxCycleGain bounds the rounds it takes.
	acc := append([]float64(nil), w...)
	for round := 0; round < 64; round++ {
		next := append([]float64(nil), w...)
		moved := 0.0
		for i := 0; i < n; i++ {
			for z := 0; z < n; z++ {
				if wz := w[i*n+z]; wz > 0 {
					for j := 0; j < n; j++ {
						if j != i && j != z {
							next[i*n+j] += wz * acc[z*n+j]
						}
					}
				}
			}
			for j := 0; j < n; j++ {
				moved = math.Max(moved, next[i*n+j]-acc[i*n+j])
			}
		}
		acc = next
		if moved < 1e-6 {
			break
		}
	}
	strong := func(i, j int) bool { return company[j] && acc[i*n+j] >= whatif.DefaultThreshold }
	linked := make([]bool, n*n)
	work := 0
	for i := 0; i < n; i++ {
		var owned []int
		for j := 0; j < n; j++ {
			if acc[i*n+j] > 0 {
				work++ // a seeded row
			}
			if strong(i, j) {
				owned = append(owned, j)
				if company[i] {
					work++ // a direct candidate
					linked[min(i, j)*n+max(i, j)] = true
				}
			}
		}
		work += len(owned) * (len(owned) - 1) // candidates through the common owner i
		for _, x := range owned {
			for _, y := range owned {
				if x < y {
					linked[x*n+y] = true
				}
			}
		}
	}
	for _, l := range linked {
		if l {
			work += 4 // mirrored, and both directions copied into closelink
		}
	}
	return work
}
