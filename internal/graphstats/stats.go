// Package graphstats computes the structural statistics the paper reports
// for the Italian company database in Section 2: strongly and weakly
// connected components, degree statistics, clustering coefficient, self
// loops and the power-law exponent of the degree distribution.
package graphstats

import (
	"fmt"
	"math"
	"strings"

	"vadalink/internal/pg"
)

// Stats is the structural profile of a graph (the §2 numbers).
type Stats struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`

	SCCCount   int `json:"sccCount"`
	LargestSCC int `json:"largestScc"`
	WCCCount   int `json:"wccCount"`
	LargestWCC int `json:"largestWcc"`

	AvgInDegree  float64 `json:"avgInDegree"`
	AvgOutDegree float64 `json:"avgOutDegree"`
	MaxInDegree  int     `json:"maxInDegree"`
	MaxOutDegree int     `json:"maxOutDegree"`

	SelfLoops int `json:"selfLoops"`

	// AvgClustering is the average local clustering coefficient over nodes
	// with degree ≥ 2 (undirected view).
	AvgClustering float64 `json:"avgClustering"`

	// PowerLawAlpha is the MLE exponent of the degree distribution
	// (Clauset–Shalizi–Newman estimator with dmin = 1), 0 when degenerate.
	PowerLawAlpha float64 `json:"powerLawAlpha"`
}

// Compute derives the full profile of a graph.
func Compute(g pg.View) Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	ids := g.Nodes()
	index := make(map[pg.NodeID]int, len(ids))
	for i, id := range ids {
		index[id] = i
	}
	n := len(ids)
	out := make([][]int32, n)
	in := make([][]int32, n)
	undirected := make([]map[int32]bool, n)
	totalIn, totalOut := 0, 0
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		u, v := int32(index[e.From]), int32(index[e.To])
		if u == v {
			s.SelfLoops++
		}
		out[u] = append(out[u], v)
		in[v] = append(in[v], u)
		totalOut++
		totalIn++
		if u != v {
			if undirected[u] == nil {
				undirected[u] = map[int32]bool{}
			}
			if undirected[v] == nil {
				undirected[v] = map[int32]bool{}
			}
			undirected[u][v] = true
			undirected[v][u] = true
		}
	}
	if n > 0 {
		s.AvgInDegree = float64(totalIn) / float64(n)
		s.AvgOutDegree = float64(totalOut) / float64(n)
	}
	for i := 0; i < n; i++ {
		if d := len(in[i]); d > s.MaxInDegree {
			s.MaxInDegree = d
		}
		if d := len(out[i]); d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
	}

	s.SCCCount, s.LargestSCC = tarjanSCC(out)
	s.WCCCount, s.LargestWCC = unionFindWCC(n, out)
	s.AvgClustering = avgClustering(undirected)
	s.PowerLawAlpha = powerLawAlpha(undirected)
	return s
}

// tarjanSCC runs an iterative Tarjan strongly-connected-components algorithm
// and returns (component count, size of the largest component).
func tarjanSCC(adj [][]int32) (count, largest int) {
	n := len(adj)
	const unvisited = -1
	indexOf := make([]int32, n)
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	for i := range indexOf {
		indexOf[i] = unvisited
	}
	var stack []int32
	var next int32

	type frame struct {
		v  int32
		ei int
	}
	var callStack []frame

	for root := 0; root < n; root++ {
		if indexOf[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: int32(root)})
		indexOf[root] = next
		lowlink[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if indexOf[w] == unvisited {
					indexOf[w] = next
					lowlink[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] {
					if indexOf[w] < lowlink[f.v] {
						lowlink[f.v] = indexOf[w]
					}
				}
				continue
			}
			// Post-order: pop and propagate lowlink.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
			if lowlink[v] == indexOf[v] {
				size := 0
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					size++
					if w == v {
						break
					}
				}
				count++
				if size > largest {
					largest = size
				}
			}
		}
	}
	return count, largest
}

// unionFindWCC counts weakly connected components via union-find.
func unionFindWCC(n int, adj [][]int32) (count, largest int) {
	parent := make([]int32, n)
	size := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
		size[i] = 1
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra == rb {
			return
		}
		if size[ra] < size[rb] {
			ra, rb = rb, ra
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}
	for u, vs := range adj {
		for _, v := range vs {
			union(int32(u), v)
		}
	}
	for i := 0; i < n; i++ {
		if find(int32(i)) == int32(i) {
			count++
			if int(size[i]) > largest {
				largest = int(size[i])
			}
		}
	}
	return count, largest
}

// avgClustering computes the average local clustering coefficient over nodes
// of undirected degree ≥ 2; nodes of lower degree contribute 0, matching the
// convention used for the §2 figure (≈ 0.0084 on a 4M-node graph).
func avgClustering(undirected []map[int32]bool) float64 {
	n := len(undirected)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, neigh := range undirected {
		d := len(neigh)
		if d < 2 {
			continue
		}
		links := 0
		for a := range neigh {
			for b := range neigh {
				if a < b && undirected[a][b] {
					links++
				}
			}
		}
		sum += 2 * float64(links) / float64(d*(d-1))
	}
	return sum / float64(n)
}

// powerLawAlpha is the discrete MLE α ≈ 1 + n·(Σ ln(dᵢ/(dmin−0.5)))⁻¹ with
// dmin = 1, over undirected degrees ≥ 1.
func powerLawAlpha(undirected []map[int32]bool) float64 {
	var sum float64
	var count int
	for _, neigh := range undirected {
		d := len(neigh)
		if d < 1 {
			continue
		}
		sum += math.Log(float64(d) / 0.5)
		count++
	}
	if count == 0 || sum == 0 {
		return 0
	}
	return 1 + float64(count)/sum
}

// String renders the profile in the style of the §2 description.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "nodes: %d, edges: %d\n", s.Nodes, s.Edges)
	fmt.Fprintf(&sb, "SCCs: %d (largest %d), WCCs: %d (largest %d)\n",
		s.SCCCount, s.LargestSCC, s.WCCCount, s.LargestWCC)
	fmt.Fprintf(&sb, "avg in/out degree: %.3f/%.3f, max in/out degree: %d/%d\n",
		s.AvgInDegree, s.AvgOutDegree, s.MaxInDegree, s.MaxOutDegree)
	fmt.Fprintf(&sb, "self-loops: %d, avg clustering coefficient: %.5f, power-law α: %.2f\n",
		s.SelfLoops, s.AvgClustering, s.PowerLawAlpha)
	return sb.String()
}
