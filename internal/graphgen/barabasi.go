// Package graphgen generates the synthetic graphs of Section 6 of the
// Vada-Link paper:
//
//   - Barabási–Albert scale-free graphs ("we built different artificial
//     graphs by adopting Barabási algorithm for the generation of scale-free
//     networks, varying the number of nodes and the graph density"), used by
//     the Figure 4(b) and 4(d) experiments;
//   - an Italian-company-like graph with realistic person/company features
//     and planted family relationships, substituting for the proprietary
//     Banca d'Italia database in the Figure 4(a), 4(c), 4(e) experiments and
//     the Section 2 statistics profile (see DESIGN.md, substitutions).
package graphgen

import (
	"fmt"
	"math/rand"

	"vadalink/internal/pg"
)

// DensityLevel selects the edge density of a synthetic graph, matching the
// four Figure 4(d) scenarios.
type DensityLevel int

// Density levels of the Figure 4(d) experiment.
const (
	Sparse DensityLevel = iota
	Normal
	Dense
	Superdense
)

func (d DensityLevel) String() string {
	switch d {
	case Sparse:
		return "sparse"
	case Normal:
		return "normal"
	case Dense:
		return "dense"
	case Superdense:
		return "superdense"
	}
	return "unknown"
}

// EdgesPerNode returns the Barabási–Albert m parameter for the level.
func (d DensityLevel) EdgesPerNode() int {
	switch d {
	case Sparse:
		return 1
	case Normal:
		return 2
	case Dense:
		return 5
	case Superdense:
		return 12
	}
	return 1
}

// BarabasiConfig configures the scale-free generator.
type BarabasiConfig struct {
	N    int   // nodes
	M    int   // edges attached per new node (density)
	Seed int64 //
	// PersonFraction relabels this share of nodes as Person nodes with
	// generated personal features, so the family-detection workload of
	// Section 6 can run on the dense synthetic graphs of Figures 4(b) and
	// 4(d). A person holds shares but is never drawn as a share's target, so
	// the graphs are valid company graphs (Definition 2.2).
	PersonFraction float64
}

// Barabasi generates a scale-free company graph with n nodes by preferential
// attachment, each new node attaching m shareholding edges to existing nodes
// with probability proportional to their degree. Edge weights are share
// fractions normalized so the incoming shares of every company sum to at
// most 1. Node features (6 random features, matching the paper's synthetic
// setup) are drawn from simple distributions.
func Barabasi(n, m int, seed int64) *pg.Graph {
	return BarabasiWith(BarabasiConfig{N: n, M: m, Seed: seed})
}

// BarabasiWith is Barabasi with the full configuration.
func BarabasiWith(cfg BarabasiConfig) *pg.Graph {
	n, m := cfg.N, cfg.M
	if m < 1 {
		m = 1
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	g := pg.New()
	var props pg.RecordBuilder

	ids := make([]pg.NodeID, 0, n)
	var shares []share
	// repeated holds node indices once per degree unit — sampling an element
	// uniformly implements preferential attachment.
	var repeated []pg.NodeID

	for i := 0; i < n; i++ {
		var id pg.NodeID
		if r.Float64() < cfg.PersonFraction {
			props.Str("name", firstNames[r.Intn(len(firstNames))])
			props.Str("surname", surnames[r.Intn(len(surnames))])
			props.Float("birth", float64(1935+r.Intn(70)))
			props.Str("addr", fmt.Sprintf("%s %d", streets[r.Intn(len(streets))], 1+r.Intn(200)))
			props.Str("city", cities[r.Intn(len(cities))])
			id = g.AddNode(pg.LabelPerson, props.Record())
		} else {
			props.Str("name", companyName(r))
			props.Str("sector", sectors[r.Intn(len(sectors))])
			props.Float("f1", r.Float64())
			props.Float("f2", r.Float64())
			props.Float("f3", float64(r.Intn(100)))
			props.Str("f4", sectors[r.Intn(len(sectors))])
			props.Float("f5", float64(1950+r.Intn(70)))
			props.Float("f6", r.NormFloat64())
			id = g.AddNode(pg.LabelCompany, props.Record())
		}
		ids = append(ids, id)
		targets := map[pg.NodeID]bool{}
		for k := 0; k < m && len(ids) > 1; k++ {
			var to pg.NodeID
			if len(repeated) == 0 {
				to = ids[r.Intn(len(ids)-1)]
			} else {
				to = repeated[r.Intn(len(repeated))]
			}
			if to == id || targets[to] || g.Node(to).Label == pg.LabelPerson {
				continue // the draw is spent either way, so the stream stays aligned
			}
			targets[to] = true
			shares = append(shares, share{id, to, 0.05 + 0.95*r.Float64()})
			repeated = append(repeated, to, id)
		}
	}
	addShares(g, shares)
	return g
}

// share is a shareholding edge a generator has drawn but not yet added.
type share struct {
	from, to pg.NodeID
	w        float64
}

// addShares normalizes the drawn shares and adds them to g in draw order.
// Weights are final before an edge is added: a graph never writes to an edge
// it holds.
func addShares(g *pg.Graph, shares []share) {
	normalizeShares(shares)
	var props pg.RecordBuilder
	for _, s := range shares {
		props.Float(pg.WeightProp, s.w)
		g.MustAddEdge(pg.LabelShareholding, s.from, s.to, props.Record())
	}
}

// normalizeShares rescales the weights of the shares into every target whose
// total exceeds 1 so they sum to exactly 1, preserving proportions — the
// company-graph invariant that no more than 100% of a company is owned.
func normalizeShares(shares []share) {
	sum := map[pg.NodeID]float64{}
	for _, s := range shares {
		sum[s.to] += s.w
	}
	for i := range shares {
		if total := sum[shares[i].to]; total > 1 {
			shares[i].w /= total
		}
	}
}

var sectors = []string{
	"manufacturing", "finance", "retail", "agriculture", "energy",
	"construction", "transport", "technology", "tourism", "health",
}

var companySyllables = []string{
	"ital", "tec", "fin", "co", "gen", "ser", "pro", "al", "mec", "tra",
	"ver", "lux", "ban", "mar", "ter", "nor", "sud", "est", "ovest", "gra",
}

func companyName(r *rand.Rand) string {
	n := 2 + r.Intn(2)
	name := ""
	for i := 0; i < n; i++ {
		name += companySyllables[r.Intn(len(companySyllables))]
	}
	return name + " s.p.a."
}
