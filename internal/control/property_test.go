package control

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vadalink/internal/pg"
)

// randomOwnership builds a random ownership graph over n companies and p
// persons, with incoming shares per company normalized to at most 1.
func randomOwnership(r *rand.Rand, companies, persons, edges int) *pg.Graph {
	g := pg.New()
	var all []pg.NodeID
	var comps []pg.NodeID
	for i := 0; i < companies; i++ {
		id := g.AddNode(pg.LabelCompany, nil)
		all = append(all, id)
		comps = append(comps, id)
	}
	for i := 0; i < persons; i++ {
		all = append(all, g.AddNode(pg.LabelPerson, nil))
	}
	incoming := map[pg.NodeID]float64{}
	for i := 0; i < edges; i++ {
		from := all[r.Intn(len(all))]
		to := comps[r.Intn(len(comps))]
		if from == to {
			continue
		}
		room := 1 - incoming[to]
		if room <= 0.01 {
			continue
		}
		w := 0.01 + r.Float64()*(room-0.01)
		incoming[to] += w
		g.MustAddEdge(pg.LabelShareholding, from, to, pg.Properties{pg.WeightProp: w})
	}
	return g
}

// Property: control is transitive — if x controls y and y controls z, then
// x controls z (x's controlled set includes y's whole controlled set, since
// everything y can out-vote, the controlled coalition of x can too).
func TestControlTransitivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomOwnership(r, 15, 5, 40)
		ctrl := map[pg.NodeID]map[pg.NodeID]bool{}
		for _, x := range g.Nodes() {
			set := map[pg.NodeID]bool{}
			for _, y := range Controls(g, x) {
				set[y] = true
			}
			ctrl[x] = set
		}
		for x, xs := range ctrl {
			for y := range xs {
				for z := range ctrl[y] {
					if z != x && !xs[z] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding a shareholding edge never shrinks anyone's controlled
// set (control is monotone in the ownership relation).
func TestControlMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomOwnership(r, 12, 4, 25)
		before := map[pg.NodeID]int{}
		for _, x := range g.Nodes() {
			before[x] = len(Controls(g, x))
		}
		// Add one more valid edge.
		comps := g.NodesWithLabel(pg.LabelCompany)
		from := g.Nodes()[r.Intn(g.NumNodes())]
		to := comps[r.Intn(len(comps))]
		if from != to {
			var in float64
			for _, e := range g.InLabel(to, pg.LabelShareholding) {
				w, _ := e.Weight()
				in += w
			}
			if in < 0.95 {
				g.MustAddEdge(pg.LabelShareholding, from, to,
					pg.Properties{pg.WeightProp: (1 - in) * r.Float64()})
			}
		}
		for _, x := range g.Nodes() {
			if len(Controls(g, x)) < before[x] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: a direct majority always controls (condition (i) of Def 2.3).
func TestDirectMajorityAlwaysControlsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomOwnership(r, 10, 3, 20)
		p := g.AddNode(pg.LabelPerson, nil)
		c := g.AddNode(pg.LabelCompany, nil)
		g.MustAddEdge(pg.LabelShareholding, p, c, pg.Properties{pg.WeightProp: 0.51})
		for _, y := range Controls(g, p) {
			if y == c {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
