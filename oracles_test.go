package vadalink_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"vadalink"
	"vadalink/internal/closelink"
	"vadalink/internal/control"
	"vadalink/internal/pg"
)

// oracleSlack brackets a close-link threshold: the served Φ stops a cycle's
// series short of its limit (DESIGN.md §5), so a pair whose witness sits
// that close to t may fall on either side (the benchmark's oracle uses the
// same slack).
const oracleSlack = 1e-3

// The served definitions against the reference solvers on graphgen draws
// (DESIGN.md §5): control pairs equal control.AllPairs on every draw, and on
// acyclic draws, where the walk-sum Φ is Definition 2.5's simple-path sum,
// the close links equal closelink.CloseLinks in pair, reason and via, except
// pairs with a witness within oracleSlack of t.
func TestServedDefinitionsMatchTheOracles(t *testing.T) {
	var draws []*vadalink.Graph
	for seed := int64(1); seed <= 6; seed++ {
		draws = append(draws,
			vadalink.NewItalian(vadalink.ItalianConfig{Persons: 30, Companies: 60, Seed: seed}).Graph,
			vadalink.Barabasi(80, 3, seed))
	}
	acyclic, compared := 0, 0
	for i, g := range draws {
		want := fmt.Sprint(control.AllPairs(g))
		var got []control.Pair
		for _, p := range vadalink.AllControlPairs(g) {
			got = append(got, control.Pair{From: p.From, To: p.To})
		}
		if fmt.Sprint(got) != want {
			t.Errorf("draw %d: facade control pairs %v, control.AllPairs %v", i, got, want)
		}

		if vadalink.Stats(g).SCCCount != g.NumNodes() {
			continue
		}
		acyclic++
		phi := map[pg.NodeID]map[pg.NodeID]float64{}
		for _, z := range g.Nodes() {
			phi[z] = closelink.AccumulatedFrom(g, z)
		}
		for _, th := range []float64{0.1, 0.2, 0.3} {
			// near holds every node some source holds within the slack of th.
			near := map[pg.NodeID]bool{}
			for _, acc := range phi {
				for y, v := range acc {
					if math.Abs(v-th) < oracleSlack {
						near[y] = true
					}
				}
			}
			links, err := vadalink.CloseLinks(g, th)
			if err != nil {
				t.Fatal(err)
			}
			served := map[[2]pg.NodeID]vadalink.CloseLinkResult{}
			for _, l := range links {
				if !near[l.A] && !near[l.B] {
					served[[2]pg.NodeID{l.A, l.B}] = l
				}
			}
			oracle := map[[2]pg.NodeID]vadalink.CloseLinkResult{}
			for _, l := range closelink.CloseLinks(g, th, closelink.Options{}) {
				if near[l.Pair.A] || near[l.Pair.B] {
					continue
				}
				reason := "common-owner"
				if l.Reason == closelink.ReasonDirect {
					reason = "direct"
				}
				oracle[[2]pg.NodeID{l.Pair.A, l.Pair.B}] = vadalink.CloseLinkResult{A: l.Pair.A, B: l.Pair.B, Reason: reason, Via: l.Via}
			}
			if !reflect.DeepEqual(served, oracle) {
				t.Errorf("draw %d, t = %v: served close links %v, closelink.CloseLinks %v", i, th, served, oracle)
			}
			compared += len(oracle)
		}
	}
	if acyclic < len(draws)/2 || compared == 0 {
		t.Fatalf("%d of %d draws acyclic, %d links compared: the differential is vacuous", acyclic, len(draws), compared)
	}
	t.Logf("%d draws, %d acyclic, %d close links compared", len(draws), acyclic, compared)
}
