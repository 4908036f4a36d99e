package whatif

import (
	"context"
	"maps"
	"slices"
	"testing"

	"vadalink/internal/pg"
)

// advance commits fn to an overlay over g and advances bl under its journal,
// checking the successor against the oracle on the flattened result.
func advance(t *testing.T, g pg.View, bl *Baseline, fn func(o *pg.Overlay)) (*Baseline, Step) {
	t.Helper()
	o := pg.NewOverlay(g)
	fn(o)
	journal, _ := o.Journal()
	next, st, err := bl.Advance(context.Background(), o, journal)
	if err != nil {
		t.Fatalf("Advance: %v", err)
	}
	flat, err := pg.Flatten(o)
	if err != nil {
		t.Fatal(err)
	}
	control, closeLink := oracle(t, flat, bl.Threshold)
	diffPairSets(t, "control vs oracle", controlSet(t, next.Control), control)
	diffPairSets(t, "closelink vs oracle", keys(next.CloseLink), closeLink)
	return next, st
}

func baseline(t *testing.T, g pg.View) *Baseline {
	t.Helper()
	bl, err := ComputeBaseline(context.Background(), g, 0)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func wantCounts(t *testing.T, what string, got, want map[Pair]int32) {
	t.Helper()
	if !maps.Equal(got, want) {
		t.Errorf("%s: witness counts %v, want %v", what, got, want)
	}
}

// commonOwnerGraph: company Z holds 30% of X and 40% of Y — two direct
// witnesses ({Z, X}, {Z, Y}) and one common-owner witness ({X, Y}).
func commonOwnerGraph(t *testing.T) (g *pg.Graph, z, x, y pg.NodeID) {
	g = pg.New()
	z = g.AddNode(pg.LabelCompany, nil)
	x = g.AddNode(pg.LabelCompany, nil)
	y = g.AddNode(pg.LabelCompany, nil)
	mustShare(t, g, z, x, 0.3)
	mustShare(t, g, z, y, 0.4)
	return g, z, x, y
}

// TestWitnessRemovedCommonOwnerTarget: removing a company that was a
// common-owner target withdraws both its direct and its common-owner
// witness, though the post view no longer says it was a company.
func TestWitnessRemovedCommonOwnerTarget(t *testing.T) {
	g, z, x, y := commonOwnerGraph(t)
	bl := baseline(t, g)
	wantCounts(t, "baseline", bl.CloseLink, map[Pair]int32{canonical(z, x): 1, canonical(z, y): 1, canonical(x, y): 1})

	next, st := advance(t, g, bl, func(o *pg.Overlay) { o.RemoveNode(y) })
	wantCounts(t, "after removing Y", next.CloseLink, map[Pair]int32{canonical(z, x): 1})
	if want := []Pair{canonical(z, y), canonical(x, y)}; !slices.Equal(st.CloseLinkLost, sorted(want)) || st.CloseLinkGained != nil {
		t.Errorf("close links gained %v lost %v, want lost %v", st.CloseLinkGained, st.CloseLinkLost, sorted(want))
	}
	if len(bl.CloseLink) != 3 {
		t.Errorf("Advance mutated its receiver: %v", bl.CloseLink)
	}
}

// TestWitnessRemovedDirectLinkEnd: removing either end of a direct link
// withdraws the one witness — the owner end as a removed source, the owned
// end as a removed target.
func TestWitnessRemovedDirectLinkEnd(t *testing.T) {
	for _, end := range []string{"owner", "owned"} {
		t.Run(end, func(t *testing.T) {
			g := pg.New()
			a := g.AddNode(pg.LabelCompany, nil)
			b := g.AddNode(pg.LabelCompany, nil)
			mustShare(t, g, a, b, 0.6)
			bl := baseline(t, g)
			wantCounts(t, "baseline", bl.CloseLink, map[Pair]int32{canonical(a, b): 1})
			gone := a
			if end == "owned" {
				gone = b
			}
			next, st := advance(t, g, bl, func(o *pg.Overlay) { o.RemoveNode(gone) })
			wantCounts(t, "after removal", next.CloseLink, map[Pair]int32{})
			if len(st.CloseLinkLost) != 1 || len(st.ControlLost) != 1 {
				t.Errorf("step = %+v, want the link and the control pair lost", st)
			}
		})
	}
}

// TestWitnessPersonCommonOwner: a person gives common-owner witnesses only —
// never a direct one, since a close link joins two companies — and a pair
// with two witnesses survives losing one.
func TestWitnessPersonCommonOwner(t *testing.T) {
	g := pg.New()
	p := g.AddNode(pg.LabelPerson, nil)
	x := g.AddNode(pg.LabelCompany, nil)
	y := g.AddNode(pg.LabelCompany, nil)
	w := g.AddNode(pg.LabelCompany, nil)
	px := mustShare(t, g, p, x, 0.3)
	mustShare(t, g, p, y, 0.3)
	mustShare(t, g, p, w, 0.1) // below the threshold: no witness
	bl := baseline(t, g)
	wantCounts(t, "baseline", bl.CloseLink, map[Pair]int32{canonical(x, y): 1})

	bl, _ = advance(t, g, bl, func(o *pg.Overlay) { o.AddShare(x, y, 0.25) })
	wantCounts(t, "with a direct link too", bl.CloseLink, map[Pair]int32{canonical(x, y): 2})

	o := pg.NewOverlay(g)
	o.AddShare(x, y, 0.25)
	next, st := advance(t, o, bl, func(o *pg.Overlay) { o.RemoveEdge(px) })
	wantCounts(t, "after the person sells X", next.CloseLink, map[Pair]int32{canonical(x, y): 1})
	if st.CloseLinkGained != nil || st.CloseLinkLost != nil {
		t.Errorf("step = %+v, want no close-link change", st)
	}
}

// TestWhatIfRemoveCompany: a what-if removeNode of a company reports every
// link it held as lost, and leaves the baseline as it was.
func TestWhatIfRemoveCompany(t *testing.T) {
	g, z, x, y := commonOwnerGraph(t)
	bl := baseline(t, g)
	ops := []Op{{Op: "removeNode", Node: z}}
	res, err := Evaluate(context.Background(), g, bl, ops, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := sorted([]Pair{canonical(z, x), canonical(z, y), canonical(x, y)})
	if left := successor(t, g, bl, ops).CloseLink; !slices.Equal(res.CloseLinkLost, want) || len(left) != 0 {
		t.Errorf("close links lost %v (left %v), want %v lost and none left", res.CloseLinkLost, left, want)
	}
	if res.AffectedSources != 1 {
		t.Errorf("AffectedSources = %d, want 1 (Z alone)", res.AffectedSources)
	}
	if len(bl.CloseLink) != 3 {
		t.Errorf("Evaluate mutated the baseline: %v", bl.CloseLink)
	}
}

// TestAdvanceWithoutOwnerSeeds: company churn alone moves nothing — the
// baseline carries over — and a malformed journal is an error.
func TestAdvanceWithoutOwnerSeeds(t *testing.T) {
	g, _, _, _ := commonOwnerGraph(t)
	bl := baseline(t, g)
	o := pg.NewOverlay(g)
	o.AddNode(pg.LabelCompany, nil)
	journal, _ := o.Journal()
	next, st, err := bl.Advance(context.Background(), o, journal)
	if err != nil || next != bl || st.Affected != 0 {
		t.Fatalf("Advance = %p, %+v, %v; want the receiver, nothing affected", next, st, err)
	}
	if _, _, err := bl.Advance(context.Background(), g, []pg.Mutation{{Kind: pg.MutRemoveNode}}); err == nil {
		t.Fatal("Advance accepted a node removal without a node")
	}
}

func sorted(ps []Pair) []Pair {
	sortPairs(ps)
	return ps
}
