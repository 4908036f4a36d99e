package closelink

import (
	"math"
	"testing"

	"vadalink/internal/pg"
)

func TestAccumulatedSinglePath(t *testing.T) {
	b := pg.NewBuilder()
	b.Company("A")
	b.Company("B")
	b.Company("C")
	b.Own("A", "B", 0.5).Own("B", "C", 0.4)
	g := b.Graph()
	if got := Accumulated(g, b.ID("A"), b.ID("C"), Options{}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Φ(A,C) = %v, want 0.2", got)
	}
}

func TestAccumulatedMultiPath(t *testing.T) {
	// A→B→D (0.5·0.4) and A→C→D (0.3·0.5) and A→D (0.1): Φ = 0.2+0.15+0.1.
	b := pg.NewBuilder()
	for _, c := range []string{"A", "B", "C", "D"} {
		b.Company(c)
	}
	b.Own("A", "B", 0.5).Own("B", "D", 0.4).
		Own("A", "C", 0.3).Own("C", "D", 0.5).
		Own("A", "D", 0.1)
	g := b.Graph()
	if got := Accumulated(g, b.ID("A"), b.ID("D"), Options{}); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("Φ(A,D) = %v, want 0.45", got)
	}
}

func TestAccumulatedSimplePathsOnly(t *testing.T) {
	// Cycle A→B→A plus B→C. Simple paths from A to C: only A→B→C.
	// The cycle must not inflate Φ (Definition 2.5 ranges over simple paths).
	b := pg.NewBuilder()
	for _, c := range []string{"A", "B", "C"} {
		b.Company(c)
	}
	b.Own("A", "B", 0.5).Own("B", "A", 0.5).Own("B", "C", 0.4)
	g := b.Graph()
	if got := Accumulated(g, b.ID("A"), b.ID("C"), Options{}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("Φ(A,C) = %v, want 0.2 (simple paths only)", got)
	}
	// Φ(A,A): no simple path from A back to A except through the cycle,
	// which ends when it would revisit A; per Definition 2.5 the path
	// A→B→A is simple in its intermediate nodes. Our DFS treats a return to
	// the start as a revisit, so Φ(A,A) counts A→B→A.
	if got := Accumulated(g, b.ID("A"), b.ID("A"), Options{}); got != 0 {
		t.Logf("Φ(A,A) = %v (cycle back to start; see package doc)", got)
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	b := pg.NewBuilder()
	b.Company("A")
	b.Company("B")
	b.Own("A", "A", 0.3).Own("A", "B", 0.5)
	g := b.Graph()
	if got := Accumulated(g, b.ID("A"), b.ID("B"), Options{}); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Φ(A,B) = %v, want 0.5 (self-loop is not a simple path)", got)
	}
}

// TestFigure2CloseLinks checks Example 2.7: with t = 0.2, P3 owns 40% of C4
// and 50% of C6 → close link (C4, C6) by condition (iii); Φ(C4, C7) = 0.2
// → close link (C4, C7) by condition (i).
func TestFigure2CloseLinks(t *testing.T) {
	g, b := pg.Figure2()
	if got := Accumulated(g, b.ID("C4"), b.ID("C7"), Options{}); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Φ(C4,C7) = %v, want 0.2", got)
	}
	links := CloseLinks(g, 0.2, Options{})
	has := func(x, y string) bool {
		a, bID := b.ID(x), b.ID(y)
		if bID < a {
			a, bID = bID, a
		}
		for _, l := range links {
			if l.Pair.A == a && l.Pair.B == bID {
				return true
			}
		}
		return false
	}
	if !has("C4", "C6") {
		t.Error("missing close link (C4, C6) via P3 [Def 2.6(iii)]")
	}
	if !has("C4", "C7") {
		t.Error("missing close link (C4, C7) [Def 2.6(i)]")
	}
}

// TestFigure1CloseLinkGI checks the §1 narrative: G and I are closely linked
// since P2 owns more than 20% of both.
func TestFigure1CloseLinkGI(t *testing.T) {
	g, b := pg.Figure1()
	links := CloseLinks(g, 0.2, Options{})
	gID, iID := b.ID("G"), b.ID("I")
	if iID < gID {
		gID, iID = iID, gID
	}
	// The pair qualifies both by condition (iii) through P2 and by condition
	// (i), since Φ(G,I) = 0.6·0.4 = 0.24 ≥ 0.2; either reason is acceptable.
	for _, l := range links {
		if l.Pair.A == gID && l.Pair.B == iID {
			return
		}
	}
	t.Errorf("missing close link (G, I); got %v", links)
}

func TestCloseLinkPairsAreCompaniesOnly(t *testing.T) {
	g, _ := pg.Figure1()
	for _, l := range CloseLinks(g, 0.2, Options{}) {
		if g.Node(l.Pair.A).Label != pg.LabelCompany || g.Node(l.Pair.B).Label != pg.LabelCompany {
			t.Errorf("close-link pair includes a person: %v", l)
		}
	}
}

func TestCloseLinkThresholdBoundary(t *testing.T) {
	// Φ = exactly t counts (Definition 2.6 uses ≥).
	b := pg.NewBuilder()
	b.Company("A")
	b.Company("B")
	b.Own("A", "B", 0.2)
	g := b.Graph()
	links := CloseLinks(g, 0.2, Options{})
	if len(links) != 1 {
		t.Errorf("links = %v, want the exact-threshold pair", links)
	}
	// Just below the threshold: no link.
	b2 := pg.NewBuilder()
	b2.Company("A")
	b2.Company("B")
	b2.Own("A", "B", 0.19999)
	if links := CloseLinks(b2.Graph(), 0.2, Options{}); len(links) != 0 {
		t.Errorf("sub-threshold links = %v, want none", links)
	}
}

func TestPruningBoundsWork(t *testing.T) {
	// A long chain of 0.9 shares: with MaxDepth 3 only 3 hops accumulate.
	b := pg.NewBuilder()
	names := []string{"A", "B", "C", "D", "E"}
	for _, n := range names {
		b.Company(n)
	}
	for i := 0; i+1 < len(names); i++ {
		b.Own(names[i], names[i+1], 0.9)
	}
	g := b.Graph()
	acc := AccumulatedFrom(g, b.ID("A"), Options{MaxDepth: 3})
	if _, ok := acc[b.ID("E")]; ok {
		t.Error("MaxDepth 3 should not reach E (4 hops)")
	}
	if _, ok := acc[b.ID("C")]; !ok {
		t.Error("MaxDepth 3 should reach C (2 hops)")
	}
	// MinProduct pruning: contributions below the bound disappear.
	// Products along the chain: B=0.9, C=0.81, D=0.729.
	acc2 := AccumulatedFrom(g, b.ID("A"), Options{MinProduct: 0.8})
	if _, ok := acc2[b.ID("C")]; !ok {
		t.Error("MinProduct 0.8 should keep C (product 0.81)")
	}
	if _, ok := acc2[b.ID("D")]; ok {
		t.Error("MinProduct 0.8 should prune D (product 0.729)")
	}
}
