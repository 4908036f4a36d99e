package control

import (
	"testing"

	"vadalink/internal/pg"
)

func names(b *pg.Builder, ids []pg.NodeID) map[string]bool {
	g := b.Graph()
	out := map[string]bool{}
	for _, id := range ids {
		out[g.Node(id).Props.Map()["name"].(string)] = true
	}
	return out
}

// TestFigure1Control checks the control relationships narrated in the
// introduction of the paper: P1 controls C, D, E (jointly via D and its own
// 20%) and F (via E and D); P2 controls G, H and I; nobody controls L alone.
func TestFigure1Control(t *testing.T) {
	g, b := pg.Figure1()

	p1 := names(b, Controls(g, b.ID("P1")))
	for _, want := range []string{"C", "D", "E", "F"} {
		if !p1[want] {
			t.Errorf("P1 should control %s; got %v", want, p1)
		}
	}
	if p1["L"] {
		t.Error("P1 alone must not control L")
	}
	if p1["G"] || p1["H"] || p1["I"] {
		t.Errorf("P1 must not control P2's subtree; got %v", p1)
	}

	p2 := names(b, Controls(g, b.ID("P2")))
	for _, want := range []string{"G", "H", "I"} {
		if !p2[want] {
			t.Errorf("P2 should control %s; got %v", want, p2)
		}
	}
	if p2["L"] {
		t.Error("P2 alone must not control L")
	}
}

// TestFigure2Control checks Example 2.4: P1 controls C4 directly; P2
// controls C7 via C5 and C6.
func TestFigure2Control(t *testing.T) {
	g, b := pg.Figure2()

	p1 := names(b, Controls(g, b.ID("P1")))
	if !p1["C4"] {
		t.Errorf("P1 should control C4; got %v", p1)
	}

	p2 := names(b, Controls(g, b.ID("P2")))
	for _, want := range []string{"C5", "C6", "C7"} {
		if !p2[want] {
			t.Errorf("P2 should control %s; got %v", want, p2)
		}
	}

	p3 := names(b, Controls(g, b.ID("P3")))
	if len(p3) != 0 {
		t.Errorf("P3 controls nothing (40%% and 50%% are not majorities); got %v", p3)
	}
}

func TestExactlyHalfIsNotControl(t *testing.T) {
	b := pg.NewBuilder()
	b.Person("P")
	b.Company("C")
	b.Own("P", "C", 0.5)
	g := b.Graph()
	if got := Controls(g, b.ID("P")); len(got) != 0 {
		t.Errorf("50%% exactly must not grant control; got %v", got)
	}
}

func TestJointOwnershipThreshold(t *testing.T) {
	// x controls a (60%); x owns 30% of y, a owns 21% of y → 51% jointly.
	b := pg.NewBuilder()
	b.Person("X")
	b.Company("A")
	b.Company("Y")
	b.Own("X", "A", 0.6).Own("X", "Y", 0.3).Own("A", "Y", 0.21)
	g := b.Graph()
	got := names(b, Controls(g, b.ID("X")))
	if !got["Y"] {
		t.Errorf("X should control Y via joint 51%%; got %v", got)
	}
}

func TestControlChainDeep(t *testing.T) {
	// A chain of 60% ownerships: control propagates the whole way down.
	b := pg.NewBuilder()
	b.Person("P")
	prev := "P"
	for i := 0; i < 20; i++ {
		c := "Co" + string(rune('A'+i))
		b.Company(c)
		b.Own(prev, c, 0.6)
		prev = c
	}
	g := b.Graph()
	if got := Controls(g, b.ID("P")); len(got) != 20 {
		t.Errorf("chain control length = %d, want 20", len(got))
	}
}

func TestSelfLoopDoesNotBlockControl(t *testing.T) {
	// C owns 30% of itself (buy-back); P owns 60% of C: P controls C.
	b := pg.NewBuilder()
	b.Person("P")
	b.Company("C")
	b.Own("P", "C", 0.6).Own("C", "C", 0.3)
	g := b.Graph()
	got := names(b, Controls(g, b.ID("P")))
	if !got["C"] {
		t.Errorf("P should control C despite buy-back self-loop; got %v", got)
	}
}

func TestAllPairsMatchesPerSource(t *testing.T) {
	g, b := pg.Figure2()
	pairs := AllPairs(g)
	byFrom := map[pg.NodeID]map[pg.NodeID]bool{}
	for _, p := range pairs {
		if byFrom[p.From] == nil {
			byFrom[p.From] = map[pg.NodeID]bool{}
		}
		byFrom[p.From][p.To] = true
	}
	for _, x := range g.Nodes() {
		want := Controls(g, x)
		if len(want) != len(byFrom[x]) {
			t.Errorf("AllPairs disagrees with Controls for %v: %v vs %v",
				g.Node(x).Props.Map()["name"], byFrom[x], want)
		}
		for _, y := range want {
			if !byFrom[x][y] {
				t.Errorf("AllPairs missing %v→%v", x, y)
			}
		}
	}
	_ = b
}

func TestUltimateControllers(t *testing.T) {
	g, b := pg.Figure1()
	// L has no single ultimate controller (P1 and P2 only jointly).
	if got := UltimateControllers(g, b.ID("L")); len(got) != 0 {
		t.Errorf("L ultimate controllers = %v, want none", got)
	}
	// F is ultimately controlled by P1 (via D and E).
	got := UltimateControllers(g, b.ID("F"))
	if len(got) != 1 || got[0] != b.ID("P1") {
		t.Errorf("F ultimate controllers = %v, want [P1]", got)
	}
	// I is ultimately controlled by P2.
	got = UltimateControllers(g, b.ID("I"))
	if len(got) != 1 || got[0] != b.ID("P2") {
		t.Errorf("I ultimate controllers = %v, want [P2]", got)
	}
}
