package vadalog_test

// Cross-validation of the declarative programs against the imperative
// solvers of internal/control and internal/closelink. Neither solver imports
// vadalog; the external test package keeps these checks on vadalog's
// exported API.

import (
	"testing"

	"vadalink/internal/closelink"
	"vadalink/internal/control"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
)

// TestControlProgramMatchesDirectSolver cross-validates the declarative
// control program against the imperative fixpoint on the paper's Figure 2.
func TestControlProgramMatchesDirectSolver(t *testing.T) {
	g, _ := pg.Figure2()
	r := vadalog.NewReasoner(g, vadalog.TaskControl)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	got := map[[2]pg.NodeID]bool{}
	for _, p := range r.ControlPairs() {
		got[p] = true
	}
	want := map[[2]pg.NodeID]bool{}
	for _, p := range control.AllPairs(g) {
		want[[2]pg.NodeID{p.From, p.To}] = true
	}
	for p := range want {
		if !got[p] {
			t.Errorf("datalog program misses control pair %v→%v (%v→%v)",
				p[0], p[1], g.Node(p[0]).Props.Map()["name"], g.Node(p[1]).Props.Map()["name"])
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("datalog program invents control pair %v→%v", p[0], p[1])
		}
	}
}

// TestCloseLinkProgramAgreesWithDirectSolverOnDAG cross-validates the two
// close-link implementations on an acyclic graph, where their semantics
// coincide exactly.
func TestCloseLinkProgramAgreesWithDirectSolverOnDAG(t *testing.T) {
	g, _ := pg.Figure2()
	r := vadalog.NewReasoner(g, vadalog.TaskCloseLink)
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	direct := closelink.CloseLinks(g, 0.2, closelink.Options{})
	directSet := map[[2]pg.NodeID]bool{}
	for _, l := range direct {
		directSet[[2]pg.NodeID{l.Pair.A, l.Pair.B}] = true
	}
	progSet := map[[2]pg.NodeID]bool{}
	for _, p := range r.CloseLinkPairs() {
		a, b := p[0], p[1]
		if b < a {
			a, b = b, a
		}
		progSet[[2]pg.NodeID{a, b}] = true
	}
	for p := range directSet {
		if !progSet[p] {
			t.Errorf("program misses close link %v", p)
		}
	}
	for p := range progSet {
		if !directSet[p] {
			t.Errorf("program invents close link %v", p)
		}
	}
}
