package ivm

import (
	"fmt"

	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// seeds is the classification of one committed journal — the one the
// maintainer's applyLocked and the query cache's ReachOf both start from.
// owners holds the owner side of every mutated shareholding edge and every
// removed node, owned the owned side of every mutated shareholding edge and
// every removed node, companies every added or removed company node.
// Everything else (family/control/closelink edges materialized by
// augmentation, added person nodes) cannot move the derived state.
type seeds struct {
	owners, owned, companies map[pg.NodeID]bool
}

// classify builds the seeds of a journal. A malformed mutation (nil node or
// edge) or an unknown kind is an error: nobody can say what it moved.
func classify(muts []pg.Mutation) (seeds, error) {
	s := seeds{owners: map[pg.NodeID]bool{}, owned: map[pg.NodeID]bool{}, companies: map[pg.NodeID]bool{}}
	for _, mut := range muts {
		switch mut.Kind {
		case pg.MutAddNode:
			// A new company seeds iscompany (close-link candidates); a new
			// person with no edges cannot own, control, or link anything.
			if mut.Node == nil {
				return s, fmt.Errorf("ivm: node addition without node")
			}
			if mut.Node.Label == pg.LabelCompany {
				s.companies[mut.Node.ID] = true
			}
		case pg.MutRemoveNode:
			if mut.Node == nil {
				return s, fmt.Errorf("ivm: node removal without node")
			}
			s.owners[mut.Node.ID] = true
			s.owned[mut.Node.ID] = true
			if mut.Node.Label == pg.LabelCompany {
				s.companies[mut.Node.ID] = true
			}
		case pg.MutAddEdge, pg.MutRemoveEdge, pg.MutSetEdgeWeight:
			if mut.Edge == nil {
				return s, fmt.Errorf("ivm: edge mutation without edge")
			}
			if mut.Edge.Label == pg.LabelShareholding {
				s.owners[mut.Edge.From] = true
				s.owned[mut.Edge.To] = true
			}
		default:
			return s, fmt.Errorf("ivm: unknown mutation kind %d", mut.Kind)
		}
	}
	return s, nil
}

// Reach is what one committed journal can move in the derived relations
// (control, accown, closeLink), as the query cache needs to know it.
//
// Up is the reverse shareholding reachability, over the post-commit view, of
// the owner side of every mutated shareholding edge and every removed node:
// every source whose control/accown rows may have moved. Down is the forward
// reachability of the owned side: every target whose incoming rows may have
// moved. An answer about (x, y) reads only edges on paths from x to y, so it
// cannot have moved unless x ∈ Up and y ∈ Down. The post view alone
// suffices, in both directions: a pre-commit path that the post view lacks
// contains a mutated edge, and the part of the path on the anchor's side of
// the mutated edge nearest that anchor survives (DESIGN.md §12.1, §13.3).
type Reach struct {
	relevant bool
	all      bool // malformed journal: assume it moved everything
	up, down map[pg.NodeID]bool
}

// ReachOf classifies one committed journal against post, the view it
// produced. A journal the maintainer would skip (no shareholding mutation, no
// node removal, no company churn) reaches nothing; a malformed one reaches
// everything, so a cache never outlives a journal the maintainer would have
// failed on.
func ReachOf(post pg.View, muts []pg.Mutation) Reach {
	s, err := classify(muts)
	switch {
	case err != nil:
		return Reach{relevant: true, all: true}
	case len(s.owners) == 0 && len(s.companies) == 0:
		return Reach{}
	}
	return Reach{
		relevant: true,
		up:       whatif.ReverseReachable(s.owners, post),
		down:     forwardClosure(post, s.owned),
	}
}

// Relevant reports whether the journal can move any derived relation at all.
func (r Reach) Relevant() bool { return r.relevant }

// Up reports whether the journal can move an answer anchored at source x.
func (r Reach) Up(x pg.NodeID) bool { return r.all || r.up[x] }

// Down reports whether the journal can move an answer anchored at target y.
func (r Reach) Down(y pg.NodeID) bool { return r.all || r.down[y] }
