package ivm

import (
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// Reach is what one committed journal can move, as the query cache needs to
// know it: the derived relations (control, accown, closeLink) and the
// extensional company/person/own relations goals can be asked over.
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

// ReachOf classifies one committed journal (whatif.Classify, the rule the
// maintainer's step starts from) against post, the view it produced. A
// journal that touches no company, person or own fact reaches nothing; a
// malformed one reaches everything, so a cache never outlives a journal the
// maintainer would have failed on.
func ReachOf(post pg.View, muts []pg.Mutation) Reach {
	s, err := whatif.Classify(muts)
	switch {
	case err != nil:
		return Reach{relevant: true, all: true}
	case !s.Relevant:
		return Reach{}
	}
	return Reach{
		relevant: true,
		up:       whatif.ReverseReachable(s.Owners, post),
		down:     whatif.ForwardReachable(s.Owned, post),
	}
}

// Relevant reports whether the journal touched the company, person or own
// relations at all — a superset of the journals the maintainer does not
// skip, since a node added with no edges moves no derived fact but does move
// goals over company(…), person(…) and ccand(…).
func (r Reach) Relevant() bool { return r.relevant }

// Up reports whether the journal can move an answer anchored at source x.
func (r Reach) Up(x pg.NodeID) bool { return r.all || r.up[x] }

// Down reports whether the journal can move an answer anchored at target y.
func (r Reach) Down(y pg.NodeID) bool { return r.all || r.down[y] }
