package whatif

// The scoped step: one Baseline moved under one journal, whether the journal
// was committed (internal/ivm) or is a scenario's overlay (Evaluate).

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// Seeds is the classification of one journal — the one Advance and the query
// cache's reach (ivm.ReachOf) both start from.
type Seeds struct {
	// Owners holds the owner side of every mutated shareholding edge and
	// every removed node; Owned the owned side of the same mutations.
	Owners, Owned map[pg.NodeID]bool
	// RemovedCompanies holds every company node the journal removed: a
	// withdrawn witness names it as a company though the post view lacks it.
	RemovedCompanies map[pg.NodeID]bool
	// Relevant reports whether the journal touched the company, person or
	// own relations at all: a node added or removed, or a shareholding edge
	// mutated. Everything else (family/control/closelink edges materialized
	// by augmentation) cannot move a derived fact or a goal over them.
	Relevant bool
}

// Classify builds the seeds of a journal. A malformed mutation (nil node or
// edge) or an unknown kind is an error: nobody can say what it moved.
func Classify(muts []pg.Mutation) (Seeds, error) {
	s := Seeds{Owners: map[pg.NodeID]bool{}, Owned: map[pg.NodeID]bool{}, RemovedCompanies: map[pg.NodeID]bool{}}
	for _, mut := range muts {
		switch mut.Kind {
		case pg.MutAddNode:
			// A new node has no edges of its own: it moves only the extensional
			// company/person relation, until an edge mutation seeds it.
			if mut.Node == nil {
				return s, fmt.Errorf("whatif: node addition without node")
			}
			s.Relevant = true
		case pg.MutRemoveNode:
			if mut.Node == nil {
				return s, fmt.Errorf("whatif: node removal without node")
			}
			s.Relevant = true
			s.Owners[mut.Node.ID] = true
			s.Owned[mut.Node.ID] = true
			if mut.Node.Label == pg.LabelCompany {
				s.RemovedCompanies[mut.Node.ID] = true
			}
		case pg.MutAddEdge, pg.MutRemoveEdge, pg.MutSetEdgeWeight:
			if mut.Edge == nil {
				return s, fmt.Errorf("whatif: edge mutation without edge")
			}
			if mut.Edge.Label == pg.LabelShareholding {
				s.Relevant = true
				s.Owners[mut.Edge.From] = true
				s.Owned[mut.Edge.To] = true
			}
		default:
			return s, fmt.Errorf("whatif: unknown mutation kind %d", mut.Kind)
		}
	}
	return s, nil
}

// Step reports what one Advance moved. Affected is 0 exactly when the
// journal had no owner seeds and the baseline carried over unchanged.
type Step struct {
	// Affected is the number of sources re-derived.
	Affected int
	// The derived-pair changes, sorted; close-link pairs canonicalized.
	ControlGained, ControlLost     []Pair
	CloseLinkGained, CloseLinkLost []Pair
}

// change is what one journal moves in a baseline: the affected sources'
// re-derived rows and the new witness counts of the close-link pairs their
// witnesses touch. It is read from the parent by key and costs the cone, not
// the registry.
type change struct {
	Step
	affected map[pg.NodeID]bool
	// control and accown hold the affected sources' new rows; a source
	// without rows is absent.
	control map[pg.NodeID][]pg.NodeID
	accown  map[pg.NodeID][]datalog.Fact
	// closeLink holds the new witness count of every pair whose count moved;
	// 0 means the pair is gone.
	closeLink map[Pair]int32
}

// Advance returns the successor of b under journal, the exact, ordered
// mutations that produced post from b's view. It reads b and never mutates
// it: diff computes what moved, and splice copies b with the affected
// sources' rows and the touched pairs' counts overwritten. With no owner
// seeds b itself is returned.
func (b *Baseline) Advance(ctx context.Context, post pg.View, journal []pg.Mutation, opts ...datalog.Option) (*Baseline, Step, error) {
	c, err := b.diff(ctx, post, journal, opts)
	if err != nil {
		return nil, Step{}, err
	}
	if c.Affected == 0 {
		return b, Step{}, nil
	}
	return b.splice(c), c.Step, nil
}

// diff computes what journal moves in b, reading b by key only.
//
//  1. Classify the journal. With no owner seeds nothing derived moves (a new
//     company has no witnesses until an edge names it): the change is empty.
//  2. affected: the reverse reach of the owner seeds over post — every
//     source whose control/accown rows may have moved.
//  3. The cone: the forward reach of affected, every row the chase reads.
//  4. Chase vadalog.Maintenance over the cone, seeding the untouched rows of
//     cone sources that are not affected.
//  5. Compare each affected source's new control row with its old one.
//  6. Re-count the close links: each affected source withdraws its old
//     witnesses and gives its new ones; a touched pair's new count is its
//     old one plus that local delta.
func (b *Baseline) diff(ctx context.Context, post pg.View, journal []pg.Mutation, opts []datalog.Option) (*change, error) {
	s, err := Classify(journal)
	if err != nil {
		return nil, err
	}
	if len(s.Owners) == 0 {
		return &change{}, nil
	}
	affected := ReverseReachable(s.Owners, post)
	cone := ForwardReachable(affected, post)

	e := vadalog.Maintenance.ScopedEngine(post, affected, cone, opts...)
	for id := range affected {
		e.Assert(datalog.Fact{Pred: "affected", Args: []any{int64(id)}})
	}
	// A cone source that is not affected reaches no mutated edge: its final
	// rows are exact, and msum's per-contributor maximum makes a final row an
	// exact stand-in for the derivation sequence that produced it.
	for id := range cone {
		if !affected[id] {
			e.AssertAll(b.Accown[id])
		}
	}
	if err := e.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("whatif: scoped chase: %w", err)
	}

	c := &change{
		Step:     Step{Affected: len(affected)},
		affected: affected,
		control:  make(map[pg.NodeID][]pg.NodeID, len(affected)),
		accown:   make(map[pg.NodeID][]datalog.Fact, len(affected)),
	}
	// Every control fact of the scoped chase has an affected source (the
	// affected(X) guard seeds ccand), so only affected rows can move.
	for _, f := range e.Facts("control") {
		if p, ok := pairOf(f); ok {
			c.control[p[0]] = append(c.control[p[0]], p[1])
		}
	}
	for src := range affected {
		before, after := b.Control[src], c.control[src]
		slices.Sort(after)
		for _, y := range after {
			if _, ok := slices.BinarySearch(before, y); !ok {
				c.ControlGained = append(c.ControlGained, Pair{src, y})
			}
		}
		for _, y := range before {
			if _, ok := slices.BinarySearch(after, y); !ok {
				c.ControlLost = append(c.ControlLost, Pair{src, y})
			}
		}
	}
	// Only the affected sources' rows are read: the seeded rows of the other
	// cone sources are the parent's, unchanged.
	srcs := make([]any, 0, len(affected))
	for src := range affected {
		srcs = append(srcs, int64(src))
	}
	for _, f := range e.FactsAt("accown", 0, srcs) {
		src, _ := relstore.NodeID(f.Args[0])
		c.accown[src] = append(c.accown[src], f)
	}

	// Witnesses of an unaffected source cannot have moved: its rows are the
	// same, and so are its targets' labels (labels never change, and a
	// company added or removed sits at the end of a mutated edge, which makes
	// every source holding it affected). A withdrawn witness is read as it was
	// given: node IDs are never reused, so "was a company" is "is one in post,
	// or the journal removed it as one".
	was := func(id pg.NodeID) bool { return s.RemovedCompanies[id] || isCompany(post, id) }
	now := func(id pg.NodeID) bool { return isCompany(post, id) }
	delta := map[Pair]int32{}
	for src := range affected {
		witnesses(src, b.Accown[src], b.Threshold, was, func(p Pair) { delta[p]-- })
		witnesses(src, c.accown[src], b.Threshold, now, func(p Pair) { delta[p]++ })
	}
	// delta becomes the new counts in place: ranging over a map may delete
	// and overwrite the entry it is at.
	for p, d := range delta {
		if d == 0 {
			delete(delta, p)
			continue
		}
		before := b.CloseLink[p]
		n := before + d
		if n < 0 {
			return nil, fmt.Errorf("whatif: close-link pair %v has %d witnesses", p, n)
		}
		delta[p] = n
		switch {
		case n > 0 && before == 0:
			c.CloseLinkGained = append(c.CloseLinkGained, p)
		case n == 0 && before > 0:
			c.CloseLinkLost = append(c.CloseLinkLost, p)
		}
	}
	c.closeLink = delta
	for _, ps := range [][]Pair{c.ControlGained, c.ControlLost, c.CloseLinkGained, c.CloseLinkLost} {
		sortPairs(ps)
	}
	return c, nil
}

// splice returns a copy of b with c's rows and counts written over it. The
// copy is the only O(registry) work of a step, and only a commit pays it.
func (b *Baseline) splice(c *change) *Baseline {
	next := &Baseline{
		Threshold: b.Threshold,
		Control:   maps.Clone(b.Control),
		CloseLink: maps.Clone(b.CloseLink),
		Accown:    maps.Clone(b.Accown),
	}
	for src := range c.affected {
		if row := c.control[src]; len(row) > 0 {
			next.Control[src] = row
		} else {
			delete(next.Control, src)
		}
		if rows := c.accown[src]; len(rows) > 0 {
			next.Accown[src] = rows
		} else {
			delete(next.Accown, src)
		}
	}
	for p, n := range c.closeLink {
		if n > 0 {
			next.CloseLink[p] = n
		} else {
			delete(next.CloseLink, p)
		}
	}
	return next
}

// witnesses calls fn once per close-link witness that source z gives through
// its final accown rows at threshold t (Definition 2.6). Let S be the
// companies z holds at least t of: z witnesses {z, y} for every y in S when
// z is itself a company, and {x, y} for every two distinct x, y in S. A pair
// is a close link iff it has a witness. isCompany decides both ends. Final
// rows suffice because msum only improves: a row crosses t during the chase
// iff its final value does.
func witnesses(z pg.NodeID, rows []datalog.Fact, t float64, isCompany func(pg.NodeID) bool, fn func(Pair)) {
	var strong []pg.NodeID
	for _, f := range rows {
		if len(f.Args) != 3 {
			continue
		}
		y, ok := relstore.NodeID(f.Args[1])
		w, okW := f.Args[2].(float64)
		if ok && okW && w >= t && isCompany(y) {
			strong = append(strong, y)
		}
	}
	direct := isCompany(z)
	for i, x := range strong {
		if direct {
			fn(canonical(z, x))
		}
		for _, y := range strong[i+1:] {
			fn(canonical(x, y))
		}
	}
}
