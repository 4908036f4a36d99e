package whatif

// The scoped step: one Baseline moved under one journal, whether the journal
// was committed (internal/ivm) or is a scenario's overlay (Evaluate).

import (
	"context"
	"fmt"
	"maps"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
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

// Advance returns the successor of b under journal, the exact, ordered
// mutations that produced post from b's view. It reads b and never mutates
// it.
//
//  1. Classify the journal. With no owner seeds nothing derived moves (a new
//     company has no witnesses until an edge names it) and b is returned.
//  2. affected: the reverse reach of the owner seeds over post — every
//     source whose control/accown rows may have moved.
//  3. The cone: the forward reach of affected, every row the chase reads.
//  4. Chase MaintenanceProgram over the cone, seeding the untouched rows of
//     cone sources that are not affected.
//  5. Splice: affected sources' Control and Accown rows are replaced.
//  6. Re-count the close links: each affected source withdraws its old
//     witnesses and gives its new ones.
func (b *Baseline) Advance(ctx context.Context, post pg.View, journal []pg.Mutation, opts ...datalog.Option) (*Baseline, Step, error) {
	s, err := Classify(journal)
	if err != nil {
		return nil, Step{}, err
	}
	if len(s.Owners) == 0 {
		return b, Step{}, nil
	}
	affected := ReverseReachable(s.Owners, post)
	cone := ForwardReachable(affected, post)

	plan, err := maintenancePlan()
	if err != nil {
		return nil, Step{}, fmt.Errorf("whatif: compiling maintenance program: %w", err)
	}
	e := plan.NewEngine(withWhatIfDefaults(opts)...)
	for id := range affected {
		e.Assert(datalog.Fact{Pred: "affected", Args: []any{int64(id)}})
		if f, ok := relstore.NodeFact(post, id); ok {
			e.Assert(f)
		}
	}
	// A cone source that is not affected reaches no mutated edge: its final
	// rows are exact, and msum's per-contributor maximum makes a final row an
	// exact stand-in for the derivation sequence that produced it.
	for id := range cone {
		e.AssertAll(relstore.OwnFacts(post, id))
		if !affected[id] {
			e.AssertAll(b.Accown[id])
		}
	}
	if err := e.RunContext(ctx); err != nil {
		return nil, Step{}, fmt.Errorf("whatif: scoped chase: %w", err)
	}

	next := &Baseline{Threshold: b.Threshold, Accown: make(map[pg.NodeID][]datalog.Fact, len(b.Accown))}
	st := Step{Affected: len(affected)}

	// Every control fact of the scoped chase has an affected source (the
	// affected(X) guard seeds ccand), so unaffected rows carry over verbatim.
	next.Control = make(map[Pair]bool, len(b.Control))
	var dropped []Pair
	for p := range b.Control {
		if affected[p[0]] {
			dropped = append(dropped, p)
		} else {
			next.Control[p] = true
		}
	}
	for _, f := range e.Facts("control") {
		if p, ok := pairOf(f); ok {
			next.Control[p] = true
			if !b.Control[p] {
				st.ControlGained = append(st.ControlGained, p)
			}
		}
	}
	for _, p := range dropped {
		if !next.Control[p] {
			st.ControlLost = append(st.ControlLost, p)
		}
	}

	for src, rows := range b.Accown {
		if !affected[src] {
			next.Accown[src] = rows
		}
	}
	for _, f := range e.MaxByGroup("accown", 2, 0, 1) {
		if src, ok := relstore.NodeID(f.Args[0]); ok && affected[src] {
			next.Accown[src] = append(next.Accown[src], f)
		}
	}

	// Witnesses of an unaffected source cannot have moved: its rows are the
	// same, and so are its targets' labels (labels never change, and a
	// company added or removed sits at the end of a mutated edge, which makes
	// every source holding it affected). A withdrawn witness is read as it was
	// given: node IDs are never reused, so "was a company" is "is one in post,
	// or the journal removed it as one".
	was := func(id pg.NodeID) bool { return s.RemovedCompanies[id] || isCompany(post, id) }
	now := func(id pg.NodeID) bool { return isCompany(post, id) }
	next.CloseLink = maps.Clone(b.CloseLink)
	touched := map[Pair]bool{}
	for src := range affected {
		witnesses(src, b.Accown[src], b.Threshold, was, func(p Pair) { next.CloseLink[p]--; touched[p] = true })
		witnesses(src, next.Accown[src], b.Threshold, now, func(p Pair) { next.CloseLink[p]++; touched[p] = true })
	}
	for p := range touched {
		n := next.CloseLink[p]
		if n < 0 {
			return nil, Step{}, fmt.Errorf("whatif: close-link pair %v has %d witnesses", p, n)
		}
		if n == 0 {
			delete(next.CloseLink, p)
		}
		_, before := b.CloseLink[p]
		switch {
		case n > 0 && !before:
			st.CloseLinkGained = append(st.CloseLinkGained, p)
		case n == 0 && before:
			st.CloseLinkLost = append(st.CloseLinkLost, p)
		}
	}
	for _, ps := range [][]Pair{st.ControlGained, st.ControlLost, st.CloseLinkGained, st.CloseLinkLost} {
		sortPairs(ps)
	}
	return next, st, nil
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
