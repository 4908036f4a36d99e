package pg

import (
	"fmt"
	"sort"
)

// Overlay is a copy-on-write delta stacked on a base View. Reads see the
// base plus the overlay's added nodes/edges, minus its removals, with
// weight edits substituted — without copying the base. Writes touch only
// the overlay; the base is never mutated and its mutation hook never fires.
//
// Identifier discipline: the overlay assigns node and edge IDs continuing
// from the base's NextNodeID/NextEdgeID counters, so an overlay journal
// replayed onto a graph equal to the base reproduces identical IDs — the
// property the MVCC store's commit path relies on.
//
// Overlays stack: the base may itself be an *Overlay, forming a version
// chain. An overlay is not safe for concurrent mutation; once frozen
// (published as a store version) concurrent reads are safe.
type Overlay struct {
	base View

	addedNodes map[NodeID]*Node
	addedEdges map[EdgeID]*Edge

	// removedNodes and removedEdges hold only base-visible IDs; removing an
	// overlay-added element deletes it from the added maps instead, keeping
	// NumNodes/NumEdges a pure arithmetic of map sizes.
	removedNodes map[NodeID]bool
	removedEdges map[EdgeID]bool

	// editedEdges substitutes a copy-on-write Edge for a base-visible edge
	// (weight edits). Label, endpoints and ID are unchanged.
	editedEdges map[EdgeID]*Edge

	nextNode NodeID
	nextEdge EdgeID

	out, in     map[NodeID][]EdgeID // adjacency of added edges only
	byNodeLabel map[Label][]NodeID
	byEdgeLabel map[Label][]EdgeID

	journal []Mutation // all ops, in application order
	depth   int
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base View) *Overlay {
	depth := 1
	if o, ok := base.(*Overlay); ok {
		depth = o.depth + 1
	}
	return &Overlay{
		base:         base,
		addedNodes:   map[NodeID]*Node{},
		addedEdges:   map[EdgeID]*Edge{},
		removedNodes: map[NodeID]bool{},
		removedEdges: map[EdgeID]bool{},
		editedEdges:  map[EdgeID]*Edge{},
		nextNode:     base.NextNodeID(),
		nextEdge:     base.NextEdgeID(),
		out:          map[NodeID][]EdgeID{},
		in:           map[NodeID][]EdgeID{},
		byNodeLabel:  map[Label][]NodeID{},
		byEdgeLabel:  map[Label][]EdgeID{},
		depth:        depth,
	}
}

// Delta summarizes an overlay's changes against its base.
type Delta struct {
	AddedNodes   int `json:"addedNodes"`
	AddedEdges   int `json:"addedEdges"`
	RemovedNodes int `json:"removedNodes"`
	RemovedEdges int `json:"removedEdges"`
	EditedEdges  int `json:"editedEdges"`
}

// Delta reports the overlay's change counts.
func (o *Overlay) Delta() Delta {
	return Delta{
		AddedNodes:   len(o.addedNodes),
		AddedEdges:   len(o.addedEdges),
		RemovedNodes: len(o.removedNodes),
		RemovedEdges: len(o.removedEdges),
		EditedEdges:  len(o.editedEdges),
	}
}

// Journal returns the overlay's mutations in application order, ready to be
// replayed onto a graph equal to the base. Every overlay operation — adds,
// removals, weight edits, node removals — has a Mutation encoding, so any
// overlay is committable. The returned slice is the overlay's own; callers
// must not mutate it or the pointed-to nodes and edges.
//
// The error return is always nil; it survives from the era when weight edits
// and node removals were what-if-only and an overlay containing one could
// not be journaled. Kept so the many call sites compile unchanged.
func (o *Overlay) Journal() ([]Mutation, error) {
	return o.journal, nil
}

// Replay applies a recorded mutation onto the overlay. It refuses, before
// the overlay moves, exactly what Graph.Replay refuses (see replayable), so
// a burst of records the writer master applied replays onto an overlay of
// the version before it: that is how a store version publishes them. The
// overlay holds the mutation's records, as Graph.Replay does.
func (o *Overlay) Replay(m Mutation) error {
	if err := replayable(o, m); err != nil {
		return err
	}
	var err error
	switch m.Kind {
	case MutAddNode:
		o.AddNode(m.Node.Label, m.Node.Props)
	case MutAddEdge:
		_, err = o.AddEdge(m.Edge.Label, m.Edge.From, m.Edge.To, m.Edge.Props)
	case MutRemoveEdge:
		o.RemoveEdge(m.Edge.ID)
	case MutSetEdgeWeight:
		w, _ := m.Edge.Weight()
		err = o.SetEdgeWeight(m.Edge.ID, w)
	default: // MutRemoveNode
		o.RemoveNode(m.Node.ID)
	}
	return err
}

// --- View ---

// Node returns the visible node with the given ID, or nil.
func (o *Overlay) Node(id NodeID) *Node {
	if o.removedNodes[id] {
		return nil
	}
	if n, ok := o.addedNodes[id]; ok {
		return n
	}
	return o.base.Node(id)
}

// Edge returns the visible edge with the given ID, or nil.
func (o *Overlay) Edge(id EdgeID) *Edge {
	if o.removedEdges[id] {
		return nil
	}
	if e, ok := o.editedEdges[id]; ok {
		return e
	}
	if e, ok := o.addedEdges[id]; ok {
		return e
	}
	return o.base.Edge(id)
}

// NumNodes reports the number of visible nodes.
func (o *Overlay) NumNodes() int {
	return o.base.NumNodes() - len(o.removedNodes) + len(o.addedNodes)
}

// NumEdges reports the number of visible edges.
func (o *Overlay) NumEdges() int {
	return o.base.NumEdges() - len(o.removedEdges) + len(o.addedEdges)
}

// Nodes returns all visible node IDs in ascending order. Overlay-assigned
// IDs are all greater than base IDs, so the merge is a filter + append.
func (o *Overlay) Nodes() []NodeID {
	base := o.base.Nodes()
	ids := make([]NodeID, 0, len(base)+len(o.addedNodes))
	if len(o.removedNodes) == 0 {
		ids = append(ids, base...)
	} else {
		for _, id := range base {
			if !o.removedNodes[id] {
				ids = append(ids, id)
			}
		}
	}
	own := make([]NodeID, 0, len(o.addedNodes))
	for id := range o.addedNodes {
		own = append(own, id)
	}
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	return append(ids, own...)
}

// Edges returns all visible edge IDs in ascending order.
func (o *Overlay) Edges() []EdgeID {
	base := o.base.Edges()
	ids := make([]EdgeID, 0, len(base)+len(o.addedEdges))
	if len(o.removedEdges) == 0 {
		ids = append(ids, base...)
	} else {
		for _, id := range base {
			if !o.removedEdges[id] {
				ids = append(ids, id)
			}
		}
	}
	own := make([]EdgeID, 0, len(o.addedEdges))
	for id := range o.addedEdges {
		own = append(own, id)
	}
	sort.Slice(own, func(i, j int) bool { return own[i] < own[j] })
	return append(ids, own...)
}

// NodesWithLabel returns the visible nodes carrying the label, in insertion
// order (base insertions first, then overlay insertions).
func (o *Overlay) NodesWithLabel(label Label) []NodeID {
	base := o.base.NodesWithLabel(label)
	if len(o.removedNodes) > 0 {
		kept := base[:0]
		for _, id := range base {
			if !o.removedNodes[id] {
				kept = append(kept, id)
			}
		}
		base = kept
	}
	return append(base, o.byNodeLabel[label]...)
}

// EdgesWithLabel returns the visible edges carrying the label, in insertion
// order. Weight edits do not change labels, so the base's label index stays
// authoritative for base edges.
func (o *Overlay) EdgesWithLabel(label Label) []EdgeID {
	base := o.base.EdgesWithLabel(label)
	if len(o.removedEdges) > 0 {
		kept := base[:0]
		for _, id := range base {
			if !o.removedEdges[id] {
				kept = append(kept, id)
			}
		}
		base = kept
	}
	return append(base, o.byEdgeLabel[label]...)
}

// Out returns the outgoing edge IDs of a node.
func (o *Overlay) Out(id NodeID) []EdgeID {
	if o.removedNodes[id] {
		return nil
	}
	base := o.base.Out(id)
	own := o.out[id]
	if len(o.removedEdges) == 0 && len(own) == 0 {
		return base
	}
	ids := make([]EdgeID, 0, len(base)+len(own))
	for _, eid := range base {
		if !o.removedEdges[eid] {
			ids = append(ids, eid)
		}
	}
	return append(ids, own...)
}

// In returns the incoming edge IDs of a node.
func (o *Overlay) In(id NodeID) []EdgeID {
	if o.removedNodes[id] {
		return nil
	}
	base := o.base.In(id)
	own := o.in[id]
	if len(o.removedEdges) == 0 && len(own) == 0 {
		return base
	}
	ids := make([]EdgeID, 0, len(base)+len(own))
	for _, eid := range base {
		if !o.removedEdges[eid] {
			ids = append(ids, eid)
		}
	}
	return append(ids, own...)
}

// OutLabel returns the outgoing edges of n restricted to one label.
func (o *Overlay) OutLabel(n NodeID, label Label) []*Edge {
	if o.removedNodes[n] {
		return nil
	}
	own := o.out[n]
	if len(o.removedEdges) == 0 && len(o.editedEdges) == 0 && len(own) == 0 {
		return o.base.OutLabel(n, label)
	}
	var res []*Edge
	for _, eid := range o.base.Out(n) {
		if o.removedEdges[eid] {
			continue
		}
		e := o.base.Edge(eid)
		if edited, ok := o.editedEdges[eid]; ok {
			e = edited
		}
		if e != nil && e.Label == label {
			res = append(res, e)
		}
	}
	for _, eid := range own {
		if e := o.addedEdges[eid]; e != nil && e.Label == label {
			res = append(res, e)
		}
	}
	return res
}

// InLabel returns the incoming edges of n restricted to one label.
func (o *Overlay) InLabel(n NodeID, label Label) []*Edge {
	if o.removedNodes[n] {
		return nil
	}
	own := o.in[n]
	if len(o.removedEdges) == 0 && len(o.editedEdges) == 0 && len(own) == 0 {
		return o.base.InLabel(n, label)
	}
	var res []*Edge
	for _, eid := range o.base.In(n) {
		if o.removedEdges[eid] {
			continue
		}
		e := o.base.Edge(eid)
		if edited, ok := o.editedEdges[eid]; ok {
			e = edited
		}
		if e != nil && e.Label == label {
			res = append(res, e)
		}
	}
	for _, eid := range own {
		if e := o.addedEdges[eid]; e != nil && e.Label == label {
			res = append(res, e)
		}
	}
	return res
}

// HasEdge reports whether a visible edge with the given label exists
// from → to.
func (o *Overlay) HasEdge(label Label, from, to NodeID) bool {
	if o.removedNodes[from] || o.removedNodes[to] {
		return false
	}
	for _, eid := range o.out[from] {
		if e := o.addedEdges[eid]; e != nil && e.Label == label && e.To == to {
			return true
		}
	}
	if len(o.removedEdges) == 0 {
		return o.base.HasEdge(label, from, to)
	}
	for _, eid := range o.base.Out(from) {
		if o.removedEdges[eid] {
			continue
		}
		if e := o.base.Edge(eid); e != nil && e.Label == label && e.To == to {
			return true
		}
	}
	return false
}

// NextNodeID returns the identifier the next AddNode will assign.
func (o *Overlay) NextNodeID() NodeID { return o.nextNode }

// NextEdgeID returns the identifier the next AddEdge will assign.
func (o *Overlay) NextEdgeID() EdgeID { return o.nextEdge }

// --- Mutable ---

// AddNode inserts a node into the overlay and returns its ID. The base is
// untouched. Like Graph.AddNode, it panics on a property value outside the
// four kinds.
func (o *Overlay) AddNode(label Label, props PropSource) NodeID {
	rec := nodeRecord(o.nextNode, props)
	id := o.nextNode
	o.nextNode++
	n := &Node{ID: id, Label: label, Props: rec}
	o.addedNodes[id] = n
	o.byNodeLabel[label] = append(o.byNodeLabel[label], id)
	o.journal = append(o.journal, Mutation{Kind: MutAddNode, Node: n})
	return id
}

// AddEdge inserts a directed edge from → to into the overlay and returns
// its ID. Both endpoints must be visible in the composite view.
func (o *Overlay) AddEdge(label Label, from, to NodeID, props PropSource) (EdgeID, error) {
	if o.Node(from) == nil {
		return 0, fmt.Errorf("pg: add edge: unknown source node %d", from)
	}
	if o.Node(to) == nil {
		return 0, fmt.Errorf("pg: add edge: unknown target node %d", to)
	}
	rec, err := recordOf(props)
	if err != nil {
		return 0, fmt.Errorf("pg: add edge %d: %w", o.nextEdge, err)
	}
	id := o.nextEdge
	o.nextEdge++
	e := &Edge{ID: id, Label: label, From: from, To: to, Props: rec}
	o.addedEdges[id] = e
	o.out[from] = append(o.out[from], id)
	o.in[to] = append(o.in[to], id)
	o.byEdgeLabel[label] = append(o.byEdgeLabel[label], id)
	o.journal = append(o.journal, Mutation{Kind: MutAddEdge, Edge: e})
	return id, nil
}

// MustAddEdge is AddEdge that panics on error.
func (o *Overlay) MustAddEdge(label Label, from, to NodeID, props PropSource) EdgeID {
	id, err := o.AddEdge(label, from, to, props)
	if err != nil {
		panic(err)
	}
	return id
}

// AddShare inserts a Shareholding edge with weight w.
func (o *Overlay) AddShare(from, to NodeID, w float64) (EdgeID, error) {
	return o.AddEdge(LabelShareholding, from, to, weightRecord(w))
}

// RemoveEdge hides a base edge or deletes an overlay-added one. Removing a
// missing edge is a no-op returning false.
func (o *Overlay) RemoveEdge(id EdgeID) bool {
	if e, ok := o.addedEdges[id]; ok {
		delete(o.addedEdges, id)
		o.out[e.From] = removeID(o.out[e.From], id)
		o.in[e.To] = removeID(o.in[e.To], id)
		o.byEdgeLabel[e.Label] = removeID(o.byEdgeLabel[e.Label], id)
		o.journal = append(o.journal, Mutation{Kind: MutRemoveEdge, Edge: e})
		return true
	}
	e := o.Edge(id)
	if e == nil {
		return false
	}
	o.removedEdges[id] = true
	delete(o.editedEdges, id)
	o.journal = append(o.journal, Mutation{Kind: MutRemoveEdge, Edge: e})
	return true
}

// SetEdgeWeight overrides the shareholding weight of a visible edge,
// copy-on-write, and journals a MutSetEdgeWeight. Every edit builds a new
// Edge, whether the edge came from the base or the overlay added it, so each
// journal entry keeps the weight it was written with.
func (o *Overlay) SetEdgeWeight(id EdgeID, w float64) error {
	e := o.Edge(id)
	if e == nil {
		return fmt.Errorf("pg: set weight: unknown edge %d", id)
	}
	if e.Label != LabelShareholding {
		return fmt.Errorf("pg: set weight: edge %d is %s, want Shareholding", id, e.Label)
	}
	if !(w > 0 && w <= 1) {
		return fmt.Errorf("pg: set weight: share amount %v outside (0,1]", w)
	}
	e = e.withWeight(w)
	if _, added := o.addedEdges[id]; added {
		o.addedEdges[id] = e
	} else {
		o.editedEdges[id] = e
	}
	o.journal = append(o.journal, Mutation{Kind: MutSetEdgeWeight, Edge: e})
	return nil
}

// RemoveNode hides a visible node and all its visible incident edges.
// Incident-edge removals journal first (through RemoveEdge), then the bare
// node removal journals as MutRemoveNode — the same order Graph.RemoveNode
// fires its hooks in, so replaying the journal reproduces the stream.
// Removing a missing node is a no-op returning false.
func (o *Overlay) RemoveNode(id NodeID) bool {
	n := o.Node(id)
	if n == nil {
		return false
	}
	incident := append([]EdgeID(nil), o.Out(id)...)
	incident = append(incident, o.In(id)...)
	for _, eid := range incident {
		o.RemoveEdge(eid)
	}
	if _, added := o.addedNodes[id]; added {
		delete(o.addedNodes, id)
		o.byNodeLabel[n.Label] = removeID(o.byNodeLabel[n.Label], id)
	} else {
		o.removedNodes[id] = true
	}
	o.journal = append(o.journal, Mutation{Kind: MutRemoveNode, Node: n})
	return true
}
