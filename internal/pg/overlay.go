package pg

import "slices"

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
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base View) *Overlay {
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
// not be journaled. Its one reason to stay is the benchmark harness, which
// takes two results (bench/follower.go; ROADMAP item 1 (i)).
func (o *Overlay) Journal() ([]Mutation, error) {
	return o.journal, nil
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
// IDs are all greater than base IDs, so the sorted added IDs follow the
// base's.
func (o *Overlay) Nodes() []NodeID {
	return merge(o.base.Nodes(), o.removedNodes, sortedKeys(o.addedNodes))
}

// Edges returns all visible edge IDs in ascending order.
func (o *Overlay) Edges() []EdgeID {
	return merge(o.base.Edges(), o.removedEdges, sortedKeys(o.addedEdges))
}

// NodesWithLabel returns the visible nodes carrying the label, in insertion
// order (base insertions first, then overlay insertions).
func (o *Overlay) NodesWithLabel(label Label) []NodeID {
	return merge(o.base.NodesWithLabel(label), o.removedNodes, o.byNodeLabel[label])
}

// EdgesWithLabel returns the visible edges carrying the label, in insertion
// order. Weight edits do not change labels, so the base's label index stays
// authoritative for base edges.
func (o *Overlay) EdgesWithLabel(label Label) []EdgeID {
	return merge(o.base.EdgesWithLabel(label), o.removedEdges, o.byEdgeLabel[label])
}

// Out returns the outgoing edge IDs of a node. A removed node's base edges
// were all removed before it, so the merge leaves none.
func (o *Overlay) Out(id NodeID) []EdgeID { return merge(o.base.Out(id), o.removedEdges, o.out[id]) }

// In returns the incoming edge IDs of a node.
func (o *Overlay) In(id NodeID) []EdgeID { return merge(o.base.In(id), o.removedEdges, o.in[id]) }

// merge is the overlay's one read rule: the base's IDs less the removed
// ones, then the overlay's own. With nothing removed or added it returns
// base itself.
func merge[ID comparable](base []ID, removed map[ID]bool, own []ID) []ID {
	if len(removed) == 0 && len(own) == 0 {
		return base
	}
	ids := make([]ID, 0, len(base)+len(own))
	for _, id := range base {
		if !removed[id] {
			ids = append(ids, id)
		}
	}
	return append(ids, own...)
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[ID ~int64, T any](m map[ID]T) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// OutLabel returns the outgoing edges of n restricted to one label.
func (o *Overlay) OutLabel(n NodeID, label Label) []*Edge { return outLabel(o, n, label) }

// InLabel returns the incoming edges of n restricted to one label.
func (o *Overlay) InLabel(n NodeID, label Label) []*Edge { return inLabel(o, n, label) }

// HasEdge reports whether a visible edge with the given label exists
// from → to.
func (o *Overlay) HasEdge(label Label, from, to NodeID) bool { return hasEdge(o, label, from, to) }

// NextNodeID returns the identifier the next AddNode will assign.
func (o *Overlay) NextNodeID() NodeID { return o.nextNode }

// NextEdgeID returns the identifier the next AddEdge will assign.
func (o *Overlay) NextEdgeID() EdgeID { return o.nextEdge }

// --- Mutable ---

// AddNode inserts a node into the overlay and returns its ID. The base is
// untouched. Like Graph.AddNode, it panics on a property value outside the
// four kinds.
func (o *Overlay) AddNode(label Label, props PropSource) NodeID { return addNode(o, label, props) }

// AddEdge inserts a directed edge from → to into the overlay and returns
// its ID. It refuses what Graph.AddEdge refuses; both endpoints must be
// visible in the composite view.
func (o *Overlay) AddEdge(label Label, from, to NodeID, props PropSource) (EdgeID, error) {
	return addEdge(o, label, from, to, props)
}

// MustAddEdge is AddEdge that panics on error.
func (o *Overlay) MustAddEdge(label Label, from, to NodeID, props PropSource) EdgeID {
	return mustAddEdge(o, label, from, to, props)
}

// AddShare inserts a Shareholding edge with weight w.
func (o *Overlay) AddShare(from, to NodeID, w float64) (EdgeID, error) {
	return addShare(o, from, to, w)
}

// RemoveEdge hides a base edge or deletes an overlay-added one. Removing a
// missing edge is a no-op returning false.
func (o *Overlay) RemoveEdge(id EdgeID) bool { return removeEdge(o, id) }

// SetEdgeWeight overrides the shareholding weight of a visible edge,
// copy-on-write, and journals a MutSetEdgeWeight. It refuses what
// Graph.SetEdgeWeight refuses.
func (o *Overlay) SetEdgeWeight(id EdgeID, w float64) error { return setEdgeWeight(o, id, w) }

// RemoveNode hides a visible node and all its visible incident edges, in
// the order Graph.RemoveNode fires its hooks: the incident-edge removals
// journal first, then the bare MutRemoveNode, so replaying the journal
// reproduces the stream. Removing a missing node is a no-op returning false.
func (o *Overlay) RemoveNode(id NodeID) bool { return removeNode(o, id) }

// Replay is the overlay's one mutator, as Graph.Replay is the graph's: it
// refuses, before the overlay moves, exactly what Graph.Replay refuses (see
// check), applies the rest to the overlay alone and journals it. So a burst
// of records the writer master applied replays onto an overlay of the
// version before it: that is how a store version publishes them. The
// overlay holds an add's own Node or Edge, and every weight edit builds a
// new Edge, whether the edge came from the base or the overlay added it, so
// each journal entry keeps the weight it was written with. It returns the
// mutation as journaled, pointing at the overlay's own structs.
func (o *Overlay) Replay(m Mutation) (Mutation, error) {
	if err := check(o, m); err != nil {
		return Mutation{}, err
	}
	switch m.Kind {
	case MutAddNode:
		n := m.Node
		o.nextNode++
		o.addedNodes[n.ID] = n
		o.byNodeLabel[n.Label] = append(o.byNodeLabel[n.Label], n.ID)
	case MutAddEdge:
		e := m.Edge
		o.nextEdge++
		o.addedEdges[e.ID] = e
		o.out[e.From] = append(o.out[e.From], e.ID)
		o.in[e.To] = append(o.in[e.To], e.ID)
		o.byEdgeLabel[e.Label] = append(o.byEdgeLabel[e.Label], e.ID)
	case MutRemoveEdge:
		e := o.Edge(m.Edge.ID)
		if _, added := o.addedEdges[e.ID]; added {
			delete(o.addedEdges, e.ID)
			o.out[e.From] = removeID(o.out[e.From], e.ID)
			o.in[e.To] = removeID(o.in[e.To], e.ID)
			o.byEdgeLabel[e.Label] = removeID(o.byEdgeLabel[e.Label], e.ID)
		} else {
			o.removedEdges[e.ID] = true
			delete(o.editedEdges, e.ID)
		}
		m.Edge = e
	case MutSetEdgeWeight:
		w, _ := m.Edge.Weight()
		e := o.Edge(m.Edge.ID).withWeight(w)
		if _, added := o.addedEdges[e.ID]; added {
			o.addedEdges[e.ID] = e
		} else {
			o.editedEdges[e.ID] = e
		}
		m.Edge = e
	default: // MutRemoveNode
		n := o.Node(m.Node.ID)
		if _, added := o.addedNodes[n.ID]; added {
			delete(o.addedNodes, n.ID)
			o.byNodeLabel[n.Label] = removeID(o.byNodeLabel[n.Label], n.ID)
		} else {
			o.removedNodes[n.ID] = true
		}
		m.Node = n
	}
	o.journal = append(o.journal, m)
	return m, nil
}
