package pg

import (
	"fmt"
	"slices"
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
	id := o.nextNode
	// An add at the next ID is never refused.
	o.Replay(Mutation{Kind: MutAddNode, Node: &Node{ID: id, Label: label, Props: nodeRecord(id, props)}})
	return id
}

// AddEdge inserts a directed edge from → to into the overlay and returns
// its ID. It refuses what Graph.AddEdge refuses; both endpoints must be
// visible in the composite view.
func (o *Overlay) AddEdge(label Label, from, to NodeID, props PropSource) (EdgeID, error) {
	rec, err := recordOf(props)
	if err != nil {
		return 0, fmt.Errorf("pg: add edge %d: %w", o.nextEdge, err)
	}
	return o.addEdge(&Edge{ID: o.nextEdge, Label: label, From: from, To: to, Props: rec})
}

// addEdge replays the add of e, which names the next edge ID.
func (o *Overlay) addEdge(e *Edge) (EdgeID, error) {
	if err := o.Replay(Mutation{Kind: MutAddEdge, Edge: e}); err != nil {
		return 0, err
	}
	return e.ID, nil
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
	return o.addEdge(&Edge{ID: o.nextEdge, Label: LabelShareholding, From: from, To: to, Props: weightRecord(w)})
}

// RemoveEdge hides a base edge or deletes an overlay-added one. Removing a
// missing edge is a no-op returning false.
func (o *Overlay) RemoveEdge(id EdgeID) bool {
	e := o.Edge(id)
	if e == nil {
		return false
	}
	o.Replay(Mutation{Kind: MutRemoveEdge, Edge: e}) // a live edge's removal is never refused
	return true
}

// SetEdgeWeight overrides the shareholding weight of a visible edge,
// copy-on-write, and journals a MutSetEdgeWeight. It refuses what
// Graph.SetEdgeWeight refuses.
func (o *Overlay) SetEdgeWeight(id EdgeID, w float64) error {
	return o.Replay(Mutation{Kind: MutSetEdgeWeight, Edge: &Edge{ID: id, Props: weightRecord(w)}})
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
	for _, eid := range append(slices.Clone(o.Out(id)), o.In(id)...) {
		o.RemoveEdge(eid)
	}
	o.Replay(Mutation{Kind: MutRemoveNode, Node: n}) // edge-free now, so never refused
	return true
}

// Replay is the overlay's one mutator, as Graph.Replay is the graph's: it
// refuses, before the overlay moves, exactly what Graph.Replay refuses (see
// check), applies the rest to the overlay alone and journals it. So a burst
// of records the writer master applied replays onto an overlay of the
// version before it: that is how a store version publishes them. The
// overlay holds an add's own Node or Edge, and every weight edit builds a
// new Edge, whether the edge came from the base or the overlay added it, so
// each journal entry keeps the weight it was written with.
func (o *Overlay) Replay(m Mutation) error {
	if err := check(o, m); err != nil {
		return err
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
	return nil
}
