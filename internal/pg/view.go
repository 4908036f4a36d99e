package pg

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// View is the read-only interface of a property graph. Both *Graph and
// *Overlay satisfy it, so every consumer of graph structure — the imperative
// solvers, the relational fact extraction feeding the chase, statistics,
// serialization — can run indifferently against a flat graph, a frozen MVCC
// snapshot, or a what-if overlay stacked on one.
//
// The nodes and edges a View returns, and their Records, are immutable
// and may be shared with other graphs, overlays and versions (see Node):
// callers must not write to them. A change replaces an element; it never
// edits one.
//
// A View obtained from a published store version is frozen: it never changes
// and is safe for unsynchronized concurrent reads. A View of a graph or
// overlay that is still being mutated follows the owning type's rules
// (reads are safe once mutation stops).
type View interface {
	// Node returns the node with the given ID, or nil.
	Node(id NodeID) *Node
	// Edge returns the edge with the given ID, or nil.
	Edge(id EdgeID) *Edge
	// NumNodes reports the number of visible nodes.
	NumNodes() int
	// NumEdges reports the number of visible edges.
	NumEdges() int
	// Nodes returns all visible node IDs in ascending order.
	Nodes() []NodeID
	// Edges returns all visible edge IDs in ascending order.
	Edges() []EdgeID
	// NodesWithLabel returns the visible nodes carrying the label, in
	// insertion order.
	NodesWithLabel(label Label) []NodeID
	// EdgesWithLabel returns the visible edges carrying the label, in
	// insertion order.
	EdgesWithLabel(label Label) []EdgeID
	// Out returns the outgoing edge IDs of a node. Callers must not mutate
	// the returned slice.
	Out(id NodeID) []EdgeID
	// In returns the incoming edge IDs of a node. Callers must not mutate
	// the returned slice.
	In(id NodeID) []EdgeID
	// OutLabel returns the outgoing edges of n restricted to one label.
	OutLabel(n NodeID, label Label) []*Edge
	// InLabel returns the incoming edges of n restricted to one label.
	InLabel(n NodeID, label Label) []*Edge
	// HasEdge reports whether an edge with the given label exists from → to.
	HasEdge(label Label, from, to NodeID) bool
	// NextNodeID returns the identifier the next AddNode would assign.
	NextNodeID() NodeID
	// NextEdgeID returns the identifier the next AddEdge would assign.
	NextEdgeID() EdgeID
}

// Mutable is a property graph that accepts changes: Replay, which applies
// every one, and the additions and edge removals an augmentation writes.
// *Graph and *Overlay satisfy it; the KG-augmentation loop writes through
// this interface so a whole augment can run against an overlay transaction
// instead of the base graph.
type Mutable interface {
	View
	// AddNode inserts a node and returns its ID.
	AddNode(label Label, props PropSource) NodeID
	// AddEdge inserts a directed edge from → to and returns its ID.
	AddEdge(label Label, from, to NodeID, props PropSource) (EdgeID, error)
	// MustAddEdge is AddEdge that panics on error.
	MustAddEdge(label Label, from, to NodeID, props PropSource) EdgeID
	// RemoveEdge deletes an edge, reporting whether it existed.
	RemoveEdge(id EdgeID) bool
	// Replay applies one mutation, or refuses it before anything moves (see
	// check), and returns it as applied.
	Replay(m Mutation) (Mutation, error)
}

var (
	_ Mutable = (*Graph)(nil)
	_ Mutable = (*Overlay)(nil)
)

// The named mutators and the derived reads are written once, here: each is
// a Replay or a read of the View primitives (Edge, Out, In), so a Graph and
// an Overlay differ only in their storage and their Replay. An overlay's
// weight edits and removals reach the derived reads through its Edge and
// Out.

// addNode is AddNode: an add at the next ID, which is never refused. A
// property value outside the four kinds panics, naming the node.
func addNode(g Mutable, label Label, props PropSource) NodeID {
	id := g.NextNodeID()
	rec, err := recordOf(props)
	if err != nil {
		panic(fmt.Errorf("pg: add node %d: %w", id, err))
	}
	g.Replay(Mutation{Kind: MutAddNode, Node: &Node{ID: id, Label: label, Props: rec}})
	return id
}

// addEdge is AddEdge.
func addEdge(g Mutable, label Label, from, to NodeID, props PropSource) (EdgeID, error) {
	rec, err := recordOf(props)
	if err != nil {
		return 0, fmt.Errorf("pg: add edge %d: %w", g.NextEdgeID(), err)
	}
	return replayAdd(g, &Edge{ID: g.NextEdgeID(), Label: label, From: from, To: to, Props: rec})
}

// mustAddEdge is MustAddEdge.
func mustAddEdge(g Mutable, label Label, from, to NodeID, props PropSource) EdgeID {
	id, err := addEdge(g, label, from, to, props)
	if err != nil {
		panic(err)
	}
	return id
}

// addShare is AddShare.
func addShare(g Mutable, from, to NodeID, w float64) (EdgeID, error) {
	return replayAdd(g, &Edge{ID: g.NextEdgeID(), Label: LabelShareholding, From: from, To: to, Props: weightRecord(w)})
}

// replayAdd replays the add of e, which names the next edge ID.
func replayAdd(g Mutable, e *Edge) (EdgeID, error) {
	if _, err := g.Replay(Mutation{Kind: MutAddEdge, Edge: e}); err != nil {
		return 0, err
	}
	return e.ID, nil
}

// removeEdge is RemoveEdge.
func removeEdge(g Mutable, id EdgeID) bool {
	e := g.Edge(id)
	if e == nil {
		return false
	}
	g.Replay(Mutation{Kind: MutRemoveEdge, Edge: e}) // a live edge's removal is never refused
	return true
}

// setEdgeWeight is SetEdgeWeight.
func setEdgeWeight(g Mutable, id EdgeID, w float64) error {
	_, err := g.Replay(Mutation{Kind: MutSetEdgeWeight, Edge: &Edge{ID: id, Props: weightRecord(w)}})
	return err
}

// removeNode is RemoveNode: one record per incident edge, then the bare
// node's.
func removeNode(g Mutable, id NodeID) bool {
	n := g.Node(id)
	if n == nil {
		return false
	}
	// Copy the incident edge IDs: a removal edits the lists we iterate. A
	// self-loop appears in both; removeEdge skips the second, already-removed
	// occurrence.
	for _, eid := range append(slices.Clone(g.Out(id)), g.In(id)...) {
		removeEdge(g, eid)
	}
	g.Replay(Mutation{Kind: MutRemoveNode, Node: n}) // edge-free now, so never refused
	return true
}

// outLabel is OutLabel.
func outLabel(v View, n NodeID, label Label) []*Edge { return withLabel(v, v.Out(n), label) }

// inLabel is InLabel.
func inLabel(v View, n NodeID, label Label) []*Edge { return withLabel(v, v.In(n), label) }

// withLabel returns the edges of ids, as v reads them, that carry the label.
func withLabel(v View, ids []EdgeID, label Label) []*Edge {
	var res []*Edge
	for _, eid := range ids {
		if e := v.Edge(eid); e.Label == label {
			res = append(res, e)
		}
	}
	return res
}

// hasEdge is HasEdge.
func hasEdge(v View, label Label, from, to NodeID) bool {
	for _, eid := range v.Out(from) {
		if e := v.Edge(eid); e.Label == label && e.To == to {
			return true
		}
	}
	return false
}

// Flatten materializes any View into a standalone flat Graph. Node and edge
// identities and the ID counters are preserved, so facts, WAL positions and
// later overlays keyed on the original view stay aligned. For a *Graph it is
// exactly Clone.
func Flatten(v View) (*Graph, error) {
	if g, ok := v.(*Graph); ok {
		return g.Clone(), nil
	}
	nodeIDs := v.Nodes()
	nodes := make([]Node, 0, len(nodeIDs))
	for _, id := range nodeIDs {
		nodes = append(nodes, *v.Node(id))
	}
	edgeIDs := v.Edges()
	edges := make([]Edge, 0, len(edgeIDs))
	for _, id := range edgeIDs {
		edges = append(edges, *v.Edge(id))
	}
	return restore("flatten", nodes, edges, v.NextNodeID(), v.NextEdgeID())
}

// NeighborhoodOf returns the induced subgraph around a node of any view:
// every node within the given number of hops (edges followed in both
// directions) plus all the edges among them. Node and edge identities are
// freshly assigned, and the records are shared with v; the returned
// mapping translates original → subgraph node IDs.
func NeighborhoodOf(v View, center NodeID, hops int) (*Graph, map[NodeID]NodeID) {
	if v.Node(center) == nil {
		return New(), map[NodeID]NodeID{}
	}
	inSet := map[NodeID]bool{center: true}
	frontier := []NodeID{center}
	for h := 0; h < hops; h++ {
		var next []NodeID
		for _, n := range frontier {
			for _, eid := range v.Out(n) {
				if e := v.Edge(eid); e != nil && !inSet[e.To] {
					inSet[e.To] = true
					next = append(next, e.To)
				}
			}
			for _, eid := range v.In(n) {
				if e := v.Edge(eid); e != nil && !inSet[e.From] {
					inSet[e.From] = true
					next = append(next, e.From)
				}
			}
		}
		frontier = next
	}
	sub := New()
	mapping := make(map[NodeID]NodeID, len(inSet))
	for _, id := range v.Nodes() {
		if !inSet[id] {
			continue
		}
		n := v.Node(id)
		mapping[id] = sub.AddNode(n.Label, n.Props)
	}
	for _, eid := range v.Edges() {
		e := v.Edge(eid)
		if !inSet[e.From] || !inSet[e.To] {
			continue
		}
		sub.MustAddEdge(e.Label, mapping[e.From], mapping[e.To], e.Props)
	}
	return sub, mapping
}

// WriteJSONView serializes any view as a single JSON document, in the same
// format Graph.WriteJSON produces.
func WriteJSONView(v View, w io.Writer) error {
	doc := jsonGraph[Properties]{}
	for _, id := range v.Nodes() {
		n := v.Node(id)
		doc.Nodes = append(doc.Nodes, jsonNode[Properties]{ID: n.ID, Label: n.Label, Props: n.Props.Map()})
	}
	for _, id := range v.Edges() {
		e := v.Edge(id)
		doc.Edges = append(doc.Edges, jsonEdge[Properties]{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: e.Props.Map()})
	}
	return json.NewEncoder(w).Encode(doc)
}
