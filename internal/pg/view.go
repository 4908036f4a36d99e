package pg

import (
	"encoding/json"
	"fmt"
	"io"
)

// View is the read-only interface of a property graph. Both *Graph and
// *Overlay satisfy it, so every consumer of graph structure — the imperative
// solvers, the relational fact extraction feeding the chase, statistics,
// serialization — can run indifferently against a flat graph, a frozen MVCC
// snapshot, or a what-if overlay stacked on one.
//
// The nodes and edges a View returns, and their Props maps, are immutable
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

// Mutable is a property graph that accepts additions and edge removals, the
// mutations an augmentation writes. *Graph and *Overlay satisfy it; the KG-augmentation loop writes
// through this interface so a whole augment can run against an overlay
// transaction instead of the base graph.
type Mutable interface {
	View
	// AddNode inserts a node and returns its ID.
	AddNode(label Label, props Properties) NodeID
	// AddEdge inserts a directed edge from → to and returns its ID.
	AddEdge(label Label, from, to NodeID, props Properties) (EdgeID, error)
	// MustAddEdge is AddEdge that panics on error.
	MustAddEdge(label Label, from, to NodeID, props Properties) EdgeID
	// RemoveEdge deletes an edge, reporting whether it existed.
	RemoveEdge(id EdgeID) bool
}

var (
	_ Mutable = (*Graph)(nil)
	_ Mutable = (*Overlay)(nil)
)

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
	return restore(nodes, edges, v.NextNodeID(), v.NextEdgeID())
}

// ValidateView checks the company-graph invariants of Definition 2.2 over
// any view: shareholding edges carry a weight in (0, 1], shareholding
// sources are companies or persons, and shareholding targets are companies.
// It returns the first violation found, or nil.
func ValidateView(v View) error {
	for _, eid := range v.Edges() {
		e := v.Edge(eid)
		if e.Label != LabelShareholding {
			continue
		}
		w, ok := e.Weight()
		if !ok {
			return fmt.Errorf("pg: edge %d: shareholding edge missing weight", eid)
		}
		if w <= 0 || w > 1 {
			return fmt.Errorf("pg: edge %d: share amount %v outside (0,1]", eid, w)
		}
		from, to := v.Node(e.From), v.Node(e.To)
		if to.Label != LabelCompany {
			return fmt.Errorf("pg: edge %d: shareholding target %d is %s, want Company", eid, e.To, to.Label)
		}
		if from.Label != LabelCompany && from.Label != LabelPerson {
			return fmt.Errorf("pg: edge %d: shareholding source %d is %s, want Company or Person", eid, e.From, from.Label)
		}
	}
	return nil
}

// NeighborhoodOf returns the induced subgraph around a node of any view:
// every node within the given number of hops (edges followed in both
// directions) plus all the edges among them. Node and edge identities are
// freshly assigned, and the property maps are shared with v; the returned
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
	doc := jsonGraph{}
	for _, id := range v.Nodes() {
		n := v.Node(id)
		doc.Nodes = append(doc.Nodes, jsonNode{ID: n.ID, Label: n.Label, Props: n.Props})
	}
	for _, id := range v.Edges() {
		e := v.Edge(id)
		doc.Edges = append(doc.Edges, jsonEdge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: e.Props})
	}
	return json.NewEncoder(w).Encode(doc)
}
