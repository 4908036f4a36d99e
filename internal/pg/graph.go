// Package pg implements the property-graph data model of Definition 2.1 of
// the Vada-Link paper: a finite set of nodes and edges, a binary incidence
// function, a partial labelling function, and a partial property function
// mapping (element, property) pairs to values.
//
// The concrete Company Graph of Definition 2.2 is built on top of this model:
// nodes labelled Company or Person, edges labelled Shareholding carrying a
// share amount in (0, 1].
package pg

import (
	"fmt"
	"maps"
	"sort"
)

// Label is a node or edge label (schema-level concept; maps to a predicate
// name in the relational representation of Section 3).
type Label string

// Well-known labels for the company graph of Definition 2.2.
const (
	LabelCompany      Label = "Company"
	LabelPerson       Label = "Person"
	LabelShareholding Label = "Shareholding"

	// Labels for predicted (intensional) edges.
	LabelControl   Label = "Control"
	LabelCloseLink Label = "CloseLink"
	LabelPartnerOf Label = "PartnerOf"
	LabelSiblingOf Label = "SiblingOf"
	LabelParentOf  Label = "ParentOf"
	LabelFamily    Label = "Family"
)

// NodeID identifies a node. IDs are assigned by the graph and stable for its
// lifetime.
type NodeID int64

// EdgeID identifies an edge.
type EdgeID int64

// Value is a property value: string, float64, int64 or bool.
type Value = any

// Properties maps property names to values (the σ function restricted to one
// element).
type Properties map[string]Value

// Node is a labelled node with properties. Once a graph or overlay holds a
// node, neither the struct nor its Props map is written again: a change
// builds a new Node. Clones, versions and overlays therefore share nodes
// instead of copying them, and a pointer obtained from any View reads the
// same values for as long as it is held.
type Node struct {
	ID    NodeID
	Label Label
	Props Properties
}

// Edge is a labelled, directed edge with properties. For shareholding edges
// the property "w" holds the share amount σ(e, w) ∈ (0, 1]. Edges are
// immutable once held by a graph, as nodes are: SetEdgeWeight replaces the
// edge with a new struct and a new Props map.
type Edge struct {
	ID    EdgeID
	Label Label
	From  NodeID
	To    NodeID
	Props Properties
}

// WeightProp is the property name of the share amount on shareholding edges.
const WeightProp = "w"

// Weight returns the edge weight property (share fraction) and whether it is
// set to a float64.
func (e *Edge) Weight() (float64, bool) {
	v, ok := e.Props[WeightProp]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

// MutationKind discriminates the committed changes a mutation hook observes.
type MutationKind uint8

// Mutation kinds, in the order the graph applies them. MutSetEdgeWeight and
// MutRemoveNode joined the vocabulary when weight edits and node removals
// became first-class (journaled, WAL-captured, replicated) mutations; older
// code only knew the first three.
const (
	MutAddNode MutationKind = iota + 1
	MutAddEdge
	MutRemoveEdge
	MutSetEdgeWeight
	MutRemoveNode
)

// Mutation describes one committed graph change, delivered to the hook set
// with SetMutationHook after the change is applied. Node is set for
// MutAddNode and MutRemoveNode (for removals it is the node as it was, after
// its incident edges were removed); Edge for MutAddEdge, MutRemoveEdge (the
// edge as it was) and MutSetEdgeWeight (the edge with its new weight already
// applied). The pointed-to structs are the graph's own — observers must not
// mutate them. Overlay journals, WAL records and replicated frames carry the
// same type, and Graph.Replay applies one to a graph.
type Mutation struct {
	Kind MutationKind
	Node *Node
	Edge *Edge
}

// Graph is an in-memory property graph. The zero value is not usable; create
// graphs with New. Graph is not safe for concurrent mutation; concurrent
// reads are safe once mutation stops.
type Graph struct {
	nodes map[NodeID]*Node
	edges map[EdgeID]*Edge

	nextNode NodeID
	nextEdge EdgeID

	out map[NodeID][]EdgeID // outgoing adjacency
	in  map[NodeID][]EdgeID // incoming adjacency

	byNodeLabel map[Label][]NodeID
	byEdgeLabel map[Label][]EdgeID

	// weightEdits counts committed SetEdgeWeight mutations over the graph's
	// history. Weight edits change no node or edge count, so the position
	// formula (Seq) needs this counter to recompute a WAL position from a
	// recovered graph. Snapshots persist it.
	weightEdits int64

	// onMutate, when set, observes every committed mutation — the
	// change-capture seam the durability layer (internal/persist) hangs its
	// write-ahead logging on. Derived facts materialized by the chase reach
	// the graph through AddEdge like any other change, so one hook captures
	// both loaded and reasoned state.
	onMutate func(Mutation)
}

// New returns an empty property graph.
func New() *Graph {
	return &Graph{
		nodes:       make(map[NodeID]*Node),
		edges:       make(map[EdgeID]*Edge),
		out:         make(map[NodeID][]EdgeID),
		in:          make(map[NodeID][]EdgeID),
		byNodeLabel: make(map[Label][]NodeID),
		byEdgeLabel: make(map[Label][]EdgeID),
	}
}

// SetMutationHook installs fn as the graph's mutation observer; nil removes
// it. The hook runs synchronously inside every mutating method, Replay
// included, after the change is applied, on the mutating goroutine — it
// must not mutate the graph (that would recurse). Clone, Flatten and
// NeighborhoodOf graphs do not inherit the hook.
func (g *Graph) SetMutationHook(fn func(Mutation)) { g.onMutate = fn }

// AddNode inserts a node with the given label and properties and returns its
// ID. Props may be nil. The graph takes ownership of props: the caller must
// not write to the map afterwards, since clones and versions share it.
func (g *Graph) AddNode(label Label, props Properties) NodeID {
	id := g.nextNode
	g.nextNode++
	n := &Node{ID: id, Label: label, Props: props.orEmpty()}
	g.nodes[id] = n
	g.byNodeLabel[label] = append(g.byNodeLabel[label], id)
	if g.onMutate != nil {
		g.onMutate(Mutation{Kind: MutAddNode, Node: n})
	}
	return id
}

// AddEdge inserts a directed edge from → to and returns its ID. It returns an
// error if either endpoint does not exist. Like AddNode, it takes ownership
// of props.
func (g *Graph) AddEdge(label Label, from, to NodeID, props Properties) (EdgeID, error) {
	if _, ok := g.nodes[from]; !ok {
		return 0, fmt.Errorf("pg: add edge: unknown source node %d", from)
	}
	if _, ok := g.nodes[to]; !ok {
		return 0, fmt.Errorf("pg: add edge: unknown target node %d", to)
	}
	id := g.nextEdge
	g.nextEdge++
	e := &Edge{ID: id, Label: label, From: from, To: to, Props: props.orEmpty()}
	g.edges[id] = e
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	g.byEdgeLabel[label] = append(g.byEdgeLabel[label], id)
	if g.onMutate != nil {
		g.onMutate(Mutation{Kind: MutAddEdge, Edge: e})
	}
	return id, nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators where endpoints are known to exist.
func (g *Graph) MustAddEdge(label Label, from, to NodeID, props Properties) EdgeID {
	id, err := g.AddEdge(label, from, to, props)
	if err != nil {
		panic(err)
	}
	return id
}

// AddShare inserts a Shareholding edge with weight w.
func (g *Graph) AddShare(from, to NodeID, w float64) (EdgeID, error) {
	return g.AddEdge(LabelShareholding, from, to, Properties{WeightProp: w})
}

// MustAddEdgeWeighted inserts a Shareholding edge with weight w, panicking
// on unknown endpoints; for tests and generators.
func (g *Graph) MustAddEdgeWeighted(from, to NodeID, w float64) EdgeID {
	id, err := g.AddShare(from, to, w)
	if err != nil {
		panic(err)
	}
	return id
}

// RemoveEdge deletes an edge. Removing a missing edge is a no-op returning
// false.
func (g *Graph) RemoveEdge(id EdgeID) bool {
	e, ok := g.edges[id]
	if !ok {
		return false
	}
	delete(g.edges, id)
	g.out[e.From] = removeID(g.out[e.From], id)
	g.in[e.To] = removeID(g.in[e.To], id)
	g.byEdgeLabel[e.Label] = removeID(g.byEdgeLabel[e.Label], id)
	if g.onMutate != nil {
		g.onMutate(Mutation{Kind: MutRemoveEdge, Edge: e})
	}
	return true
}

// SetEdgeWeight changes the share amount of a Shareholding edge and fires
// MutSetEdgeWeight (the hook observes the edge with the new weight). The edge
// is copied on write: a new Edge with a new Props map replaces it, so a clone
// or published version sharing the old one keeps reading the old weight.
// Only shareholding edges carry a weight, and Definition 2.2 bounds it to
// (0, 1] — retracting a share entirely is RemoveEdge, not a zero weight.
func (g *Graph) SetEdgeWeight(id EdgeID, w float64) error {
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("pg: set edge weight: unknown edge %d", id)
	}
	if e.Label != LabelShareholding {
		return fmt.Errorf("pg: set edge weight: edge %d is %s, not Shareholding", id, e.Label)
	}
	if w <= 0 || w > 1 {
		return fmt.Errorf("pg: set edge weight: weight %v outside (0, 1]", w)
	}
	e = e.withWeight(w)
	g.edges[id] = e
	g.weightEdits++
	if g.onMutate != nil {
		g.onMutate(Mutation{Kind: MutSetEdgeWeight, Edge: e})
	}
	return nil
}

// RemoveNode deletes a node together with its incident edges. Each incident
// edge removal fires MutRemoveEdge through the ordinary RemoveEdge path, then
// the bare node removal fires MutRemoveNode — so a journal or WAL replaying
// the stream applies the same steps in the same order, and the node is
// already edge-free when its own removal record is observed. Removing a
// missing node is a no-op returning false.
func (g *Graph) RemoveNode(id NodeID) bool {
	n, ok := g.nodes[id]
	if !ok {
		return false
	}
	// Snapshot the incident edge IDs: RemoveEdge mutates g.out/g.in while we
	// iterate. A self-loop appears in both lists; RemoveEdge tolerates the
	// second, already-deleted occurrence.
	incident := append([]EdgeID(nil), g.out[id]...)
	incident = append(incident, g.in[id]...)
	for _, eid := range incident {
		g.RemoveEdge(eid)
	}
	delete(g.nodes, id)
	delete(g.out, id)
	delete(g.in, id)
	g.byNodeLabel[n.Label] = removeID(g.byNodeLabel[n.Label], id)
	if g.onMutate != nil {
		g.onMutate(Mutation{Kind: MutRemoveNode, Node: n})
	}
	return true
}

// Replay applies a recorded mutation — an overlay journal entry, a decoded
// WAL record, a replicated frame — onto g and returns it as g fired it on
// its mutation hook, pointing at g's own structs. The mutation names its
// element by identifier, and Replay refuses, before g moves, one that does
// not fit g (see replayable). A refusal means the record does not belong on
// this state (a log applied to the wrong base, a graph mutated behind an
// overlay's back), so it leaves g, its counters and its hook untouched.
// Property maps are copied: g shares none with the overlay or decoded
// record they came from.
func (g *Graph) Replay(m Mutation) (Mutation, error) {
	if err := replayable(g, m); err != nil {
		return Mutation{}, err
	}
	switch m.Kind {
	case MutAddNode:
		id := g.AddNode(m.Node.Label, m.Node.Props.clone())
		return Mutation{Kind: m.Kind, Node: g.nodes[id]}, nil
	case MutAddEdge:
		id, err := g.AddEdge(m.Edge.Label, m.Edge.From, m.Edge.To, m.Edge.Props.clone())
		if err != nil {
			return Mutation{}, fmt.Errorf("pg: replay: %w", err)
		}
		return Mutation{Kind: m.Kind, Edge: g.edges[id]}, nil
	case MutRemoveEdge:
		e := g.edges[m.Edge.ID]
		g.RemoveEdge(e.ID)
		return Mutation{Kind: m.Kind, Edge: e}, nil
	case MutSetEdgeWeight:
		w, _ := m.Edge.Weight()
		if err := g.SetEdgeWeight(m.Edge.ID, w); err != nil {
			return Mutation{}, fmt.Errorf("pg: replay: %w", err)
		}
		return Mutation{Kind: m.Kind, Edge: g.edges[m.Edge.ID]}, nil
	default: // MutRemoveNode
		n := g.nodes[m.Node.ID]
		g.RemoveNode(n.ID)
		return Mutation{Kind: m.Kind, Node: n}, nil
	}
}

// replayable is the refusal rule Graph.Replay and Overlay.Replay share: why
// m does not fit v, the state it would be replayed onto, or nil. An add must
// name exactly NextNodeID or NextEdgeID, a removal a live element, a node
// removal a node whose incident edges were removed by their own records
// (removing them here would fire records the stream does not hold), and a
// weight edit must carry a weight. The mutators check the rest (endpoints,
// weight range, label) alike on both types.
func replayable(v View, m Mutation) error {
	switch m.Kind {
	case MutAddNode:
		if m.Node.ID != v.NextNodeID() {
			return fmt.Errorf("pg: replay: add of node %d, the graph assigns %d next", m.Node.ID, v.NextNodeID())
		}
	case MutAddEdge:
		if m.Edge.ID != v.NextEdgeID() {
			return fmt.Errorf("pg: replay: add of edge %d, the graph assigns %d next", m.Edge.ID, v.NextEdgeID())
		}
	case MutRemoveEdge:
		if v.Edge(m.Edge.ID) == nil {
			return fmt.Errorf("pg: replay: removal of unknown edge %d", m.Edge.ID)
		}
	case MutSetEdgeWeight:
		if _, ok := m.Edge.Weight(); !ok {
			return fmt.Errorf("pg: replay: weight edit of edge %d carries no weight", m.Edge.ID)
		}
	case MutRemoveNode:
		if v.Node(m.Node.ID) == nil {
			return fmt.Errorf("pg: replay: removal of unknown node %d", m.Node.ID)
		}
		if k := len(v.Out(m.Node.ID)) + len(v.In(m.Node.ID)); k > 0 {
			return fmt.Errorf("pg: replay: removal of node %d with %d live incident edges", m.Node.ID, k)
		}
	default:
		return fmt.Errorf("pg: replay: unknown mutation kind %d", m.Kind)
	}
	return nil
}

// withWeight returns a copy of e whose weight property is w; e is unchanged.
func (e *Edge) withWeight(w float64) *Edge {
	props := e.Props.clone()
	props[WeightProp] = w
	return &Edge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: props}
}

// orEmpty returns p, or an empty map for a nil p: an element's Props is
// never nil.
func (p Properties) orEmpty() Properties {
	if p == nil {
		return Properties{}
	}
	return p
}

// clone returns a copy of p that is never nil.
func (p Properties) clone() Properties {
	c := make(Properties, len(p))
	for k, v := range p {
		c[k] = v
	}
	return c
}

// WeightEdits reports the number of committed SetEdgeWeight mutations in the
// graph's history (see the field comment; Seq consumes it).
func (g *Graph) WeightEdits() int64 { return g.weightEdits }

// Seq returns the graph's sequence number: the total number of mutation
// records (AddNode, AddEdge, RemoveEdge, SetEdgeWeight, RemoveNode) ever
// applied to reach its state. Each AddNode advances the node-ID counter,
// each AddEdge the edge-ID counter, each removal widens the gap between
// elements ever created and elements live, and each weight edit bumps the
// weight-edit counter (carried through snapshots) — so the count is
// derivable from any graph alone, with no position file to keep in sync. It
// is the replication position a follower recovers from its graph after
// kill -9, and the seq store.Versioned stamps its first version with.
func (g *Graph) Seq() int64 {
	return 2*int64(g.nextNode) - int64(len(g.nodes)) +
		2*int64(g.nextEdge) - int64(len(g.edges)) +
		g.weightEdits
}

// SetWeightEdits overwrites the weight-edit counter. It exists for the
// durability layer loading a snapshot, which holds each edge at its current
// weight and the count of edits that led there: it rebuilds recorded history
// rather than creating new history, so no hook fires.
func (g *Graph) SetWeightEdits(n int64) { g.weightEdits = n }

func removeID[T comparable](s []T, x T) []T {
	for i, v := range s {
		if v == x {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// NextNodeID returns the identifier the next AddNode will assign — the
// node-ID counter a snapshot must preserve for WAL replay to stay aligned.
func (g *Graph) NextNodeID() NodeID { return g.nextNode }

// NextEdgeID returns the identifier the next AddEdge will assign.
func (g *Graph) NextEdgeID() EdgeID { return g.nextEdge }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node { return g.nodes[id] }

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id EdgeID) *Edge { return g.edges[id] }

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Edges returns all edge IDs in ascending order.
func (g *Graph) Edges() []EdgeID {
	ids := make([]EdgeID, 0, len(g.edges))
	for id := range g.edges {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NodesWithLabel returns the IDs of all nodes carrying the label, in
// insertion order.
func (g *Graph) NodesWithLabel(label Label) []NodeID {
	return append([]NodeID(nil), g.byNodeLabel[label]...)
}

// EdgesWithLabel returns the IDs of all live edges carrying the label, in
// insertion order.
func (g *Graph) EdgesWithLabel(label Label) []EdgeID {
	ids := g.byEdgeLabel[label]
	res := make([]EdgeID, 0, len(ids))
	for _, id := range ids {
		if _, ok := g.edges[id]; ok {
			res = append(res, id)
		}
	}
	return res
}

// Out returns the outgoing edge IDs of a node.
func (g *Graph) Out(id NodeID) []EdgeID { return g.out[id] }

// In returns the incoming edge IDs of a node.
func (g *Graph) In(id NodeID) []EdgeID { return g.in[id] }

// OutLabel returns the outgoing edges of n restricted to one label.
func (g *Graph) OutLabel(n NodeID, label Label) []*Edge {
	var res []*Edge
	for _, eid := range g.out[n] {
		if e := g.edges[eid]; e != nil && e.Label == label {
			res = append(res, e)
		}
	}
	return res
}

// InLabel returns the incoming edges of n restricted to one label.
func (g *Graph) InLabel(n NodeID, label Label) []*Edge {
	var res []*Edge
	for _, eid := range g.in[n] {
		if e := g.edges[eid]; e != nil && e.Label == label {
			res = append(res, e)
		}
	}
	return res
}

// HasEdge reports whether an edge with the given label exists from → to.
func (g *Graph) HasEdge(label Label, from, to NodeID) bool {
	for _, eid := range g.out[from] {
		e := g.edges[eid]
		if e != nil && e.Label == label && e.To == to {
			return true
		}
	}
	return false
}

// Clone returns a copy of the graph that shares its nodes, edges and
// property maps with g, which is safe because a graph never writes to an
// element it holds (see Node). Only the identifier maps and the adjacency and
// label slices are copied, so a clone costs its index, not its data. The
// slices are copied verbatim, so the clone preserves the original's insertion
// orders — NodesWithLabel, Out and friends read identically on graph and
// clone, which MVCC snapshots rely on.
func (g *Graph) Clone() *Graph {
	return &Graph{
		nodes:       maps.Clone(g.nodes),
		edges:       maps.Clone(g.edges),
		nextNode:    g.nextNode,
		nextEdge:    g.nextEdge,
		out:         cloneIndex(g.out),
		in:          cloneIndex(g.in),
		byNodeLabel: cloneIndex(g.byNodeLabel),
		byEdgeLabel: cloneIndex(g.byEdgeLabel),
		weightEdits: g.weightEdits,
	}
}

// cloneIndex copies an index of ID slices into one backing array. Each copy
// is capped at its length, so an append on the clone reallocates rather than
// run into its neighbour's IDs.
func cloneIndex[K comparable, V any](m map[K][]V) map[K][]V {
	n := 0
	for _, ids := range m {
		n += len(ids)
	}
	buf := make([]V, 0, n)
	c := make(map[K][]V, len(m))
	for k, ids := range m {
		start := len(buf)
		buf = append(buf, ids...)
		c[k] = buf[start:len(buf):len(buf)]
	}
	return c
}

// restore builds a graph verbatim from a view's elements: nodes and edges
// keep their identifiers, and the ID counters resume where the view left off
// (so identifiers assigned later never collide with removed ones) — which
// AddNode/AddEdge, always assigning fresh IDs, cannot do. Flatten uses it.
// The graph keeps the property maps it is given (a nil map is stored as an
// empty one), as AddNode does.
//
// restore validates what it is given (duplicate or out-of-range IDs, edges
// with unknown endpoints) and fails rather than build a graph that never
// existed.
func restore(nodes []Node, edges []Edge, nextNode NodeID, nextEdge EdgeID) (*Graph, error) {
	g := New()
	for i := range nodes {
		n := nodes[i]
		if n.ID < 0 || n.ID >= nextNode {
			return nil, fmt.Errorf("pg: restore: node id %d outside [0, %d)", n.ID, nextNode)
		}
		if _, dup := g.nodes[n.ID]; dup {
			return nil, fmt.Errorf("pg: restore: duplicate node id %d", n.ID)
		}
		g.nodes[n.ID] = &Node{ID: n.ID, Label: n.Label, Props: n.Props.orEmpty()}
		g.byNodeLabel[n.Label] = append(g.byNodeLabel[n.Label], n.ID)
	}
	for i := range edges {
		e := edges[i]
		if e.ID < 0 || e.ID >= nextEdge {
			return nil, fmt.Errorf("pg: restore: edge id %d outside [0, %d)", e.ID, nextEdge)
		}
		if _, dup := g.edges[e.ID]; dup {
			return nil, fmt.Errorf("pg: restore: duplicate edge id %d", e.ID)
		}
		if _, ok := g.nodes[e.From]; !ok {
			return nil, fmt.Errorf("pg: restore: edge %d: unknown source node %d", e.ID, e.From)
		}
		if _, ok := g.nodes[e.To]; !ok {
			return nil, fmt.Errorf("pg: restore: edge %d: unknown target node %d", e.ID, e.To)
		}
		g.edges[e.ID] = &Edge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: e.Props.orEmpty()}
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = append(g.byEdgeLabel[e.Label], e.ID)
	}
	g.nextNode = nextNode
	g.nextEdge = nextEdge
	return g, nil
}

// Validate checks company-graph invariants of Definition 2.2: shareholding
// edges carry a weight in (0, 1], shareholding sources are companies or
// persons, and shareholding targets are companies. It returns the first
// violation found, or nil.
func (g *Graph) Validate() error { return ValidateView(g) }
