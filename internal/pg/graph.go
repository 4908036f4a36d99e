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
	"math"
	"slices"
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

// Value is a property value as a Properties map holds it: string, float64,
// int64 or bool (a Go int is accepted and stored as an int64).
type Value = any

// Properties maps property names to values (the σ function restricted to one
// element). It is the form properties take at the edges — map literals,
// JSON, CSV, the facade — and AddNode and AddEdge convert it to the Record an
// element holds.
type Properties map[string]Value

// Node is a labelled node with properties. Once a graph or overlay holds a
// node, its struct is not written again (its Record cannot be): a change
// builds a new Node. Clones, versions and overlays therefore share nodes
// instead of copying them, and a pointer obtained from any View reads the
// same values for as long as it is held.
type Node struct {
	ID    NodeID
	Label Label
	Props Record
}

// Edge is a labelled, directed edge with properties. For shareholding edges
// the property "w" holds the share amount σ(e, w) ∈ (0, 1]. Edges are
// immutable once held by a graph, as nodes are: SetEdgeWeight replaces the
// edge with a new struct and a new Record.
type Edge struct {
	ID    EdgeID
	Label Label
	From  NodeID
	To    NodeID
	Props Record
}

// WeightProp is the property name of the share amount on shareholding edges.
// Its value is always stored as a float64.
const WeightProp = "w"

// Weight returns the edge weight property (share fraction) and whether it is
// set.
func (e *Edge) Weight() (float64, bool) {
	v, ok := e.Props.lookupID(keyWeight)
	if !ok || v.kind != KindFloat {
		return 0, false
	}
	return math.Float64frombits(v.bits), true
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
// mutate them. Every change to a Graph or an Overlay is a Mutation, applied
// by its Replay: the named methods build one, and overlay journals, WAL
// records and replicated frames carry one.
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
// it. The hook runs synchronously inside Replay, and so inside every named
// mutator, after the change is applied, on the mutating goroutine — it
// must not mutate the graph (that would recurse). Clone, Flatten and
// NeighborhoodOf graphs do not inherit the hook.
func (g *Graph) SetMutationHook(fn func(Mutation)) { g.onMutate = fn }

// AddNode inserts a node with the given label and properties and returns its
// ID. Props may be nil, a Properties map or a Record. It panics, as
// MustAddEdge does, on a property value outside the four kinds (see
// NewRecord); input that may hold one is checked with NewRecord first.
func (g *Graph) AddNode(label Label, props PropSource) NodeID {
	id := g.nextNode
	// An add at the next ID is never refused.
	g.Replay(Mutation{Kind: MutAddNode, Node: &Node{ID: id, Label: label, Props: nodeRecord(id, props)}})
	return id
}

// AddEdge inserts a directed edge from → to and returns its ID. Props may be
// nil, a Properties map or a Record. It returns check's error when the edge
// is refused (an unknown endpoint; a shareholding that breaks Definition
// 2.2), or an error when a property value is outside the four kinds.
func (g *Graph) AddEdge(label Label, from, to NodeID, props PropSource) (EdgeID, error) {
	rec, err := recordOf(props)
	if err != nil {
		return 0, fmt.Errorf("pg: add edge %d: %w", g.nextEdge, err)
	}
	return g.addEdge(&Edge{ID: g.nextEdge, Label: label, From: from, To: to, Props: rec})
}

// addEdge replays the add of e, which names the next edge ID.
func (g *Graph) addEdge(e *Edge) (EdgeID, error) {
	if _, err := g.Replay(Mutation{Kind: MutAddEdge, Edge: e}); err != nil {
		return 0, err
	}
	return e.ID, nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators where endpoints are known to exist.
func (g *Graph) MustAddEdge(label Label, from, to NodeID, props PropSource) EdgeID {
	id, err := g.AddEdge(label, from, to, props)
	if err != nil {
		panic(err)
	}
	return id
}

// AddShare inserts a Shareholding edge with weight w.
func (g *Graph) AddShare(from, to NodeID, w float64) (EdgeID, error) {
	return g.addEdge(&Edge{ID: g.nextEdge, Label: LabelShareholding, From: from, To: to, Props: weightRecord(w)})
}

// MustAddEdgeWeighted inserts a Shareholding edge with weight w, panicking
// when it is refused; for tests and generators.
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
	e := g.edges[id]
	if e == nil {
		return false
	}
	g.Replay(Mutation{Kind: MutRemoveEdge, Edge: e}) // a live edge's removal is never refused
	return true
}

// SetEdgeWeight changes the share amount of a Shareholding edge and fires
// MutSetEdgeWeight (the hook observes the edge with the new weight). The edge
// is copied on write: a new Edge with a new record replaces it, so a clone
// or published version sharing the old one keeps reading the old weight.
// Only shareholding edges carry a weight, and Definition 2.2 bounds it to
// (0, 1] — retracting a share entirely is RemoveEdge, not a zero weight.
func (g *Graph) SetEdgeWeight(id EdgeID, w float64) error {
	_, err := g.Replay(Mutation{Kind: MutSetEdgeWeight, Edge: &Edge{ID: id, Props: weightRecord(w)}})
	return err
}

// RemoveNode deletes a node together with its incident edges. Each incident
// edge removal fires MutRemoveEdge through RemoveEdge, then the bare node
// removal fires MutRemoveNode — so a journal or WAL replaying the stream
// applies the same steps in the same order, and the node is already
// edge-free when its own removal record is observed. Removing a missing node
// is a no-op returning false.
func (g *Graph) RemoveNode(id NodeID) bool {
	n := g.nodes[id]
	if n == nil {
		return false
	}
	// Copy the incident edge IDs: a removal edits g.out/g.in while we
	// iterate. A self-loop appears in both lists; RemoveEdge tolerates the
	// second, already-deleted occurrence.
	for _, eid := range append(slices.Clone(g.out[id]), g.in[id]...) {
		g.RemoveEdge(eid)
	}
	g.Replay(Mutation{Kind: MutRemoveNode, Node: n}) // edge-free now, so never refused
	return true
}

// Replay is the graph's one mutator: every change — a named method's, an
// overlay journal entry, a decoded WAL or snapshot record, a replicated
// frame — is applied here. It returns the mutation as g fired it on its
// mutation hook, pointing at g's own structs. An add names its element by
// the identifier g assigns next, and g holds the mutation's own Node or Edge
// (both are immutable, so nothing is copied); a removal or weight edit names
// a live element. Replay refuses, before g moves, whatever check refuses: a
// mutation that does not fit g (a log applied to the wrong base, a graph
// mutated behind an overlay's back) or whose result breaks Definition 2.2.
// A refusal leaves g, its counters and its hook untouched.
func (g *Graph) Replay(m Mutation) (Mutation, error) {
	if err := check(g, m); err != nil {
		return Mutation{}, err
	}
	switch m.Kind {
	case MutAddNode:
		n := m.Node
		g.nextNode++
		g.nodes[n.ID] = n
		g.byNodeLabel[n.Label] = append(g.byNodeLabel[n.Label], n.ID)
	case MutAddEdge:
		e := m.Edge
		g.nextEdge++
		g.edges[e.ID] = e
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = append(g.byEdgeLabel[e.Label], e.ID)
	case MutRemoveEdge:
		e := g.edges[m.Edge.ID]
		delete(g.edges, e.ID)
		g.out[e.From] = removeID(g.out[e.From], e.ID)
		g.in[e.To] = removeID(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = removeID(g.byEdgeLabel[e.Label], e.ID)
		m.Edge = e
	case MutSetEdgeWeight:
		w, _ := m.Edge.Weight()
		e := g.edges[m.Edge.ID].withWeight(w)
		g.edges[e.ID] = e
		g.weightEdits++
		m.Edge = e
	default: // MutRemoveNode
		n := g.nodes[m.Node.ID]
		delete(g.nodes, n.ID)
		delete(g.out, n.ID)
		delete(g.in, n.ID)
		g.byNodeLabel[n.Label] = removeID(g.byNodeLabel[n.Label], n.ID)
		m.Node = n
	}
	if g.onMutate != nil {
		g.onMutate(m)
	}
	return m, nil
}

// check is the one rule every change to a Graph or an Overlay passes: why m
// cannot be applied to v, the state it would change, or nil. Both Replays
// call it, so a refusal reads the same whichever writer met it. An add must
// name exactly NextNodeID or NextEdgeID, a removal a live element, and a node
// removal a node whose incident edges were removed by their own records
// (removing them here would fire records the stream does not hold). The edge
// an add or a weight edit leaves behind must satisfy Definition 2.2
// (checkEdge, checkShare).
func check(v View, m Mutation) error {
	switch m.Kind {
	case MutAddNode:
		if m.Node.ID != v.NextNodeID() {
			return fmt.Errorf("pg: add of node %d, the graph assigns %d next", m.Node.ID, v.NextNodeID())
		}
	case MutAddEdge:
		if m.Edge.ID != v.NextEdgeID() {
			return fmt.Errorf("pg: add of edge %d, the graph assigns %d next", m.Edge.ID, v.NextEdgeID())
		}
		return checkEdge(v, m.Edge)
	case MutRemoveEdge:
		if v.Edge(m.Edge.ID) == nil {
			return fmt.Errorf("pg: removal of unknown edge %d", m.Edge.ID)
		}
	case MutSetEdgeWeight:
		e := v.Edge(m.Edge.ID)
		if e == nil {
			return fmt.Errorf("pg: weight edit of unknown edge %d", m.Edge.ID)
		}
		if e.Label != LabelShareholding {
			return fmt.Errorf("pg: edge %d: weight edit of a %s edge, want Shareholding", e.ID, e.Label)
		}
		return checkShare(m.Edge)
	case MutRemoveNode:
		if v.Node(m.Node.ID) == nil {
			return fmt.Errorf("pg: removal of unknown node %d", m.Node.ID)
		}
		if k := len(v.Out(m.Node.ID)) + len(v.In(m.Node.ID)); k > 0 {
			return fmt.Errorf("pg: removal of node %d with %d live incident edges", m.Node.ID, k)
		}
	default:
		return fmt.Errorf("pg: unknown mutation kind %d", m.Kind)
	}
	return nil
}

// checkEdge is Definition 2.2 on one edge of v: its endpoints are nodes of
// v, and a shareholding runs from a Company or a Person into a Company with
// a share amount in (0, 1]. check applies it to an added edge; restore and
// Validate walk it over every edge.
func checkEdge(v View, e *Edge) error {
	from, to := v.Node(e.From), v.Node(e.To)
	switch {
	case from == nil:
		return fmt.Errorf("pg: edge %d: unknown source node %d", e.ID, e.From)
	case to == nil:
		return fmt.Errorf("pg: edge %d: unknown target node %d", e.ID, e.To)
	case e.Label != LabelShareholding:
		return nil
	}
	if err := checkShare(e); err != nil {
		return err
	}
	if to.Label != LabelCompany {
		return fmt.Errorf("pg: edge %d: shareholding target %d is %s, want Company", e.ID, e.To, to.Label)
	}
	if from.Label != LabelCompany && from.Label != LabelPerson {
		return fmt.Errorf("pg: edge %d: shareholding source %d is %s, want Company or Person", e.ID, e.From, from.Label)
	}
	return nil
}

// checkShare refuses a shareholding e whose share amount is missing or
// outside (0, 1] — NaN included.
func checkShare(e *Edge) error {
	w, ok := e.Weight()
	if !ok {
		return fmt.Errorf("pg: edge %d: shareholding carries no share amount %q", e.ID, WeightProp)
	}
	if !(w > 0 && w <= 1) {
		return fmt.Errorf("pg: edge %d: share amount %v outside (0, 1]", e.ID, w)
	}
	return nil
}

// withWeight returns a copy of e whose weight property is w; e is unchanged.
func (e *Edge) withWeight(w float64) *Edge {
	props := e.Props.with(keyWeight, Scalar{kind: KindFloat, bits: math.Float64bits(w)})
	return &Edge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: props}
}

// nodeRecord converts the properties of node id for AddNode, which reports
// no error: it panics with one that names the node and key.
func nodeRecord(id NodeID, props PropSource) Record {
	rec, err := recordOf(props)
	if err != nil {
		panic(fmt.Errorf("pg: add node %d: %w", id, err))
	}
	return rec
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

// Clone returns a copy of the graph that shares its nodes and edges, and so
// their records, with g, which is safe because a graph never writes to an
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
// the mutator, always adding at the next identifier, cannot do. Flatten and
// ReadJSON use it. The graph keeps the records it is given.
//
// restore refuses what no sequence of mutations could have built —
// duplicate or out-of-range IDs, and every edge checkEdge refuses — with an
// error naming the element, rather than build a graph that never existed.
func restore(op string, nodes []Node, edges []Edge, nextNode NodeID, nextEdge EdgeID) (*Graph, error) {
	g := New()
	for i := range nodes {
		n := nodes[i]
		if n.ID < 0 || n.ID >= nextNode {
			return nil, fmt.Errorf("pg: %s: node id %d outside [0, %d)", op, n.ID, nextNode)
		}
		if _, dup := g.nodes[n.ID]; dup {
			return nil, fmt.Errorf("pg: %s: duplicate node id %d", op, n.ID)
		}
		g.nodes[n.ID] = &n
		g.byNodeLabel[n.Label] = append(g.byNodeLabel[n.Label], n.ID)
	}
	for i := range edges {
		e := edges[i]
		if e.ID < 0 || e.ID >= nextEdge {
			return nil, fmt.Errorf("pg: %s: edge id %d outside [0, %d)", op, e.ID, nextEdge)
		}
		if _, dup := g.edges[e.ID]; dup {
			return nil, fmt.Errorf("pg: %s: duplicate edge id %d", op, e.ID)
		}
		if err := checkEdge(g, &e); err != nil {
			return nil, err
		}
		g.edges[e.ID] = &e
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = append(g.byEdgeLabel[e.Label], e.ID)
	}
	g.nextNode = nextNode
	g.nextEdge = nextEdge
	return g, nil
}

// Validate walks checkEdge over every edge and returns the first violation
// of Definition 2.2 it finds, or nil: shareholding edges carry a weight in
// (0, 1] and run from a company or person into a company. Every change a
// graph accepts has passed the same check, so Validate answers nil on any
// graph built through this package; it stays as the oracle tests hold the
// mutator to.
func (g *Graph) Validate() error {
	for _, id := range g.Edges() {
		if err := checkEdge(g, g.edges[id]); err != nil {
			return err
		}
	}
	return nil
}
