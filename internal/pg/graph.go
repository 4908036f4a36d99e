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
	"math"
	"slices"
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
	// nodes and edges are indexed by ID, nil where the element was removed.
	// Every ID below a slice's length was assigned, so the lengths are the
	// ID counters (NextNodeID, NextEdgeID); numNodes and numEdges count the
	// live entries.
	nodes              []*Node
	edges              []*Edge
	numNodes, numEdges int

	out [][]EdgeID // outgoing adjacency, indexed by node ID
	in  [][]EdgeID // incoming adjacency, indexed by node ID

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
func (g *Graph) AddNode(label Label, props PropSource) NodeID { return addNode(g, label, props) }

// AddEdge inserts a directed edge from → to and returns its ID. Props may be
// nil, a Properties map or a Record. It returns check's error when the edge
// is refused (an unknown endpoint; a shareholding that breaks Definition
// 2.2), or an error when a property value is outside the four kinds.
func (g *Graph) AddEdge(label Label, from, to NodeID, props PropSource) (EdgeID, error) {
	return addEdge(g, label, from, to, props)
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// generators where endpoints are known to exist.
func (g *Graph) MustAddEdge(label Label, from, to NodeID, props PropSource) EdgeID {
	return mustAddEdge(g, label, from, to, props)
}

// AddShare inserts a Shareholding edge with weight w.
func (g *Graph) AddShare(from, to NodeID, w float64) (EdgeID, error) { return addShare(g, from, to, w) }

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
func (g *Graph) RemoveEdge(id EdgeID) bool { return removeEdge(g, id) }

// SetEdgeWeight changes the share amount of a Shareholding edge and fires
// MutSetEdgeWeight (the hook observes the edge with the new weight). The edge
// is copied on write: a new Edge with a new record replaces it, so a clone
// or published version sharing the old one keeps reading the old weight.
// Only shareholding edges carry a weight, and Definition 2.2 bounds it to
// (0, 1] — retracting a share entirely is RemoveEdge, not a zero weight.
func (g *Graph) SetEdgeWeight(id EdgeID, w float64) error { return setEdgeWeight(g, id, w) }

// RemoveNode deletes a node together with its incident edges. Each incident
// edge removal fires MutRemoveEdge, then the bare node removal fires
// MutRemoveNode — so a journal or WAL replaying the stream applies the same
// steps in the same order, and the node is already edge-free when its own
// removal record is observed. Removing a missing node is a no-op returning
// false.
func (g *Graph) RemoveNode(id NodeID) bool { return removeNode(g, id) }

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
		g.nodes = appendSlot(g.nodes, n)
		g.out = appendSlot(g.out, nil)
		g.in = appendSlot(g.in, nil)
		g.numNodes++
		g.byNodeLabel[n.Label] = append(g.byNodeLabel[n.Label], n.ID)
	case MutAddEdge:
		e := m.Edge
		g.edges = appendSlot(g.edges, e)
		g.numEdges++
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = append(g.byEdgeLabel[e.Label], e.ID)
	case MutRemoveEdge:
		e := g.edges[m.Edge.ID]
		g.edges[e.ID] = nil
		g.numEdges--
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
		g.nodes[n.ID] = nil
		g.numNodes--
		g.out[n.ID], g.in[n.ID] = nil, nil
		g.byNodeLabel[n.Label] = removeID(g.byNodeLabel[n.Label], n.ID)
		m.Node = n
	}
	if g.onMutate != nil {
		g.onMutate(m)
	}
	return m, nil
}

// appendSlot appends x to an ID-indexed slice. A full s grows by a
// quarter, where append would grow a small or mid-sized one by up to double:
// a graph is built by adds and then held, so growth slack is heap it keeps.
func appendSlot[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, len(s)+len(s)/4+1), s...)
	}
	return append(s, x)
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
	return 2*int64(len(g.nodes)) - int64(g.numNodes) +
		2*int64(len(g.edges)) - int64(g.numEdges) +
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
func (g *Graph) NextNodeID() NodeID { return NodeID(len(g.nodes)) }

// NextEdgeID returns the identifier the next AddEdge will assign.
func (g *Graph) NextEdgeID() EdgeID { return EdgeID(len(g.edges)) }

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id NodeID) *Node {
	if uint64(id) < uint64(len(g.nodes)) {
		return g.nodes[id]
	}
	return nil
}

// Edge returns the edge with the given ID, or nil.
func (g *Graph) Edge(id EdgeID) *Edge {
	if uint64(id) < uint64(len(g.edges)) {
		return g.edges[id]
	}
	return nil
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []NodeID { return live[NodeID](g.nodes, g.numNodes) }

// Edges returns all edge IDs in ascending order.
func (g *Graph) Edges() []EdgeID { return live[EdgeID](g.edges, g.numEdges) }

// live returns the indexes of the n non-nil entries of elems, ascending.
func live[ID ~int64, T any](elems []*T, n int) []ID {
	ids := make([]ID, 0, n)
	for i, x := range elems {
		if x != nil {
			ids = append(ids, ID(i))
		}
	}
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
	return append([]EdgeID(nil), g.byEdgeLabel[label]...)
}

// Out returns the outgoing edge IDs of a node.
func (g *Graph) Out(id NodeID) []EdgeID {
	if uint64(id) < uint64(len(g.out)) {
		return g.out[id]
	}
	return nil
}

// In returns the incoming edge IDs of a node.
func (g *Graph) In(id NodeID) []EdgeID {
	if uint64(id) < uint64(len(g.in)) {
		return g.in[id]
	}
	return nil
}

// OutLabel returns the outgoing edges of n restricted to one label.
func (g *Graph) OutLabel(n NodeID, label Label) []*Edge { return outLabel(g, n, label) }

// InLabel returns the incoming edges of n restricted to one label.
func (g *Graph) InLabel(n NodeID, label Label) []*Edge { return inLabel(g, n, label) }

// HasEdge reports whether an edge with the given label exists from → to.
func (g *Graph) HasEdge(label Label, from, to NodeID) bool { return hasEdge(g, label, from, to) }

// Clone returns a copy of the graph that shares its nodes and edges, and so
// their records, with g, which is safe because a graph never writes to an
// element it holds (see Node). Only the ID-indexed element slices and the
// adjacency and label slices are copied, so a clone costs its index, not its
// data. The slices are copied verbatim, so the clone preserves the original's
// insertion orders — NodesWithLabel, Out and friends read identically on
// graph and clone, which MVCC snapshots rely on.
func (g *Graph) Clone() *Graph {
	return &Graph{
		nodes:       slices.Clone(g.nodes),
		edges:       slices.Clone(g.edges),
		numNodes:    g.numNodes,
		numEdges:    g.numEdges,
		out:         cloneAdjacency(g.out),
		in:          cloneAdjacency(g.in),
		byNodeLabel: cloneIndex(g.byNodeLabel),
		byEdgeLabel: cloneIndex(g.byEdgeLabel),
		weightEdits: g.weightEdits,
	}
}

// cloneIndex copies a label index into one backing array. Each copy is
// capped at its length, so an append on the clone reallocates rather than
// run into its neighbour's IDs.
func cloneIndex[ID any](m map[Label][]ID) map[Label][]ID {
	n := 0
	for _, ids := range m {
		n += len(ids)
	}
	buf := make([]ID, 0, n)
	c := make(map[Label][]ID, len(m))
	for k, ids := range m {
		start := len(buf)
		buf = append(buf, ids...)
		c[k] = buf[start:len(buf):len(buf)]
	}
	return c
}

// cloneAdjacency copies adjacency lists into one backing array, each capped
// at its length as cloneIndex caps them.
func cloneAdjacency(adj [][]EdgeID) [][]EdgeID {
	n := 0
	for _, ids := range adj {
		n += len(ids)
	}
	buf := make([]EdgeID, 0, n)
	c := make([][]EdgeID, len(adj))
	for i, ids := range adj {
		if len(ids) > 0 {
			start := len(buf)
			buf = append(buf, ids...)
			c[i] = buf[start:len(buf):len(buf)]
		}
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
	g.nodes = make([]*Node, max(nextNode, 0))
	g.edges = make([]*Edge, max(nextEdge, 0))
	g.out = make([][]EdgeID, len(g.nodes))
	g.in = make([][]EdgeID, len(g.nodes))
	for i := range nodes {
		n := nodes[i]
		if n.ID < 0 || n.ID >= nextNode {
			return nil, fmt.Errorf("pg: %s: node id %d outside [0, %d)", op, n.ID, nextNode)
		}
		if g.nodes[n.ID] != nil {
			return nil, fmt.Errorf("pg: %s: duplicate node id %d", op, n.ID)
		}
		g.nodes[n.ID] = &n
		g.numNodes++
		g.byNodeLabel[n.Label] = append(g.byNodeLabel[n.Label], n.ID)
	}
	for i := range edges {
		e := edges[i]
		if e.ID < 0 || e.ID >= nextEdge {
			return nil, fmt.Errorf("pg: %s: edge id %d outside [0, %d)", op, e.ID, nextEdge)
		}
		if g.edges[e.ID] != nil {
			return nil, fmt.Errorf("pg: %s: duplicate edge id %d", op, e.ID)
		}
		if err := checkEdge(g, &e); err != nil {
			return nil, err
		}
		g.edges[e.ID] = &e
		g.numEdges++
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = append(g.byEdgeLabel[e.Label], e.ID)
	}
	return g, nil
}

// Validate walks checkEdge over every edge and returns the first violation
// of Definition 2.2 it finds, or nil: shareholding edges carry a weight in
// (0, 1] and run from a company or person into a company. Every change a
// graph accepts has passed the same check, so Validate answers nil on any
// graph built through this package; it stays as the oracle tests hold the
// mutator to.
func (g *Graph) Validate() error {
	for _, e := range g.edges {
		if e == nil {
			continue
		}
		if err := checkEdge(g, e); err != nil {
			return err
		}
	}
	return nil
}
