package pg

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the serialized form of a Graph.
type jsonGraph struct {
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	ID    NodeID         `json:"id"`
	Label Label          `json:"label"`
	Props map[string]any `json:"props,omitempty"`
}

type jsonEdge struct {
	ID    EdgeID         `json:"id"`
	Label Label          `json:"label"`
	From  NodeID         `json:"from"`
	To    NodeID         `json:"to"`
	Props map[string]any `json:"props,omitempty"`
}

// WriteJSON serializes the graph as a single JSON document.
func (g *Graph) WriteJSON(w io.Writer) error { return WriteJSONView(g, w) }

// ReadJSON parses a graph previously written with WriteJSON. Node and edge
// IDs are preserved. Numeric property values decode as float64 (JSON
// semantics).
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc jsonGraph
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("pg: read json: %w", err)
	}
	g := New()
	for _, n := range doc.Nodes {
		g.nodes[n.ID] = &Node{ID: n.ID, Label: n.Label, Props: Properties(n.Props).orEmpty()}
		g.byNodeLabel[n.Label] = append(g.byNodeLabel[n.Label], n.ID)
		if n.ID >= g.nextNode {
			g.nextNode = n.ID + 1
		}
	}
	for _, e := range doc.Edges {
		if _, ok := g.nodes[e.From]; !ok {
			return nil, fmt.Errorf("pg: read json: edge %d references missing node %d", e.ID, e.From)
		}
		if _, ok := g.nodes[e.To]; !ok {
			return nil, fmt.Errorf("pg: read json: edge %d references missing node %d", e.ID, e.To)
		}
		g.edges[e.ID] = &Edge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: Properties(e.Props).orEmpty()}
		g.out[e.From] = append(g.out[e.From], e.ID)
		g.in[e.To] = append(g.in[e.To], e.ID)
		g.byEdgeLabel[e.Label] = append(g.byEdgeLabel[e.Label], e.ID)
		if e.ID >= g.nextEdge {
			g.nextEdge = e.ID + 1
		}
	}
	return g, nil
}
