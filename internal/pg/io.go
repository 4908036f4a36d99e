package pg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// jsonGraph is the serialized form of a Graph: written with each element's
// properties as a map, read with them raw so they convert straight to a
// Record.
type jsonGraph[P any] struct {
	Nodes []jsonNode[P] `json:"nodes"`
	Edges []jsonEdge[P] `json:"edges"`
}

type jsonNode[P any] struct {
	ID    NodeID `json:"id"`
	Label Label  `json:"label"`
	Props P      `json:"props,omitempty"`
}

type jsonEdge[P any] struct {
	ID    EdgeID `json:"id"`
	Label Label  `json:"label"`
	From  NodeID `json:"from"`
	To    NodeID `json:"to"`
	Props P      `json:"props,omitempty"`
}

// WriteJSON serializes the graph as a single JSON document.
func (g *Graph) WriteJSON(w io.Writer) error { return WriteJSONView(g, w) }

// ReadJSON parses a graph previously written with WriteJSON. Node and edge
// IDs are preserved. Numeric property values decode as float64 (JSON
// semantics). It refuses a duplicate or negative ID, an ID at or above
// idLimit of the document's element count, an edge whose endpoint is
// missing, and a property that is null, an array or an object, each with an
// error naming the element.
func ReadJSON(r io.Reader) (*Graph, error) {
	var doc jsonGraph[json.RawMessage]
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("pg: read json: %w", err)
	}
	var b RecordBuilder
	var nextNode NodeID
	nodes := make([]Node, len(doc.Nodes))
	for i, n := range doc.Nodes {
		if int64(n.ID) >= idLimit(len(doc.Nodes)) {
			return nil, fmt.Errorf("pg: read json: node id %d at or above %d for %d nodes", n.ID, idLimit(len(doc.Nodes)), len(doc.Nodes))
		}
		props, err := jsonRecord(&b, n.Props)
		if err != nil {
			return nil, fmt.Errorf("pg: read json: node %d: %w", n.ID, err)
		}
		nodes[i] = Node{ID: n.ID, Label: n.Label, Props: props}
		nextNode = max(nextNode, n.ID+1)
	}
	var nextEdge EdgeID
	edges := make([]Edge, len(doc.Edges))
	for i, e := range doc.Edges {
		if int64(e.ID) >= idLimit(len(doc.Edges)) {
			return nil, fmt.Errorf("pg: read json: edge id %d at or above %d for %d edges", e.ID, idLimit(len(doc.Edges)), len(doc.Edges))
		}
		props, err := jsonRecord(&b, e.Props)
		if err != nil {
			return nil, fmt.Errorf("pg: read json: edge %d: %w", e.ID, err)
		}
		edges[i] = Edge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: props}
		nextEdge = max(nextEdge, e.ID+1)
	}
	return restore("read json", nodes, edges, nextNode, nextEdge)
}

// idLimit bounds the IDs a document of n nodes, or of n edges, may use. A
// graph keeps a slot per ID below its counter, so one stray huge ID would
// allocate for elements that do not exist. A graph written after removals
// reads back while fewer than 2^16 of its IDs, or than three in four, are
// gaps.
func idLimit(n int) int64 { return 4*int64(n) + 1<<16 }

// jsonRecord builds the record of one element's raw "props" object with b.
func jsonRecord(b *RecordBuilder, raw json.RawMessage) (Record, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return Record{}, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return Record{}, fmt.Errorf("props is not an object")
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return Record{}, err
		}
		key := tok.(string) // an object's tokens alternate key, value
		if tok, err = dec.Token(); err != nil {
			return Record{}, err
		}
		switch v := tok.(type) {
		case string, float64, bool:
			b.Set(key, v) // of the four kinds, so no error
		case nil:
			return Record{}, fmt.Errorf("property %q: unsupported value null (want a string, number or bool)", key)
		default: // json.Delim: an array or object
			what := "an array"
			if v == json.Delim('{') {
				what = "an object"
			}
			return Record{}, fmt.Errorf("property %q: unsupported value: %s (want a string, number or bool)", key, what)
		}
	}
	return b.Record(), nil
}
