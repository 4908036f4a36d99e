// Package store persists property graphs as versioned binary snapshots —
// the durable layer of the §5 architecture (the paper uses Neo4j purely as
// a store; this package plays that role without leaving the stdlib).
//
// Format: a magic header, a format version, then the gob-encoded graph
// payload. Snapshots are written atomically (temp file + rename) so a crash
// mid-save never corrupts the previous snapshot.
//
// Version 2 (current) preserves node and edge identifiers verbatim plus the
// graph's internal ID counters, so a write-ahead log recorded against the
// live graph replays against the restored one with identical identifier
// assignment (internal/persist depends on this). Version 1 snapshots remain
// readable; their edge IDs are reassigned densely in snapshot order, as that
// format always did.
package store

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vadalink/internal/pg"
)

const (
	magic   = "VADALINK-KG"
	version = 2
)

// payload is the gob-encoded snapshot body. NextNode/NextEdge are the
// graph's ID counters (version 2; zero in version-1 snapshots, where they
// are reconstructed as "dense"). WeightEdits is the graph's weight-edit
// counter, part of the WAL-position arithmetic (pg.Graph.Seq); gob
// field semantics version-gate it for free — snapshots written before the
// field existed decode with WeightEdits == 0, which is correct because that
// code could not log weight edits.
type payload struct {
	Nodes       []nodeRec
	Edges       []edgeRec
	NextNode    int64
	NextEdge    int64
	WeightEdits int64
}

type nodeRec struct {
	ID    pg.NodeID
	Label pg.Label
	Props map[string]any
}

type edgeRec struct {
	ID    pg.EdgeID
	Label pg.Label
	From  pg.NodeID
	To    pg.NodeID
	Props map[string]any
}

func init() {
	// Property values are scalars; register the concrete types gob meets
	// inside the any-valued maps.
	gob.Register(float64(0))
	gob.Register(int64(0))
	gob.Register("")
	gob.Register(true)
}

// Write serializes the graph to w.
func Write(w io.Writer, g *pg.Graph) error {
	header := append([]byte(magic), byte(version))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("store: writing header: %w", err)
	}
	p := payload{
		NextNode:    int64(g.NextNodeID()),
		NextEdge:    int64(g.NextEdgeID()),
		WeightEdits: g.WeightEdits(),
	}
	for _, id := range g.Nodes() {
		n := g.Node(id)
		p.Nodes = append(p.Nodes, nodeRec{ID: n.ID, Label: n.Label, Props: n.Props})
	}
	for _, id := range g.Edges() {
		e := g.Edge(id)
		p.Edges = append(p.Edges, edgeRec{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: e.Props})
	}
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("store: encoding graph: %w", err)
	}
	return nil
}

// Read parses a snapshot produced by Write. Node and edge identifiers and
// the graph's ID counters are preserved (version 2); for legacy version-1
// snapshots edge identifiers are assigned afresh in snapshot order, as
// before.
func Read(r io.Reader) (*pg.Graph, error) {
	header := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("store: reading header: %w", err)
	}
	if string(header[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: not a vadalink snapshot (magic %q)", header[:len(magic)])
	}
	got := int(header[len(magic)])
	if got != 1 && got != version {
		return nil, fmt.Errorf("store: snapshot version %d not supported (want 1 or %d)", got, version)
	}
	var p payload
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("store: decoding graph: %w", err)
	}
	if got == 1 {
		// Legacy rebuild: preserve node IDs, reassign edge IDs densely.
		g := pg.New()
		if err := rebuild(g, p); err != nil {
			return nil, err
		}
		return g, nil
	}
	nodes := make([]pg.Node, len(p.Nodes))
	for i, n := range p.Nodes {
		nodes[i] = pg.Node{ID: n.ID, Label: n.Label, Props: pg.Properties(n.Props)}
	}
	edges := make([]pg.Edge, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = pg.Edge{ID: e.ID, Label: e.Label, From: e.From, To: e.To, Props: pg.Properties(e.Props)}
	}
	g, err := pg.Restore(nodes, edges, pg.NodeID(p.NextNode), pg.EdgeID(p.NextEdge))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	g.SetWeightEdits(p.WeightEdits)
	return g, nil
}

// rebuild restores nodes and edges with their original IDs via the public
// pg surface: nodes must be added in ID order (pg assigns sequential IDs).
func rebuild(g *pg.Graph, p payload) error {
	expect := pg.NodeID(0)
	for _, n := range p.Nodes {
		if n.ID != expect {
			// Fill gaps from removed nodes by adding placeholders is wrong;
			// snapshots of graphs always have dense node IDs because pg
			// never removes nodes. A sparse snapshot is corrupt.
			return fmt.Errorf("store: non-sequential node id %d (want %d)", n.ID, expect)
		}
		props := pg.Properties{}
		for k, v := range n.Props {
			props[k] = v
		}
		g.AddNode(n.Label, props)
		expect++
	}
	for _, e := range p.Edges {
		props := pg.Properties{}
		for k, v := range e.Props {
			props[k] = v
		}
		if _, err := g.AddEdge(e.Label, e.From, e.To, props); err != nil {
			return fmt.Errorf("store: restoring edge %d: %w", e.ID, err)
		}
	}
	return nil
}

// Save writes the graph to path atomically (temp file in the same directory,
// fsync, rename).
func Save(path string, g *pg.Graph) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".vadalink-snapshot-*")
	if err != nil {
		return fmt.Errorf("store: creating temp snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Write(tmp, g); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	return nil
}

// Load reads a snapshot from path.
func Load(path string) (*pg.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: opening snapshot: %w", err)
	}
	defer f.Close()
	return Read(f)
}
