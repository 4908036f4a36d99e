// WAL record codec: one Record per committed graph mutation, encoded in a
// compact self-describing binary form. The decoder is deliberately paranoid
// — every length is bounds-checked against the remaining buffer before any
// allocation, because it feeds on bytes that survived a crash (and on fuzz
// input). A record that does not decode cleanly and completely is corrupt.
package persist

import (
	"encoding/binary"
	"fmt"
	"math"

	"vadalink/internal/pg"
)

// Op discriminates WAL record types.
type Op byte

// WAL operations, mirroring pg's mutation kinds. Records are
// self-describing (the op byte selects the wire shape), so adding
// OpSetEdgeWeight and OpRemoveNode version-gated the format for free: logs
// written before those ops existed contain only the first three and decode
// unchanged, while old decoders meeting a new op fail loudly as "unknown
// op" instead of misreading it.
const (
	OpAddNode Op = 1 + iota
	OpAddEdge
	OpRemoveEdge
	OpSetEdgeWeight
	OpRemoveNode
	// OpEpoch is a replication-epoch mark, not a graph mutation: the epoch
	// number sits where a mutation's identifier does, followed by the
	// sequence number the epoch opened at. It is sequence-neutral
	// (pg.Graph.Seq stays a pure function of graph state), so recovery and
	// followers record it instead of replaying it onto the graph.
	OpEpoch
)

// Record is one WAL record: a graph mutation, or — when Mutation.Kind is
// zero — a replication-epoch mark. A mutation names its element by
// identifier, and recovery replays it through pg.Graph.Replay, which refuses
// one whose identifiers the graph would not assign: a log applied to the
// wrong base state fails loudly instead of silently weaving a graph that
// never existed. On the wire a removal carries only its identifier and a
// weight edit only its identifier and weight.
type Record struct {
	Mutation pg.Mutation
	Epoch    EpochMark
}

// appendRecord appends the encoding of r to buf and returns the result. A
// property goes on the wire as its key, its kind byte (pg.KindString,
// KindFloat, KindInt or KindBool: 's', 'f', 'i', 'b') and its value.
func appendRecord(buf []byte, r Record) ([]byte, error) {
	m := r.Mutation
	var props pg.Record
	switch m.Kind {
	case 0:
		buf = append(buf, byte(OpEpoch))
		buf = binary.AppendVarint(buf, int64(r.Epoch.Epoch))
		return binary.AppendVarint(buf, r.Epoch.StartSeq), nil
	case pg.MutAddNode:
		buf = append(buf, byte(OpAddNode))
		buf = binary.AppendVarint(buf, int64(m.Node.ID))
		buf = appendString(buf, string(m.Node.Label))
		props = m.Node.Props
	case pg.MutAddEdge:
		buf = append(buf, byte(OpAddEdge))
		buf = binary.AppendVarint(buf, int64(m.Edge.ID))
		buf = appendString(buf, string(m.Edge.Label))
		buf = binary.AppendVarint(buf, int64(m.Edge.From))
		buf = binary.AppendVarint(buf, int64(m.Edge.To))
		props = m.Edge.Props
	case pg.MutRemoveEdge:
		buf = append(buf, byte(OpRemoveEdge))
		return binary.AppendVarint(buf, int64(m.Edge.ID)), nil
	case pg.MutRemoveNode:
		buf = append(buf, byte(OpRemoveNode))
		return binary.AppendVarint(buf, int64(m.Node.ID)), nil
	case pg.MutSetEdgeWeight:
		w, ok := m.Edge.Weight()
		if !ok {
			return nil, fmt.Errorf("persist: weight edit of edge %d carries no weight", m.Edge.ID)
		}
		buf = append(buf, byte(OpSetEdgeWeight))
		buf = binary.AppendVarint(buf, int64(m.Edge.ID))
		return binary.LittleEndian.AppendUint64(buf, math.Float64bits(w)), nil
	default:
		return nil, fmt.Errorf("persist: unknown mutation kind %d", m.Kind)
	}
	// A record is sorted by key, which makes the encoding canonical: the
	// same record always produces the same bytes, so decode∘encode is the
	// identity and the fuzz harness can assert it.
	buf = binary.AppendUvarint(buf, uint64(props.Len()))
	for i := range props.Len() {
		k, v := props.Field(i)
		buf = appendString(buf, k)
		buf = append(buf, byte(v.Kind()))
		switch v.Kind() {
		case pg.KindString:
			buf = appendString(buf, v.Str())
		case pg.KindFloat:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Float()))
		case pg.KindInt:
			buf = binary.AppendVarint(buf, v.Int())
		default: // pg.KindBool
			if v.Bool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		}
	}
	return buf, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// decodeRecord parses one record payload. The whole buffer must be consumed
// — trailing garbage means the frame length lied, which means corruption.
func decodeRecord(b []byte) (Record, error) {
	d := decoder{b: b}
	var r Record
	op, ok := d.byte()
	if !ok {
		return r, errTruncatedRecord
	}
	id, ok := d.varint()
	if !ok {
		return r, errTruncatedRecord
	}
	switch Op(op) {
	case OpAddNode:
		label, ok := d.str()
		if !ok {
			return r, errTruncatedRecord
		}
		props, err := d.props()
		if err != nil {
			return r, err
		}
		r.Mutation = pg.Mutation{Kind: pg.MutAddNode, Node: &pg.Node{ID: pg.NodeID(id), Label: pg.Label(label), Props: props}}
	case OpAddEdge:
		label, ok := d.str()
		if !ok {
			return r, errTruncatedRecord
		}
		from, ok := d.varint()
		if !ok {
			return r, errTruncatedRecord
		}
		to, ok := d.varint()
		if !ok {
			return r, errTruncatedRecord
		}
		props, err := d.props()
		if err != nil {
			return r, err
		}
		r.Mutation = pg.Mutation{Kind: pg.MutAddEdge, Edge: &pg.Edge{ID: pg.EdgeID(id), Label: pg.Label(label),
			From: pg.NodeID(from), To: pg.NodeID(to), Props: props}}
	case OpRemoveEdge:
		r.Mutation = pg.Mutation{Kind: pg.MutRemoveEdge, Edge: &pg.Edge{ID: pg.EdgeID(id)}}
	case OpRemoveNode:
		r.Mutation = pg.Mutation{Kind: pg.MutRemoveNode, Node: &pg.Node{ID: pg.NodeID(id)}}
	case OpSetEdgeWeight:
		v, ok := d.u64()
		if !ok {
			return r, errTruncatedRecord
		}
		d.rb.Float(pg.WeightProp, math.Float64frombits(v))
		r.Mutation = pg.Mutation{Kind: pg.MutSetEdgeWeight, Edge: &pg.Edge{ID: pg.EdgeID(id), Props: d.rb.Record()}}
	case OpEpoch:
		start, ok := d.varint()
		if !ok {
			return r, errTruncatedRecord
		}
		r.Epoch = EpochMark{Epoch: uint64(id), StartSeq: start}
	default:
		return r, fmt.Errorf("persist: unknown op %d", op)
	}
	if len(d.b) != d.off {
		return r, fmt.Errorf("persist: %d trailing bytes after record", len(d.b)-d.off)
	}
	return r, nil
}

// props parses a property record: a count, then key/kind/value triples.
func (d *decoder) props() (pg.Record, error) {
	n, ok := d.uvarint()
	if !ok {
		return pg.Record{}, errTruncatedRecord
	}
	// Each property needs at least 3 bytes (empty key, kind, empty value);
	// a count beyond that is a lie about the buffer.
	if n > uint64(len(d.b)-d.off) {
		return pg.Record{}, fmt.Errorf("persist: property count %d exceeds record size", n)
	}
	b := &d.rb
	for i := uint64(0); i < n; i++ {
		k, ok := d.str()
		if !ok {
			return pg.Record{}, errTruncatedRecord
		}
		kind, ok := d.byte()
		if !ok {
			return pg.Record{}, errTruncatedRecord
		}
		switch pg.Kind(kind) {
		case pg.KindString:
			v, ok := d.str()
			if !ok {
				return pg.Record{}, errTruncatedRecord
			}
			b.Str(k, v)
		case pg.KindFloat:
			v, ok := d.u64()
			if !ok {
				return pg.Record{}, errTruncatedRecord
			}
			b.Float(k, math.Float64frombits(v))
		case pg.KindInt:
			v, ok := d.varint()
			if !ok {
				return pg.Record{}, errTruncatedRecord
			}
			b.Int(k, v)
		case pg.KindBool:
			v, ok := d.byte()
			if !ok {
				return pg.Record{}, errTruncatedRecord
			}
			b.Bool(k, v != 0)
		default:
			return pg.Record{}, fmt.Errorf("persist: unknown property tag %q", kind)
		}
	}
	return b.Record(), nil
}

var errTruncatedRecord = fmt.Errorf("persist: truncated record")

// decoder is a bounds-checked cursor over a record payload.
type decoder struct {
	b   []byte
	off int
	rb  pg.RecordBuilder
}

func (d *decoder) byte() (byte, bool) {
	if d.off >= len(d.b) {
		return 0, false
	}
	v := d.b[d.off]
	d.off++
	return v, true
}

func (d *decoder) varint() (int64, bool) {
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *decoder) uvarint() (uint64, bool) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, false
	}
	d.off += n
	return v, true
}

func (d *decoder) str() (string, bool) {
	n, ok := d.uvarint()
	if !ok || n > uint64(len(d.b)-d.off) {
		return "", false
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, true
}

func (d *decoder) u64() (uint64, bool) {
	if len(d.b)-d.off < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, true
}
