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
	"sort"

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

// Property value type tags.
const (
	tagString byte = 's'
	tagFloat  byte = 'f'
	tagInt    byte = 'i'
	tagBool   byte = 'b'
)

// appendRecord appends the encoding of r to buf and returns the result.
// Unsupported property value types are an error: the WAL must not silently
// drop state it cannot re-create.
func appendRecord(buf []byte, r Record) ([]byte, error) {
	m := r.Mutation
	var props pg.Properties
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
	buf = binary.AppendUvarint(buf, uint64(len(props)))
	// Sorted keys make the encoding canonical: the same record always
	// produces the same bytes, so decode∘encode is the identity and the
	// fuzz harness can assert it.
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := props[k]
		buf = appendString(buf, k)
		switch x := v.(type) {
		case string:
			buf = append(buf, tagString)
			buf = appendString(buf, x)
		case float64:
			buf = append(buf, tagFloat)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		case int64:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, x)
		case int:
			buf = append(buf, tagInt)
			buf = binary.AppendVarint(buf, int64(x))
		case bool:
			buf = append(buf, tagBool)
			if x {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		default:
			return nil, fmt.Errorf("persist: property %q has unloggable type %T", k, v)
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
	var props *pg.Properties
	switch Op(op) {
	case OpAddNode:
		n := &pg.Node{ID: pg.NodeID(id)}
		label, ok := d.str()
		if !ok {
			return r, errTruncatedRecord
		}
		n.Label = pg.Label(label)
		r.Mutation = pg.Mutation{Kind: pg.MutAddNode, Node: n}
		props = &n.Props
	case OpAddEdge:
		e := &pg.Edge{ID: pg.EdgeID(id)}
		label, ok := d.str()
		if !ok {
			return r, errTruncatedRecord
		}
		e.Label = pg.Label(label)
		from, ok := d.varint()
		if !ok {
			return r, errTruncatedRecord
		}
		to, ok := d.varint()
		if !ok {
			return r, errTruncatedRecord
		}
		e.From, e.To = pg.NodeID(from), pg.NodeID(to)
		r.Mutation = pg.Mutation{Kind: pg.MutAddEdge, Edge: e}
		props = &e.Props
	case OpRemoveEdge:
		r.Mutation = pg.Mutation{Kind: pg.MutRemoveEdge, Edge: &pg.Edge{ID: pg.EdgeID(id)}}
	case OpRemoveNode:
		r.Mutation = pg.Mutation{Kind: pg.MutRemoveNode, Node: &pg.Node{ID: pg.NodeID(id)}}
	case OpSetEdgeWeight:
		v, ok := d.u64()
		if !ok {
			return r, errTruncatedRecord
		}
		w := math.Float64frombits(v)
		r.Mutation = pg.Mutation{Kind: pg.MutSetEdgeWeight,
			Edge: &pg.Edge{ID: pg.EdgeID(id), Props: pg.Properties{pg.WeightProp: w}}}
	case OpEpoch:
		start, ok := d.varint()
		if !ok {
			return r, errTruncatedRecord
		}
		r.Epoch = EpochMark{Epoch: uint64(id), StartSeq: start}
	default:
		return r, fmt.Errorf("persist: unknown op %d", op)
	}
	if props != nil {
		p, err := d.props()
		if err != nil {
			return r, err
		}
		*props = p
	}
	if len(d.b) != d.off {
		return r, fmt.Errorf("persist: %d trailing bytes after record", len(d.b)-d.off)
	}
	return r, nil
}

// props parses a property map: a count, then sorted key/tag/value triples.
// An empty map decodes as nil.
func (d *decoder) props() (pg.Properties, error) {
	n, ok := d.uvarint()
	if !ok {
		return nil, errTruncatedRecord
	}
	// Each property needs at least 3 bytes (empty key, tag, empty value);
	// a count beyond that is a lie about the buffer.
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("persist: property count %d exceeds record size", n)
	}
	var props pg.Properties
	if n > 0 {
		props = make(pg.Properties, n)
	}
	for i := uint64(0); i < n; i++ {
		k, ok := d.str()
		if !ok {
			return nil, errTruncatedRecord
		}
		tag, ok := d.byte()
		if !ok {
			return nil, errTruncatedRecord
		}
		switch tag {
		case tagString:
			v, ok := d.str()
			if !ok {
				return nil, errTruncatedRecord
			}
			props[k] = v
		case tagFloat:
			v, ok := d.u64()
			if !ok {
				return nil, errTruncatedRecord
			}
			props[k] = math.Float64frombits(v)
		case tagInt:
			v, ok := d.varint()
			if !ok {
				return nil, errTruncatedRecord
			}
			props[k] = v
		case tagBool:
			v, ok := d.byte()
			if !ok {
				return nil, errTruncatedRecord
			}
			props[k] = v != 0
		default:
			return nil, fmt.Errorf("persist: unknown property tag %q", tag)
		}
	}
	return props, nil
}

var errTruncatedRecord = fmt.Errorf("persist: truncated record")

// decoder is a bounds-checked cursor over a record payload.
type decoder struct {
	b   []byte
	off int
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
