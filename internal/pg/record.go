package pg

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Typed property storage (DESIGN.md §11.1.1). An element holds its
// properties as one Record: an immutable string that packs a field count,
// then one fixed-size slot per property, sorted by key, then the bytes of
// the string values:
//
//	record := uvarint(n) n×slot arena
//	slot   := u32le key | kind | u64le payload
//
// A key is an index into the process-wide key table, so a slot holds no
// string header. A number or a bool lives in the payload; a string's payload
// is its offset (high 32 bits) and length (low 32 bits) within the record,
// so reading one slices the record and allocates nothing. A record is one
// allocation, holds no pointer the garbage collector must scan, and, being a
// string, cannot be written once built.

// Kind is the kind of a property value. The kinds are the tags the WAL and
// snapshot codec writes (internal/persist), so a value goes to disk as its
// kind byte and payload.
type Kind uint8

// The four property kinds. A Go int is stored as KindInt, and the share
// amount WeightProp always as KindFloat.
const (
	KindString Kind = 's'
	KindFloat  Kind = 'f'
	KindInt    Kind = 'i'
	KindBool   Kind = 'b'
)

// Scalar is one property value: its kind and 64-bit payload, or its string.
// The zero Scalar is no value.
type Scalar struct {
	kind Kind
	bits uint64
	str  string
}

// Kind returns the value's kind, or 0 for no value.
func (v Scalar) Kind() Kind { return v.kind }

// Str returns a KindString value, or "".
func (v Scalar) Str() string { return v.str }

// Float returns a KindFloat value, or 0.
func (v Scalar) Float() float64 {
	if v.kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.bits)
}

// Int returns a KindInt value, or 0.
func (v Scalar) Int() int64 {
	if v.kind != KindInt {
		return 0
	}
	return int64(v.bits)
}

// Bool returns a KindBool value, or false.
func (v Scalar) Bool() bool { return v.kind == KindBool && v.bits != 0 }

// Num returns a KindFloat or KindInt value as a float64, and whether v is a
// number.
func (v Scalar) Num() (float64, bool) {
	switch v.kind {
	case KindFloat:
		return math.Float64frombits(v.bits), true
	case KindInt:
		return float64(int64(v.bits)), true
	}
	return 0, false
}

// Any boxes the value as the Value a Properties map holds: a string,
// float64, int64 or bool, or nil for no value.
func (v Scalar) Any() Value {
	switch v.kind {
	case KindString:
		return v.str
	case KindFloat:
		return math.Float64frombits(v.bits)
	case KindInt:
		return int64(v.bits)
	case KindBool:
		return v.bits != 0
	}
	return nil
}

// scalarOf converts a Properties value. A Go int becomes an int64; any type
// outside the four kinds is refused.
func scalarOf(a Value) (Scalar, bool) {
	switch x := a.(type) {
	case string:
		return Scalar{kind: KindString, str: x}, true
	case float64:
		return Scalar{kind: KindFloat, bits: math.Float64bits(x)}, true
	case int64:
		return Scalar{kind: KindInt, bits: uint64(x)}, true
	case int:
		return Scalar{kind: KindInt, bits: uint64(int64(x))}, true
	case bool:
		if x {
			return Scalar{kind: KindBool, bits: 1}, true
		}
		return Scalar{kind: KindBool}, true
	}
	return Scalar{}, false
}

// Record is an element's properties: immutable, map-free and sorted by key.
// The zero Record has no properties. Records compare with ==.
type Record struct{ b string }

// slotLen is the size of one field's slot: key, kind and payload.
const slotLen = 4 + 1 + 8

// fields returns the number of fields and the offset of the first slot.
func (r Record) fields() (n, base int) {
	if r.b == "" {
		return 0, 0
	}
	if c := r.b[0]; c < 0x80 {
		return int(c), 1
	}
	var x uint64
	for i, shift := 0, uint(0); ; i, shift = i+1, shift+7 {
		c := r.b[i]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return int(x), i + 1
		}
	}
}

// key decodes the key of the slot at offset off.
func (r Record) key(off int) uint32 {
	s := r.b[off : off+4]
	return uint32(s[0]) | uint32(s[1])<<8 | uint32(s[2])<<16 | uint32(s[3])<<24
}

// slot decodes the slot at offset off.
func (r Record) slot(off int) (key uint32, v Scalar) {
	s := r.b[off : off+slotLen]
	key = r.key(off)
	v.kind = Kind(s[4])
	v.bits = uint64(s[5]) | uint64(s[6])<<8 | uint64(s[7])<<16 | uint64(s[8])<<24 |
		uint64(s[9])<<32 | uint64(s[10])<<40 | uint64(s[11])<<48 | uint64(s[12])<<56
	if v.kind == KindString {
		start := int(v.bits >> 32)
		v.str, v.bits = r.b[start:start+int(v.bits&math.MaxUint32)], 0
	}
	return key, v
}

// Len reports the number of properties.
func (r Record) Len() int {
	n, _ := r.fields()
	return n
}

// Field returns the i-th property in key order, 0 ≤ i < Len().
func (r Record) Field(i int) (key string, v Scalar) {
	n, base := r.fields()
	if i < 0 || i >= n {
		panic(fmt.Sprintf("pg: record field %d of %d", i, n))
	}
	id, v := r.slot(base + i*slotLen)
	return keyName(id), v
}

// Lookup returns the property named key, and whether it is set.
func (r Record) Lookup(key string) (Scalar, bool) {
	if id, ok := wellKnownKey(key); ok {
		return r.lookupID(id)
	}
	n, base := r.fields()
	names := *keys.names.Load()
	for off := base; off < base+n*slotLen; off += slotLen {
		if names[r.key(off)] == key {
			_, v := r.slot(off)
			return v, true
		}
	}
	return Scalar{}, false
}

// lookupID returns the property whose interned key is id.
func (r Record) lookupID(id uint32) (Scalar, bool) {
	n, base := r.fields()
	for off := base; off < base+n*slotLen; off += slotLen {
		if r.key(off) == id {
			_, v := r.slot(off)
			return v, true
		}
	}
	return Scalar{}, false
}

// Get returns the property named key boxed as a Value, and whether it is
// set. Hot readers use Lookup, Str or Num, which box nothing.
func (r Record) Get(key string) (Value, bool) {
	v, ok := r.Lookup(key)
	return v.Any(), ok
}

// Str returns the string property named key, and whether it is set to a
// string.
func (r Record) Str(key string) (string, bool) {
	v, ok := r.Lookup(key)
	return v.str, ok && v.kind == KindString
}

// Num returns the numeric property named key as a float64, and whether it
// is set to a float64 or an int64.
func (r Record) Num(key string) (float64, bool) {
	v, _ := r.Lookup(key)
	return v.Num()
}

// Map returns the properties as a new Properties map, or nil for none.
func (r Record) Map() Properties {
	n, base := r.fields()
	if n == 0 {
		return nil
	}
	m := make(Properties, n)
	names := *keys.names.Load()
	for off := base; off < base+n*slotLen; off += slotLen {
		id, v := r.slot(off)
		m[names[id]] = v.Any()
	}
	return m
}

// with returns a copy of r whose property key is v.
func (r Record) with(key uint32, v Scalar) Record {
	n, base := r.fields()
	fs := make([]field, 0, n+1)
	for off := base; off < base+n*slotLen; off += slotLen {
		id, x := r.slot(off)
		fs = append(fs, field{id, x})
	}
	return encode(append(fs, field{key, v}))
}

func (r Record) record() (Record, error) { return r, nil }

// PropSource is what AddNode and AddEdge take as an element's properties: a
// Properties map, converted and checked on the way in, or a Record, held
// as it is (an element's own Props, say, shared rather than copied). A nil
// PropSource is no properties.
type PropSource interface {
	record() (Record, error)
}

func (p Properties) record() (Record, error) { return NewRecord(p) }

// recordOf converts props, nil included.
func recordOf(props PropSource) (Record, error) {
	if props == nil {
		return Record{}, nil
	}
	return props.record()
}

// NewRecord converts a Properties map. It refuses a value outside the four
// kinds with an error naming its key, stores a Go int as an int64 and a
// numeric share amount (WeightProp) as a float64.
func NewRecord(p Properties) (Record, error) {
	if len(p) == 0 {
		return Record{}, nil
	}
	var b RecordBuilder
	for k, v := range p {
		if err := b.Set(k, v); err != nil {
			return Record{}, err
		}
	}
	return b.Record(), nil
}

// RecordBuilder assembles a Record property by property, with no
// intermediate map. The zero value is ready to use, and Record resets it for
// the next one. Setting a key twice keeps the last value.
type RecordBuilder struct{ fields []field }

// field is one property of a record under construction.
type field struct {
	key uint32
	v   Scalar
}

// Str sets a string property.
func (b *RecordBuilder) Str(key, v string) { b.put(key, Scalar{kind: KindString, str: v}) }

// Float sets a float64 property.
func (b *RecordBuilder) Float(key string, v float64) {
	b.put(key, Scalar{kind: KindFloat, bits: math.Float64bits(v)})
}

// Int sets an int64 property.
func (b *RecordBuilder) Int(key string, v int64) { b.put(key, Scalar{kind: KindInt, bits: uint64(v)}) }

// Bool sets a bool property.
func (b *RecordBuilder) Bool(key string, v bool) {
	s := Scalar{kind: KindBool}
	if v {
		s.bits = 1
	}
	b.put(key, s)
}

// Set sets a property from a Properties value, refusing one outside the
// four kinds with an error naming key.
func (b *RecordBuilder) Set(key string, v Value) error {
	s, ok := scalarOf(v)
	if !ok {
		return fmt.Errorf("property %q: unsupported value %v of type %T (want string, float64, int64 or bool)", key, v, v)
	}
	b.put(key, s)
	return nil
}

func (b *RecordBuilder) put(key string, v Scalar) {
	b.fields = append(b.fields, field{internKey(key), v})
}

// Record returns the record built so far and resets b.
func (b *RecordBuilder) Record() Record {
	r := encode(b.fields)
	clear(b.fields)
	b.fields = b.fields[:0]
	return r
}

// encode packs fs into a record, sorting them by key name; of two fields
// with one key the later wins. It reorders fs.
func encode(fs []field) Record {
	if len(fs) == 0 {
		return Record{}
	}
	names := *keys.names.Load()
	// Insertion sort, stable: records are small, and decoded ones arrive
	// sorted already.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && names[fs[j].key] < names[fs[j-1].key]; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
	n, arena := 0, 0
	for i := range fs {
		if i+1 < len(fs) && fs[i+1].key == fs[i].key {
			continue // the later field wins
		}
		if fs[i].key == keyWeight && fs[i].v.kind == KindInt {
			fs[i].v = Scalar{kind: KindFloat, bits: math.Float64bits(float64(int64(fs[i].v.bits)))}
		}
		fs[n] = fs[i]
		n++
		arena += len(fs[i].v.str)
	}
	fs = fs[:n]
	var buf [slotLen]byte
	hdr := binary.AppendUvarint(buf[:0], uint64(n))
	size := len(hdr) + n*slotLen + arena
	if size > math.MaxUint32 {
		panic("pg: a record holds at most 4 GiB")
	}
	var sb strings.Builder
	sb.Grow(size)
	sb.Write(hdr)
	str := len(hdr) + n*slotLen // where the next string value goes
	for _, f := range fs {
		bits := f.v.bits
		if f.v.kind == KindString {
			bits = uint64(str)<<32 | uint64(len(f.v.str))
			str += len(f.v.str)
		}
		binary.LittleEndian.PutUint32(buf[:], f.key)
		buf[4] = byte(f.v.kind)
		binary.LittleEndian.PutUint64(buf[5:], bits)
		sb.Write(buf[:])
	}
	for _, f := range fs {
		sb.WriteString(f.v.str)
	}
	return Record{sb.String()}
}

// weightRecord is the record of a shareholding edge: w alone.
func weightRecord(w float64) Record {
	fs := [1]field{{keyWeight, Scalar{kind: KindFloat, bits: math.Float64bits(w)}}}
	return encode(fs[:])
}

// keys is the process-wide table of property keys. A key is interned the
// first time a record is built with it and keeps its index for the life of
// the process; the table holds one entry per distinct key name, which the
// schema bounds. Readers load names without a lock: an index a record holds
// was published before the record was built, and entries never change.
var keys struct {
	sync.Mutex
	ids   map[string]uint32
	names atomic.Pointer[[]string]
}

// The well-known keys, interned first so their indexes are constants.
var wellKnown = [...]string{WeightProp, "name", "surname", "birth", "addr", "city", "sector"}

// keyWeight is WeightProp's index.
const keyWeight = 0

func init() {
	names := wellKnown[:]
	keys.ids = make(map[string]uint32, len(names))
	for i, k := range names {
		keys.ids[k] = uint32(i)
	}
	names = append([]string(nil), names...)
	keys.names.Store(&names)
}

// wellKnownKey returns the index of a well-known key without a lock.
func wellKnownKey(k string) (uint32, bool) {
	switch k {
	case WeightProp:
		return keyWeight, true
	case "name":
		return 1, true
	case "surname":
		return 2, true
	case "birth":
		return 3, true
	case "addr":
		return 4, true
	case "city":
		return 5, true
	case "sector":
		return 6, true
	}
	return 0, false
}

// internKey returns k's index, interning it on first use.
func internKey(k string) uint32 {
	if id, ok := wellKnownKey(k); ok {
		return id
	}
	keys.Lock()
	defer keys.Unlock()
	if id, ok := keys.ids[k]; ok {
		return id
	}
	names := append(*keys.names.Load(), k)
	id := uint32(len(names) - 1)
	keys.ids[k] = id
	keys.names.Store(&names)
	return id
}

// keyName returns the name of an interned key.
func keyName(id uint32) string { return (*keys.names.Load())[id] }
