package datalog

import (
	"math/bits"
	"slices"
)

// The record store under the chase (DESIGN.md §7.1, §7.8): value rows in one
// arena per relation, deduplicated through an open-addressing table of row
// numbers, with lazily built per-position indexes of the same kind.

// tuples is an append-only set of fixed-arity value rows. Row i is
// cells[i*arity : (i+1)*arity]. slots is an open-addressing table (linear
// probing, power-of-two size, at most 3/4 full) of the rows: 0 marks an
// empty slot, anything else is the row's folded hash << 32 | row + 1.
type tuples struct {
	arity int
	n     int
	cells []value
	slots []uint64
}

// fold folds a 64-bit hash to the 32 bits a table entry keeps; a table
// position is its low bits, so a table can rehash without the rows.
func fold(h uint64) uint32 { return uint32(h ^ h>>32) }

// tableSize is the smallest table of at least 8 slots that holds n entries.
func tableSize(n int) int {
	s := 8
	for s*3 < n*4 {
		s <<= 1
	}
	return s
}

func (t *tuples) row(i int) []value {
	j := i * t.arity
	return t.cells[j : j+t.arity : j+t.arity]
}

// reserve sizes an empty set for n rows. Its arena and table are kept when
// they are big enough: an empty set's table is clear (relation.reset).
func (t *tuples) reserve(n int) {
	if cap(t.cells) < n*t.arity {
		t.cells = make([]value, 0, n*t.arity)
	}
	if len(t.slots) < tableSize(n) {
		t.slots = make([]uint64, tableSize(n))
	}
}

// zeroed returns s resized to n elements, all zero, in its own array when
// that is big enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// find returns the number of the row equal to row (whose hash is h).
func (t *tuples) find(sy *symtab, row []value, h uint64) (int, bool) {
	if t.n == 0 {
		return -1, false
	}
	h32 := fold(h)
	mask := uint32(len(t.slots) - 1)
	for i := h32 & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, false
		}
		if uint32(s>>32) == h32 {
			if r := int(uint32(s)) - 1; sy.rowEq(t.row(r), row) {
				return r, true
			}
		}
	}
}

// add appends a copy of row (whose hash is h) unless an equal row is
// present. It returns the row's number and whether it is new.
func (t *tuples) add(sy *symtab, row []value, h uint64) (int, bool) {
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	h32 := fold(h)
	mask := uint32(len(t.slots) - 1)
	for i := h32 & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			t.slots[i] = uint64(h32)<<32 | uint64(t.n+1)
			t.cells = append(t.cells, row...)
			t.n++
			return t.n - 1, true
		}
		if uint32(s>>32) == h32 {
			if r := int(uint32(s)) - 1; sy.rowEq(t.row(r), row) {
				return r, false
			}
		}
	}
}

func (t *tuples) grow() {
	old := t.slots
	t.slots = make([]uint64, max(8, 2*len(old)))
	mask := uint32(len(t.slots) - 1)
	for _, s := range old {
		if s == 0 {
			continue
		}
		i := uint32(s>>32) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// relation stores the rows of one predicate at one arity, with lazily built
// per-position indexes for joins. An index position is built the first time
// a lookup probes it and maintained by insert from then on, so a semi-naive
// delta insert stays O(#built positions).
type relation struct {
	pred string
	tuples

	// index holds one posIndex per indexable position (the first 64),
	// allocated at the first insert; built has bit p set once index[p] is
	// built.
	index []posIndex
	built uint64

	// other is the relation of the same predicate at another arity.
	other *relation

	// Rows from lo on were appended during round seq (the round's delta).
	seq, lo int

	// dead has bit i set while row i is superseded: it records a total its
	// aggregate group has since improved past (DESIGN.md §5). Every reader
	// skips such a row. nsuper counts them; dead stays nil in a relation no
	// aggregate target is written to.
	dead   []uint64
	nsuper int
}

// reset empties r for Engine.Reset, keeping its row arena, its dedup
// table, cleared, and its index tables, which ensureIndex clears when it
// builds on them.
func (r *relation) reset() {
	r.n, r.cells = 0, r.cells[:0]
	clear(r.slots)
	r.index, r.built = r.index[:0], 0
	r.seq, r.lo = 0, 0
	r.dead, r.nsuper = r.dead[:0], 0
}

func (r *relation) hasIndex(pos int) bool {
	return pos < 64 && r.built&(1<<uint(pos)) != 0
}

// superseded reports whether row is superseded.
func (r *relation) superseded(row int) bool {
	w := row >> 6
	return w < len(r.dead) && r.dead[w]&(1<<uint(row&63)) != 0
}

// supersede marks row superseded (on) or current again.
func (r *relation) supersede(row int, on bool) {
	if on == r.superseded(row) {
		return
	}
	for len(r.dead) <= row>>6 {
		r.dead = append(r.dead, 0)
	}
	r.dead[row>>6] ^= 1 << uint(row&63)
	if on {
		r.nsuper++
	} else {
		r.nsuper--
	}
}

// insert adds row unless present, maintaining every built index. It returns
// the row's number, whether it is new, and the index bytes it added.
func (r *relation) insert(sy *symtab, row []value) (int, bool, int) {
	i, ok := r.add(sy, row, sy.hashRow(row))
	if !ok {
		return i, false, 0
	}
	sy.pin()
	if len(r.index) == 0 {
		k := min(r.arity, 64)
		r.index = slices.Grow(r.index, k)[:k]
	}
	bytes := 0
	for m := r.built; m != 0; m &= m - 1 {
		pos := bits.TrailingZeros64(m)
		x := &r.index[pos]
		x.next = append(x.next, 0)
		bytes += linkBytes + x.file(sy, r, pos, i)
	}
	return i, true, bytes
}

// ensureIndex builds the positional index for pos if missing, returning the
// index bytes it added and whether this call performed the build.
func (r *relation) ensureIndex(sy *symtab, pos int) (int, bool) {
	if pos < 0 || pos >= len(r.index) || r.hasIndex(pos) {
		return 0, false
	}
	x := &r.index[pos]
	x.buckets, x.distinct = zeroed(x.buckets, tableSize(r.n)), 0
	x.next = zeroed(x.next, r.n)
	for row := 0; row < r.n; row++ {
		x.file(sy, r, pos, row)
	}
	r.built |= 1 << uint(pos)
	return bucketBytes*len(x.buckets) + linkBytes*len(x.next), true
}

// Index memory (Budget.MaxIndexBytes): a bucket table slot and a chain link
// per row. Both only grow, so the estimate is monotone.
const (
	bucketBytes = 16
	linkBytes   = 4
)

// posIndex indexes one argument position: an open-addressing table (linear
// probing, power-of-two size, at most 3/4 full) of one bucket per distinct
// value, each the chain of the rows holding it in row order, linked through
// next.
type posIndex struct {
	buckets  []bucket
	distinct int
	next     []uint32 // next[row]: the following row of row's bucket
}

// bucket is one distinct value's chain: first and last row and length. An
// empty table slot has n == 0.
type bucket struct {
	h32, first, last, n uint32
}

// file links row into the bucket of its value at pos, returning the bytes
// the table grew by.
func (x *posIndex) file(sy *symtab, r *relation, pos, row int) int {
	bytes := 0
	if (x.distinct+1)*4 > len(x.buckets)*3 {
		bytes = x.grow()
	}
	v := r.cells[row*r.arity+pos]
	h32 := fold(sy.hash(v))
	mask := uint32(len(x.buckets) - 1)
	for i := h32 & mask; ; i = (i + 1) & mask {
		b := &x.buckets[i]
		if b.n == 0 {
			*b = bucket{h32, uint32(row), uint32(row), 1}
			x.distinct++
			return bytes
		}
		if b.h32 == h32 && sy.eq(r.cells[int(b.first)*r.arity+pos], v) {
			x.next[b.last] = uint32(row)
			b.last = uint32(row)
			b.n++
			return bytes
		}
	}
}

// find returns the bucket of v at pos (n == 0 when no row holds v).
func (x *posIndex) find(sy *symtab, r *relation, pos int, v value) bucket {
	h32 := fold(sy.hash(v))
	mask := uint32(len(x.buckets) - 1)
	for i := h32 & mask; ; i = (i + 1) & mask {
		b := x.buckets[i]
		if b.n == 0 || b.h32 == h32 && sy.eq(r.cells[int(b.first)*r.arity+pos], v) {
			return b
		}
	}
}

func (x *posIndex) grow() int {
	old := x.buckets
	x.buckets = make([]bucket, 2*len(old))
	mask := uint32(len(x.buckets) - 1)
	for _, b := range old {
		if b.n == 0 {
			continue
		}
		i := b.h32 & mask
		for x.buckets[i].n != 0 {
			i = (i + 1) & mask
		}
		x.buckets[i] = b
	}
	return bucketBytes * (len(x.buckets) - len(old))
}

// probe is the candidate set of one lookup: n rows of r from row lo on,
// consecutive, or along a bucket chain when next is set. The headers are
// taken at lookup time and rows only append, so a join level iterating a
// probe sees the relation as of its lookup even while its own emissions
// append to the same relation and bucket.
type probe struct {
	r     *relation
	cells []value
	next  []uint32
	lo, n int
}

// rows is the probe of r's rows lo..hi-1.
func (r *relation) rows(lo, hi int) probe {
	return probe{r: r, cells: r.cells, lo: lo, n: hi - lo}
}

// chain is the probe of one bucket of the index at pos.
func (r *relation) chain(pos int, b bucket) probe {
	return probe{r: r, cells: r.cells, next: r.index[pos].next, lo: int(b.first), n: int(b.n)}
}

// at returns the cells of row.
func (p *probe) at(row int) []value {
	a := p.r.arity
	return p.cells[row*a : row*a+a : row*a+a]
}

// step returns the row after row.
func (p *probe) step(row int) int {
	if p.next != nil {
		return int(p.next[row])
	}
	return row + 1
}
