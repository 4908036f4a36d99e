// Package qcache is the query-result cache behind the goal-oriented read
// endpoints: marshaled responses keyed by (goal, bindings, program), stamped
// with the store.Versioned sequence they were computed at, and invalidated
// by the commit stream.
//
// The invalidation contract leans on the IVM commit classifier (ivm.ReachOf),
// which reports per commit whether it can move the derived relations at all
// and, if so, its reach: the sources (Up) and targets (Down) whose answers it
// can move. An entry anchored at the bound nodes of its question — a source
// x, a target y, or both — is evicted only when the commit reaches its
// anchor, so a shareholding edit in one corner of the registry leaves every
// other point answer standing at its older, still-exact seq. Unanchored
// derived entries (all-pairs and close-link answers, other goal predicates)
// drop on every relevant commit; entries computed from caller-supplied
// programs (ClassAny) cannot be classified against a fixed rule set and drop
// on every commit.
//
// Concurrency: lookups and stores take one mutex; misses are single-flight
// per key, so a thundering herd on a cold hot-key runs one chase, not N.
// A computation pinned at a sequence older than the newest commit the cache
// has been told about — a commit landed before it was stored, whether before
// or during the computation — is still returned to its waiters (their
// requests pinned the older version) but never stored, so no reader that
// arrives after the commit can observe pre-commit state.
package qcache

import (
	"container/list"
	"sync"

	"vadalink/internal/pg"
)

// Class says what can invalidate an entry. It is a small comparable value:
// ClassDerived and ClassAny are the unanchored classes, Anchored builds the
// anchored ones.
type Class struct {
	kind           classKind
	source, target pg.NodeID
}

type classKind uint8

const (
	derived classKind = iota
	anyCommit
	sourceAnchored
	targetAnchored
	pairAnchored
)

var (
	// ClassDerived marks answers over the built-in derived relations
	// (control, accown, closeLink, and their goal forms) with no anchor:
	// invalidated by every commit the IVM classifier deems relevant.
	ClassDerived = Class{kind: derived}
	// ClassAny marks answers of arbitrary caller-supplied programs: any
	// commit may change them, so every commit invalidates.
	ClassAny = Class{kind: anyCommit}
)

// Anchored classifies an answer over the built-in derived relations by the
// bound nodes of its question: source for "what does x control", target for
// "who controls y", both for a pair. nil leaves a side free; with both free
// the answer is plain ClassDerived. Such an answer reads only shareholding
// edges on paths from its source, into its target, or between the two, so
// it is evicted only by a commit whose reach covers every bound side.
func Anchored(source, target *pg.NodeID) Class {
	switch {
	case source != nil && target != nil:
		return Class{kind: pairAnchored, source: *source, target: *target}
	case source != nil:
		return Class{kind: sourceAnchored, source: *source}
	case target != nil:
		return Class{kind: targetAnchored, target: *target}
	}
	return ClassDerived
}

// Reach is the commit classifier's verdict on one journal (ivm.Reach
// implements it).
type Reach interface {
	// Relevant reports whether the commit can move any derived relation.
	Relevant() bool
	// Up reports whether it can move an answer anchored at source x.
	Up(x pg.NodeID) bool
	// Down reports whether it can move an answer anchored at target y.
	Down(y pg.NodeID) bool
}

// moved reports whether a commit with reach r can have changed an answer of
// class c.
func (c Class) moved(r Reach) bool {
	switch c.kind {
	case anyCommit:
		return true
	case derived:
		return r.Relevant()
	case sourceAnchored:
		return r.Relevant() && r.Up(c.source)
	case targetAnchored:
		return r.Relevant() && r.Down(c.target)
	default:
		return r.Relevant() && r.Up(c.source) && r.Down(c.target)
	}
}

// DefaultMaxBytes sizes the cache when the caller does not: 64 MiB of
// marshaled responses.
const DefaultMaxBytes = 64 << 20

// Stats is a point-in-time counter snapshot, surfaced in /v1/metrics.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// Kept counts derived entries left standing by a relevant commit: the
	// anchored answers its reach did not cover. Zero under write load with
	// invalidations growing means every commit flushes.
	Kept     uint64 `json:"kept"`
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"maxBytes"`
}

type entry struct {
	key   string
	val   []byte
	seq   uint64
	class Class
	elem  *list.Element
}

// call is one in-flight computation; waiters block on done.
type call struct {
	done chan struct{}
	val  []byte
	seq  uint64
	err  error
}

// Cache is a byte-budgeted LRU of marshaled query responses. The zero value
// is not usable; construct with New.
type Cache struct {
	mu       sync.Mutex
	max      int64
	bytes    int64
	entries  map[string]*entry
	lru      *list.List // front = most recent; values are *entry
	inflight map[string]*call
	// committed is the newest sequence OnCommit was told about, or the floor
	// of the last Flush: a computation pinned below it may have read a
	// version a commit or a bootstrap since moved, and is not stored.
	committed uint64

	hits, misses, evictions, invalidations, kept uint64
}

// New builds a cache holding at most maxBytes of response payloads;
// maxBytes <= 0 selects DefaultMaxBytes.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		max:      maxBytes,
		entries:  map[string]*entry{},
		lru:      list.New(),
		inflight: map[string]*call{},
	}
}

// entryOverhead approximates the bookkeeping bytes per entry (key copy, map
// slot, list element) charged against the budget alongside the payload.
const entryOverhead = 128

// Get returns the cached payload and the sequence it answers for, if
// present. The sequence may trail the store's current one: entries survive
// commits that cannot reach them, and the stamped seq tells the client which
// version the answer is exact for.
func (c *Cache) Get(key string) ([]byte, uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, 0, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e.val, e.seq, true
}

// Do returns the cached payload for key, or computes, stores, and returns
// it. seq must be the store sequence the computation reads at. hit reports
// whether the payload came from the cache (possibly from another goroutine's
// just-finished computation); entrySeq is the sequence the payload answers
// for. Errors are returned to every waiter and never cached.
func (c *Cache) Do(key string, class Class, seq uint64, compute func() ([]byte, error)) (val []byte, entrySeq uint64, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		return e.val, e.seq, true, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		return cl.val, cl.seq, true, cl.err
	}
	c.misses++
	if seq < c.committed {
		// Pinned behind a commit or a flush: computed for this caller
		// alone, neither stored nor shared.
		c.mu.Unlock()
		val, err = compute()
		return val, seq, false, err
	}
	cl := &call{done: make(chan struct{}), seq: seq}
	c.inflight[key] = cl
	c.mu.Unlock()

	cl.val, cl.err = compute()
	close(cl.done)

	c.mu.Lock()
	if c.inflight[key] == cl {
		delete(c.inflight, key)
	}
	// Store only if no commit or flush has overtaken the pinned version: a
	// payload computed against a pre-commit view must not serve post-commit
	// readers, whether the commit landed before the computation started or
	// while it ran.
	if cl.err == nil && seq >= c.committed {
		c.storeLocked(key, cl.val, seq, class)
	}
	c.mu.Unlock()
	return cl.val, seq, false, cl.err
}

// Put stores a payload directly (used by paths that compute without
// single-flight, e.g. warmed entries).
func (c *Cache) Put(key string, class Class, seq uint64, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.storeLocked(key, val, seq, class)
}

func (c *Cache) storeLocked(key string, val []byte, seq uint64, class Class) {
	size := int64(len(val)) + int64(len(key)) + entryOverhead
	if size > c.max {
		return // larger than the whole budget: never cacheable
	}
	if old, ok := c.entries[key]; ok {
		c.bytes -= int64(len(old.val)) + int64(len(old.key)) + entryOverhead
		c.lru.Remove(old.elem)
		delete(c.entries, key)
	}
	e := &entry{key: key, val: val, seq: seq, class: class}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	for c.bytes > c.max {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail.Value.(*entry))
		c.evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.bytes -= int64(len(e.val)) + int64(len(e.key)) + entryOverhead
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// OnCommit applies the invalidation contract for one committed journal,
// whose post-commit sequence is seq: every entry the commit's reach can have
// moved goes (ClassAny always; unanchored derived answers when the commit is
// relevant; anchored ones when it reaches every bound side), and the rest
// keep their older, still-exact seq. From here on, computations pinned below
// seq are no longer stored.
func (c *Cache) OnCommit(seq uint64, r Reach) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.committed = max(c.committed, seq)
	relevant := r.Relevant()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry)
		switch {
		case e.class.moved(r):
			c.removeLocked(e)
			c.invalidations++
		case relevant: // only an anchored entry survives a relevant commit
			c.kept++
		}
	}
}

// Flush drops every entry (used on follower snapshot re-bootstraps, where no
// journal describes the jump) and stales in-flight computations: readers may
// still hold versions from before the jump, and the sequence may restart
// below theirs, so from here on only computations pinned at floor or later —
// above every version the old graph had — are stored or shared.
func (c *Cache) Flush(floor uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.committed = max(c.committed, floor)
	c.inflight = map[string]*call{}
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		c.removeLocked(el.Value.(*entry))
		c.invalidations++
		el = next
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Kept:          c.kept,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		MaxBytes:      c.max,
	}
}
