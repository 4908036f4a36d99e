package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vadalink/internal/faultinject"
	"vadalink/internal/pg"
)

// MVCC errors.
var (
	// ErrConflict is returned by Txn.Commit when another transaction
	// published a version after this transaction began, or when records
	// replayed onto the master are still waiting to be published. The
	// transaction's overlay is unchanged; the caller may re-begin and replay.
	ErrConflict = errors.New("store: transaction conflicts with a newer committed version")
	// ErrTxnDone is returned by Txn.Commit on a transaction that was
	// already committed or aborted.
	ErrTxnDone = errors.New("store: transaction already finished")
)

// flattenDepth is the overlay-chain depth at which a publication folds the
// chain into a flat clone of the writer master. Depth-1 chains keep commits
// O(delta); flattening bounds the per-read indirection cost and is paid by
// the (rare, already O(graph)) write path, never by readers.
const flattenDepth = 4

// Version is one immutable published state of a versioned graph. Its View
// is frozen — safe for unsynchronized concurrent reads for as long as any
// reader holds it, regardless of how many versions have been published
// since.
type Version struct {
	view  pg.View
	seq   uint64
	depth int
}

// View returns the frozen graph view of this version.
func (v *Version) View() pg.View { return v.view }

// Seq returns the number of mutation records behind the version
// (pg.Graph.Seq): on a durable master its WAL position, the number a
// replica stamps for the same state.
func (v *Version) Seq() uint64 { return v.seq }

// Versioned is a multi-version store over a property graph. It keeps one
// mutable writer "master" — the graph handed to NewVersioned, which retains
// its mutation hook, so a WAL-capturing persist layer keeps observing every
// change — and an atomically published chain of immutable read versions:
//
//   - Current returns the latest published Version; its View never changes,
//     so readers and the chase run lock-free against it while writers work.
//   - Every change takes two steps under one commit lock: a record is
//     replayed onto the master (firing its mutation hook — the only place
//     WAL records originate), then everything replayed since the last
//     publication is published as the next version with one atomic pointer
//     swap. A transaction (Begin, Commit) takes both at once; a replication
//     follower replays each frame as it lands (Replay) and publishes once
//     per drained burst (Publish). A commit that lost the race to either
//     fails with ErrConflict.
//
// Every flattenDepth publications the chain is folded into a flat clone of
// the master so read indirection stays bounded.
type Versioned struct {
	mu     sync.Mutex // the commit lock: master replays, publication, Reset, Exclusive
	master *pg.Graph
	curr   atomic.Pointer[Version]
	// pending holds the records replayed onto the master since the last
	// publication, as the master applied them.
	pending  []pg.Mutation
	onCommit func(next *Version, journal []pg.Mutation) // see SetCommitHook
}

// NewVersioned wraps g as the writer master of a versioned store and
// publishes a flat clone of it as the first version. The clone shares g's
// nodes and edges (pg.Graph.Clone), which the master's copy-on-write weight
// edits keep safe, so it costs g's index, not its data. The clone does not
// inherit g's mutation hook (pg.Clone never does), so published read views
// are invisible to the WAL: durability capture happens exactly once, on
// the master, at replay time.
//
// After NewVersioned the caller must stop mutating g directly — every
// change goes through the store, which keeps master and published versions
// in lockstep.
func NewVersioned(g *pg.Graph) *Versioned {
	vs := &Versioned{master: g}
	vs.curr.Store(flatVersion(g))
	return vs
}

// flatVersion is a depth-0 version of a clone of g.
func flatVersion(g *pg.Graph) *Version {
	return &Version{view: g.Clone(), seq: uint64(g.Seq())}
}

// Current returns the latest published version. Lock-free.
func (vs *Versioned) Current() *Version { return vs.curr.Load() }

// SetCommitHook installs fn as the store's publication observer — the seam
// an incremental view maintainer hangs on; nil removes it. The hook runs
// synchronously under the commit lock just before the new version becomes
// visible, so whatever it derives from the journal is in place by the time
// a reader can hold the version, and Current still returns the one before.
// It must not call back into the store's locked methods (that would
// deadlock), and it observes publications in order, exactly once, each with
// the journal that produced it. A nil journal announces a Reset: no journal
// describes that jump, so everything derived from earlier versions must go.
func (vs *Versioned) SetCommitHook(fn func(next *Version, journal []pg.Mutation)) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.onCommit = fn
}

// Replay applies one record onto the master — the first of the two steps,
// for a record that arrives on its own, such as a replicated frame. Readers
// see it once Publish runs. A record the master refuses (pg.Graph.Replay)
// leaves master, WAL and chain as they were.
func (vs *Versioned) Replay(m pg.Mutation) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return vs.replayLocked(m)
}

func (vs *Versioned) replayLocked(m pg.Mutation) error {
	applied, err := vs.master.Replay(m)
	if err != nil {
		return err
	}
	vs.pending = append(vs.pending, applied)
	return nil
}

// Publish is the second step: it publishes every record replayed since the
// last publication as one version. With nothing pending it publishes
// nothing.
func (vs *Versioned) Publish() {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.publishLocked()
}

// publishLocked publishes the pending records as an overlay of the current
// version or, every flattenDepth publications, as a flat clone of the
// master. A published state is the master's, so its seq is the master's.
func (vs *Versioned) publishLocked() *Version {
	cur := vs.curr.Load()
	if len(vs.pending) == 0 {
		return cur
	}
	journal := vs.pending
	vs.pending = nil
	o := pg.NewOverlay(cur.view)
	next := &Version{view: o, seq: uint64(vs.master.Seq()), depth: cur.depth + 1}
	for _, m := range journal {
		if next.depth < flattenDepth && o.Replay(m) != nil { // the master moved outside the store
			next.depth = flattenDepth
		}
	}
	if next.depth >= flattenDepth {
		next.view, next.depth = vs.master.Clone(), 0
	}
	faultinject.Fire(faultinject.SiteStoreSwap)
	vs.swapLocked(next, journal)
	return next
}

// swapLocked announces next, then makes it the current version.
func (vs *Versioned) swapLocked(next *Version, journal []pg.Mutation) {
	if vs.onCommit != nil {
		vs.onCommit(next, journal)
	}
	vs.curr.Store(next)
}

// Reset adopts g as the master and publishes a flat clone of it as the next
// version, at g's own seq, dropping whatever was replayed and not yet
// published; the commit hook sees it with a nil journal. adopt runs first,
// under the commit lock, and an error from it leaves the store as it was —
// a replication follower swaps its durable store's graph there, so no
// commit can land on the graph being replaced.
func (vs *Versioned) Reset(g *pg.Graph, adopt func() error) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if err := adopt(); err != nil {
		return err
	}
	vs.master, vs.pending = g, nil
	vs.swapLocked(flatVersion(g), nil)
	return nil
}

// Exclusive runs fn under the commit lock: no record is replayed onto the
// master while it runs, so fn may read the master (an admin snapshot
// writes it to disk).
func (vs *Versioned) Exclusive(fn func() error) error {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	return fn()
}

// Txn is one writer transaction: an overlay over the version that was
// current at Begin. It is not safe for concurrent use; the overlay is
// frozen the moment Commit publishes it.
type Txn struct {
	vs   *Versioned
	base *Version
	o    *pg.Overlay
	done bool
}

// Begin opens a transaction on the current version.
func (vs *Versioned) Begin() *Txn {
	base := vs.Current()
	return &Txn{vs: vs, base: base, o: pg.NewOverlay(base.view)}
}

// Overlay returns the transaction's mutable overlay. Mutations applied to
// it are invisible to readers until Commit.
func (t *Txn) Overlay() *pg.Overlay { return t.o }

// Commit takes both steps for the transaction's journal: it replays it onto
// the master and publishes it as the next version. It fails with
// ErrConflict if a newer version was published after Begin or replayed
// records are still unpublished, and with ErrTxnDone if the transaction
// already finished. A transaction that changed nothing publishes nothing
// and returns the version it began on.
func (t *Txn) Commit() (*Version, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	journal, _ := t.o.Journal()
	vs := t.vs
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.curr.Load() != t.base || len(vs.pending) > 0 {
		return nil, ErrConflict
	}
	t.done = true
	// Overlays assign IDs continuing from their base's counters, so the
	// master assigns the same ones; a refusal means it was mutated outside
	// the store. What was replayed before it is in the WAL, so it is
	// published too.
	for _, m := range journal {
		if err := vs.replayLocked(m); err != nil {
			vs.publishLocked()
			return nil, fmt.Errorf("store: commit: %w", err)
		}
	}
	return vs.publishLocked(), nil
}
