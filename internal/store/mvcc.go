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
	// published a version after this transaction began. The transaction's
	// overlay is unchanged; the caller may re-begin and replay.
	ErrConflict = errors.New("store: transaction conflicts with a newer committed version")
	// ErrTxnDone is returned by Txn.Commit on a transaction that was
	// already committed or aborted.
	ErrTxnDone = errors.New("store: transaction already finished")
)

// flattenDepth is the overlay-chain depth at which a commit folds the chain
// into a flat clone of the writer master. Depth-1 chains keep commits
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

// Seq returns the version's commit sequence number (0 for the initial
// version, +1 per committed transaction).
func (v *Version) Seq() uint64 { return v.seq }

// Versioned is a multi-version store over a property graph. It keeps one
// mutable writer "master" — the graph handed to NewVersioned, which retains
// its mutation hook, so a WAL-capturing persist layer keeps observing every
// committed change — and an atomically published chain of immutable read
// versions:
//
//   - Current returns the latest published Version; its View never changes,
//     so readers and the chase run lock-free against it while writers work.
//   - Begin opens a transaction: a copy-on-write overlay on the current
//     version. Mutations touch only the overlay.
//   - Commit replays the overlay's journal onto the master (firing the
//     master's mutation hook — the only place WAL records originate) and
//     publishes the overlay as the next version with a single atomic
//     pointer swap. Concurrency control is optimistic: a commit that lost
//     the race to a newer version fails with ErrConflict.
//
// Every flattenDepth commits the chain is folded into a flat clone of the
// master so read indirection stays bounded.
type Versioned struct {
	master *pg.Graph
	mu     sync.Mutex // serializes commits (master replay + publish)
	curr   atomic.Pointer[Version]

	// onCommit, when set, observes every published version together with the
	// journal that produced it — the seam an incremental view maintainer
	// hangs on. It runs under mu, after the version is visible to readers,
	// so observers see commits in publication order exactly once.
	onCommit func(next *Version, journal []pg.Mutation)
}

// NewVersioned wraps g as the writer master of a versioned store and
// publishes a flat clone of it as version 0. The clone shares g's nodes and
// edges (pg.Graph.Clone), which the master's copy-on-write weight edits keep
// safe, so it costs g's index, not its data. The clone does not inherit
// g's mutation hook (pg.Clone never does), so published read views are
// invisible to the WAL: durability capture happens exactly once, on the
// master, at commit time.
//
// After NewVersioned the caller must stop mutating g directly — every
// change goes through Begin/Commit, which keeps master and published
// versions in lockstep.
func NewVersioned(g *pg.Graph) *Versioned {
	vs := &Versioned{master: g}
	vs.curr.Store(&Version{view: g.Clone(), seq: 0, depth: 0})
	return vs
}

// Current returns the latest published version. Lock-free.
func (vs *Versioned) Current() *Version { return vs.curr.Load() }

// SetCommitHook installs fn as the store's commit observer; nil removes it.
// The hook runs synchronously inside Commit, under the commit lock, after
// the new version is published — it must not begin or commit transactions
// (that would deadlock), and it observes commits in order, exactly once.
func (vs *Versioned) SetCommitHook(fn func(next *Version, journal []pg.Mutation)) {
	vs.mu.Lock()
	defer vs.mu.Unlock()
	vs.onCommit = fn
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

// Commit publishes the transaction as the next version. It fails with
// ErrConflict if a newer version was published after Begin and with
// ErrTxnDone if the transaction already finished. On success the overlay
// must no longer be mutated.
func (t *Txn) Commit() (*Version, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	journal, err := t.o.Journal()
	if err != nil {
		return nil, err
	}
	vs := t.vs
	vs.mu.Lock()
	defer vs.mu.Unlock()
	if vs.curr.Load() != t.base {
		return nil, ErrConflict
	}
	// Overlays assign IDs continuing from their base's counters, so the
	// master assigns the same ones; a refusal means it was mutated outside a
	// transaction, and the history must not fork.
	for _, m := range journal {
		if _, err := vs.master.Replay(m); err != nil {
			return nil, fmt.Errorf("store: commit: %w", err)
		}
	}
	t.done = true
	faultinject.Fire(faultinject.SiteStoreSwap)
	next := &Version{view: t.o, seq: t.base.seq + 1, depth: t.base.depth + 1}
	if next.depth >= flattenDepth {
		next.view = vs.master.Clone()
		next.depth = 0
	}
	vs.curr.Store(next)
	if vs.onCommit != nil {
		vs.onCommit(next, journal)
	}
	return next, nil
}
