package reasonapi

import (
	"fmt"
	"sync"

	"vadalink/internal/pg"
	"vadalink/internal/replication"
	"vadalink/internal/store"
)

// source is the one seam between the handlers and wherever the graph lives.
// Every handler reads through pin and /v1/augment writes through write; which
// of the two implementations backs them is decided once, in NewServerWith.
//
// Both announce every journal that changes the served graph through the
// committed callback they were built with — in commit order, with the
// sequence and the view the graph stands at afterwards — and the locked one
// announces a wholesale graph replacement through reset.
type source interface {
	// pin returns a view that stays consistent until release is called,
	// together with the sequence number it answers for.
	pin() (v pg.View, seq uint64, release func())

	// write runs fn on a copy-on-write overlay of the current graph — reads
	// keep being served for as long as fn takes — then applies the overlay's
	// journal to the graph in a short critical section. The journal is
	// applied whatever fn did (completed augmentation rounds are monotone and
	// must persist), or not at all when write returns an error.
	write(fn func(*pg.Overlay)) error
}

// committedFunc receives one applied journal with the sequence and the view
// the served graph stands at afterwards; sources call it under their commit
// lock.
type committedFunc func(seq uint64, post pg.View, journal []pg.Mutation)

// mvccSource serves a standalone or static-leader graph from a
// store.Versioned chain: pin is one atomic load, and a write publishes its
// overlay as the next immutable version.
type mvccSource struct {
	vs *store.Versioned
	// master guards the writer master the chain replays commits onto (the
	// graph the WAL hook hangs on) against an admin snapshot reading it
	// mid-replay.
	master *sync.RWMutex
}

func newMVCCSource(g *pg.Graph, master *sync.RWMutex, committed committedFunc) *mvccSource {
	vs := store.NewVersioned(g)
	// The hook runs under the commit lock after the version is published, so
	// commits are announced in order, exactly once.
	vs.SetCommitHook(func(next *store.Version, journal []pg.Mutation) {
		committed(next.Seq(), next.View(), journal)
	})
	return &mvccSource{vs: vs, master: master}
}

func (m *mvccSource) pin() (pg.View, uint64, func()) {
	ver := m.vs.Current()
	return ver.View(), ver.Seq(), func() {}
}

func (m *mvccSource) write(fn func(*pg.Overlay)) error {
	txn := m.vs.Begin()
	fn(txn.Overlay())
	m.master.Lock()
	defer m.master.Unlock()
	_, err := txn.Commit()
	return err
}

// lockedSource serves the graph a replication.Follower applies frames to in
// place — every static follower and every member of a replica group, the
// elected leader included. Readers share mu with the frame applier, and the
// sequence is the store's applied position. It stays on the locked graph
// rather than a version chain because a chain costs one clone of the graph
// per replica (DESIGN.md §11.3).
type lockedSource struct {
	mu        *sync.RWMutex
	g         *pg.Graph // re-pointed under mu by a snapshot bootstrap
	fl        *replication.Follower
	committed committedFunc
}

func newLockedSource(g *pg.Graph, fl *replication.Follower, mu *sync.RWMutex,
	committed committedFunc, reset func()) *lockedSource {
	if g == nil {
		g = fl.Graph()
	}
	l := &lockedSource{mu: mu, g: g, fl: fl, committed: committed}
	// Frames apply under the write side of mu, so readers never see a
	// half-applied mutation; a bootstrap re-points the served graph inside
	// the same critical section, and no journal describes that jump.
	fl.SetLock(mu)
	fl.OnSwap(func(ng *pg.Graph) {
		l.g = ng
		reset()
	})
	// The frame has been applied when the observer runs, so fl.Seq() already
	// reads the post-frame sequence (TestFollowerAnnouncesPostFrameSeq).
	fl.OnMutation(func(mut pg.Mutation) {
		committed(uint64(fl.Seq()), l.g, []pg.Mutation{mut})
	})
	return l
}

func (l *lockedSource) pin() (pg.View, uint64, func()) {
	l.mu.RLock()
	return l.g, uint64(l.fl.Seq()), l.mu.RUnlock
}

func (l *lockedSource) write(fn func(*pg.Overlay)) error {
	g, base, o := l.stage(fn)
	journal, err := o.Journal()
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Only a role change can move the graph under a leader's write: a
	// deposed member starts applying its successor's frames.
	if l.g != g || l.fl.Seq() != base {
		return fmt.Errorf("%w: the graph moved from seq %d to %d under the write",
			replication.ErrStaleEpoch, base, l.fl.Seq())
	}
	// Replaying onto the follower's graph fires its WAL hook, exactly as a
	// shipped frame would: the records reach the local log and, through the
	// leader half, the rest of the group. The commit stream carries the
	// mutations as the graph applied them, as it does for frames.
	applied := make([]pg.Mutation, 0, len(journal))
	for _, m := range journal {
		am, err := g.Replay(m)
		if err != nil {
			return err
		}
		applied = append(applied, am)
	}
	l.committed(uint64(l.fl.Seq()), g, applied)
	return nil
}

// stage runs fn on an overlay of the graph under the read lock: frames
// cannot move the base under it, other readers are not excluded.
func (l *lockedSource) stage(fn func(*pg.Overlay)) (*pg.Graph, int64, *pg.Overlay) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	o := pg.NewOverlay(l.g)
	fn(o)
	return l.g, l.fl.Seq(), o
}
