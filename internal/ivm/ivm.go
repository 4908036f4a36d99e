// Package ivm maintains the derived ownership relations — control,
// accumulated ownership, close links — incrementally under the committed
// mutation stream, instead of re-chasing the whole graph after every write.
//
// Each commit is one scoped step (whatif.Baseline.Advance), the same step a
// what-if scenario takes over its overlay: the sources upstream of the
// journal's owner seeds re-chase their ownership cones locally, and close
// links — a non-recursive join over the final accown rows — are re-counted
// from those sources' witnesses alone.
//
// On a registry-scale graph a single shareholding edit touches a tiny cone,
// which turns a full re-chase (seconds to minutes) into a few milliseconds
// of maintenance; the randomized differential harness in this package pins
// incremental == full re-chase across mutation streams.
//
// Maintenance is lazy: the commit stream only hands journals to Observe,
// which queues them under a lock of its own, and the reader that next asks
// BaselineAt for a newer sequence pays for the catch-up. Commits therefore
// never run a chase, nor wait for one, under the version chain's commit
// lock, and a maintainer nobody reads from does no work at all.
//
// A Maintainer is invalid until seeded and after any error; BaselineAt then
// falls back to a full baseline computation and re-seeds. All methods are
// safe for concurrent use; published baselines are immutable, so a reader
// holding one never blocks on maintenance.
package ivm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/whatif"
)

// queueCap bounds the observed-but-undrained journal, in mutations; beyond it
// a full rebuild on the next read beats replaying the backlog.
const queueCap = 1 << 16

// ErrInvalid reports a maintainer with no valid derived state (never seeded,
// or invalidated by an error); the caller must recompute a full baseline and
// Seed again.
var ErrInvalid = errors.New("ivm: maintainer holds no valid derived state")

// Stats counts maintenance activity, served by /v1/metrics.
type Stats struct {
	// IncrementalCommits counts commits maintained incrementally.
	IncrementalCommits int64 `json:"incrementalCommits"`
	// SkippedCommits counts commits whose journal could not move any derived
	// fact (no owner seeds: no shareholding mutation, no node removal),
	// acknowledged without any chase.
	SkippedCommits int64 `json:"skippedCommits"`
	// FullRebuilds counts seedings from a full baseline chase.
	FullRebuilds int64 `json:"fullRebuilds"`
	// Invalidations counts errors that discarded the derived state.
	Invalidations int64 `json:"invalidations"`
	// ControlChanged / CloseLinkChanged accumulate the derived-pair changes
	// applied across all incremental commits.
	ControlChanged   int64 `json:"controlChanged"`
	CloseLinkChanged int64 `json:"closeLinkChanged"`
	// LastAffectedSources is the affected-cone size of the last incremental
	// commit; LastApplyMillis its wall-clock cost.
	LastAffectedSources int     `json:"lastAffectedSources"`
	LastApplyMillis     float64 `json:"lastApplyMillis"`
	// Valid reports whether a maintained baseline is currently served, at
	// sequence Seq.
	Valid bool   `json:"valid"`
	Seq   uint64 `json:"seq"`
}

// Maintainer owns the incrementally maintained derived state of one graph at
// one close-link threshold.
type Maintainer struct {
	// mu guards the maintained state and is held across a drain's chase;
	// qmu guards the observed queue and never is, so Observe never waits for
	// a drain. valid is written under both and read under either. Where both
	// are taken, mu comes first.
	mu, qmu   sync.Mutex
	threshold float64
	opts      []datalog.Option

	valid bool
	seq   uint64
	bl    *whatif.Baseline // published: immutable once stored here

	// queue holds the journals observed since the maintained sequence, in
	// commit order and gap-free while valid; pending counts their mutations
	// against queueCap. newest is the last sequence Observe saw. While the
	// maintainer is invalid every journal up to it is gone — never queued, or
	// discarded by the invalidation — so a seed below it could never be
	// advanced without silently skipping those commits, and Seed refuses it.
	// overflowed records a backlog Observe dropped past queueCap; lockQueue
	// turns it into an invalidation.
	queue      []observed
	pending    int
	newest     uint64
	overflowed bool

	// floor is the lowest sequence a seed or the other-threshold cache may
	// come from: readers may still hold versions of a graph Reset replaced.
	floor atomic.Uint64

	// other caches the baseline of one (sequence, threshold) pair at a
	// threshold this maintainer does not maintain, so a burst of what-ifs
	// against one version chases the base graph once, not once per request.
	other atomic.Pointer[otherBaseline]

	stats Stats
}

// observed is one committed journal: the mutations that produced the state
// at seq from the one before it.
type observed struct {
	seq  uint64
	muts []pg.Mutation
}

type otherBaseline struct {
	seq       uint64
	threshold float64
	bl        *whatif.Baseline
}

// New creates an empty (invalid) maintainer for one close-link threshold;
// threshold 0 means whatif.DefaultThreshold. The engine options apply to
// every maintenance chase and must match the ones the seeding baseline was
// computed with, or seeded rows would not line up with re-derived ones.
func New(threshold float64, engineOpts ...datalog.Option) *Maintainer {
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	return &Maintainer{threshold: threshold, opts: engineOpts}
}

// Init computes a full baseline of v and seeds the maintainer with it.
func (m *Maintainer) Init(ctx context.Context, v pg.View, seq uint64) error {
	bl, err := whatif.ComputeBaseline(ctx, v, m.threshold, m.opts...)
	if err != nil {
		return err
	}
	return m.seed(seq, bl)
}

// seed installs an externally computed full baseline at seq as the
// maintained state. The baseline must have been computed with this
// maintainer's threshold and engine options. A seed never regresses: when
// the maintainer already holds valid state at seq or later (a reader
// advanced it while this baseline was being computed), the stale seed is
// dropped — as is one older than a journal the maintainer no longer holds
// (observed while invalid, or queued and then discarded by an
// invalidation), since it could never catch up, and one below the floor of
// the last Reset.
func (m *Maintainer) seed(seq uint64, bl *whatif.Baseline) error {
	if bl.Threshold != m.threshold {
		return fmt.Errorf("ivm: baseline threshold %v does not match maintainer %v", bl.Threshold, m.threshold)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lockQueue()
	defer m.qmu.Unlock()
	if (m.valid && m.seq >= seq) || (!m.valid && m.newest > seq) || seq < m.floor.Load() {
		return nil
	}
	m.dropQueued(m.queuedThrough(seq))
	m.valid = true
	m.seq = seq
	m.bl = bl
	m.stats.FullRebuilds++
	m.stats.Valid = true
	m.stats.Seq = seq
	return nil
}

// Baseline returns the maintained baseline when it is valid, matches seq,
// and was maintained at threshold; nil otherwise (caller recomputes).
func (m *Maintainer) Baseline(seq uint64, threshold float64) *whatif.Baseline {
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || m.seq != seq || threshold != m.threshold {
		return nil
	}
	return m.bl
}

// Observe hands the maintainer one committed journal: muts produced the
// state at seq from the previous one. It only queues — the chase runs when a
// reader next asks BaselineAt for seq or later — and is a no-op while nothing
// is seeded, so a commit lock that calls it never runs a chase of its own,
// nor waits for a reader's: the queue has its own lock. A backlog past
// queueCap is dropped instead of growing, and the next drain invalidates.
func (m *Maintainer) Observe(seq uint64, muts ...pg.Mutation) {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	m.newest = seq
	if !m.valid || m.overflowed {
		return
	}
	m.queue = append(m.queue, observed{seq, muts})
	if m.pending += len(muts); m.pending > queueCap {
		m.queue, m.pending = nil, 0
		m.overflowed = true
	}
}

// lockQueue takes qmu, mu being held, and turns a backlog Observe dropped
// into an invalidation of the maintained state.
func (m *Maintainer) lockQueue() {
	m.qmu.Lock()
	if m.overflowed {
		m.overflowed = false
		m.stats.Invalidations++
		m.invalidateLocked()
	}
}

// BaselineAt returns the baseline of v, which the caller has pinned at seq,
// for threshold (0 means whatif.DefaultThreshold). At the maintained
// threshold it catches the maintained state up to seq from the observed
// journals — only those at or below seq, re-chased against v, so a reader
// pinned behind the newest commit is never served a newer state — and the
// maintained sequence never moves backwards for a reader pinned behind it.
// Whatever that cannot answer (nothing seeded yet, an invalidation, a reader
// behind the maintained state, another threshold) is chased in full; at the
// maintained threshold the result re-seeds the maintainer, elsewhere it
// fills a single-entry cache.
func (m *Maintainer) BaselineAt(ctx context.Context, v pg.View, seq uint64, threshold float64) (*whatif.Baseline, error) {
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	if threshold == m.threshold {
		if bl := m.catchUp(ctx, v, seq); bl != nil {
			return bl, nil
		}
	} else if e := m.other.Load(); e != nil && e.seq == seq && e.threshold == threshold {
		return e.bl, nil
	}
	bl, err := whatif.ComputeBaseline(ctx, v, threshold, m.opts...)
	if err != nil {
		return nil, err
	}
	if threshold == m.threshold {
		// Best-effort: a failed or stale seed leaves bl a correct answer for
		// this caller, and the next reader chases again.
		_ = m.seed(seq, bl)
	} else if seq >= m.floor.Load() {
		m.other.Store(&otherBaseline{seq, threshold, bl})
	}
	return bl, nil
}

// catchUp drains the observed journals up to seq into the maintained state
// and returns the maintained baseline if it then stands at seq; nil sends
// the caller to a full chase.
func (m *Maintainer) catchUp(ctx context.Context, v pg.View, seq uint64) *whatif.Baseline {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The chase runs under mu alone: Observe keeps queueing meanwhile.
	if muts, ok := m.takeQueued(seq); !ok || (muts != nil && m.applyLocked(ctx, v, seq, muts) != nil) {
		return nil
	}
	return m.bl
}

// takeQueued dequeues the mutations that carry the valid maintained state
// to seq; ok is false when the queue cannot. Callers hold mu.
func (m *Maintainer) takeQueued(seq uint64) (muts []pg.Mutation, ok bool) {
	m.lockQueue()
	defer m.qmu.Unlock()
	if !m.valid || m.seq > seq {
		return nil, false
	}
	if m.seq == seq {
		return nil, true
	}
	n := m.queuedThrough(seq)
	// v is the post-state of the drained journals only if they end exactly
	// at seq, which a journal observed late breaks.
	if n == 0 || m.queue[n-1].seq != seq {
		return nil, false
	}
	for _, o := range m.queue[:n] {
		if o.seq > m.seq { // older ones predate the seed
			muts = append(muts, o.muts...)
		}
	}
	m.dropQueued(n)
	return muts, true
}

// queuedThrough counts the queued journals at or below seq.
func (m *Maintainer) queuedThrough(seq uint64) int {
	n := 0
	for n < len(m.queue) && m.queue[n].seq <= seq {
		n++
	}
	return n
}

// dropQueued removes the first n queued journals and lets go of their
// mutations.
func (m *Maintainer) dropQueued(n int) {
	for _, o := range m.queue[:n] {
		m.pending -= len(o.muts)
	}
	clear(m.queue[:n])
	m.queue = m.queue[n:]
}

// Reset discards the maintained state and every observed journal (e.g. after
// a follower snapshot bootstrap replaced the graph wholesale: no journal
// describes that jump). Readers may still hold versions of the replaced
// graph, at any sequence below floor, so nothing below it is seeded or
// cached any more.
func (m *Maintainer) Reset(floor uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lockQueue()
	defer m.qmu.Unlock()
	if m.valid {
		m.stats.Invalidations++
	}
	m.invalidateLocked()
	m.newest = 0 // the sequence may restart below it
	m.floor.Store(max(m.floor.Load(), floor))
	m.other.Store(nil)
}

// invalidateLocked drops the maintained state and the queue. Callers hold
// both locks.
func (m *Maintainer) invalidateLocked() {
	m.valid = false
	m.bl = nil
	m.queue, m.pending = nil, 0
	m.stats.Valid = false
}

// Stats returns a snapshot of the maintenance counters.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lockQueue()
	defer m.qmu.Unlock()
	return m.stats
}

// Apply advances the maintained state from fromSeq to toSeq under one
// committed journal, eagerly — the primitive BaselineAt drains the observed
// queue through, exported for callers that hold the journal and the
// post-commit view in hand. post must be the post-commit view and muts the
// exact, ordered mutations that produced it from the state at fromSeq. A
// fromSeq that does not match the maintained sequence means a journal was
// missed; the maintainer invalidates itself rather than silently diverge.
// On any error the maintainer invalidates itself and the caller must fall
// back to a full baseline.
func (m *Maintainer) Apply(ctx context.Context, post pg.View, fromSeq, toSeq uint64, muts []pg.Mutation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid {
		return ErrInvalid
	}
	if fromSeq != m.seq {
		return m.failLocked(fmt.Errorf("ivm: journal gap: maintained state at seq %d, journal starts at %d", m.seq, fromSeq))
	}
	return m.applyLocked(ctx, post, toSeq, muts)
}

// applyLocked advances the valid maintained state to toSeq under muts, whose
// post-state is post. Callers hold m.mu.
func (m *Maintainer) applyLocked(ctx context.Context, post pg.View, toSeq uint64, muts []pg.Mutation) error {
	start := time.Now()
	next, st, err := m.bl.Advance(ctx, post, muts, m.opts...)
	if err != nil {
		return m.failLocked(err)
	}
	m.bl = next
	m.seq = toSeq
	m.stats.Seq = toSeq
	if st.Affected == 0 {
		m.stats.SkippedCommits++
		return nil
	}
	m.stats.IncrementalCommits++
	m.stats.ControlChanged += int64(len(st.ControlGained) + len(st.ControlLost))
	m.stats.CloseLinkChanged += int64(len(st.CloseLinkGained) + len(st.CloseLinkLost))
	m.stats.LastAffectedSources = st.Affected
	m.stats.LastApplyMillis = float64(time.Since(start).Microseconds()) / 1000
	return nil
}

// failLocked invalidates the maintainer and passes the error through.
// Callers hold mu.
func (m *Maintainer) failLocked(err error) error {
	m.lockQueue()
	defer m.qmu.Unlock()
	m.stats.Invalidations++
	m.invalidateLocked()
	return err
}
