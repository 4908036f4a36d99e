// Package ivm maintains the derived ownership relations — control,
// accumulated ownership, close links — incrementally under the committed
// mutation stream, instead of re-chasing the whole graph after every write.
//
// The derived state splits along the engine's incremental fault line
// (datalog.ApplyDelta refuses aggregates):
//
//   - control and accown are msum-aggregate relations, so their deltas are
//     non-local: retracting one contribution shifts a whole group's total.
//     They are maintained by recompute-per-affected-cone — reverse
//     shareholding reachability from the journal's changed set gives the
//     sources whose derived rows may have moved (whatif.ReverseReachable,
//     the PR-6 scoping machinery), and a scoped chase over the forward
//     closure of that set re-derives exactly those rows, seeding untouched
//     baseline rows for the cones it reads but does not own.
//   - close links are a positive, aggregate-free program over the FINAL
//     accown rows: strong(x, y) ⇔ Φ(x, y) ≥ t plus iscompany(x). A
//     persistent mini-engine holds that program materialized, and each
//     commit feeds it the strong/iscompany deltas through
//     datalog.ApplyDelta — counting/DRed delete-rederive, no recompute.
//
// On a registry-scale graph a single shareholding edit touches a tiny cone,
// which turns a full re-chase (seconds to minutes) into a few milliseconds
// of maintenance; the randomized differential harness in this package pins
// incremental == full re-chase across mutation streams.
//
// Maintenance is lazy: the commit stream only hands journals to Observe,
// which queues them, and the reader that next asks BaselineAt for a newer
// sequence pays for the catch-up. Commits therefore never run a chase — not
// under the MVCC commit lock, not under a follower's frame-apply lock — and
// a maintainer nobody reads from does no work at all.
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
	"vadalink/internal/relstore"
	"vadalink/internal/whatif"
)

// closeLinkDeltaProgram is the aggregate-free close-link program the
// mini-engine maintains through ApplyDelta. It is the image of the
// whatif close-link rules under "accown(X, Y, W), W >= t" ⇒ "strong(X, Y)":
// since the chase's accown rows only improve, a row crosses the threshold
// iff its final (maximal) value does, so pair formation over final rows
// derives exactly the close links of the full program.
const closeLinkDeltaProgram = `
	strong(X, Y), iscompany(X), iscompany(Y) -> clcand(X, Y).
	strong(Z, X), strong(Z, Y), X != Y, iscompany(X), iscompany(Y) -> clcand(X, Y).
	clcand(X, Y) -> clcand(Y, X).
	clcand(X, Y) -> closelink(X, Y).
`

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
	// fact (no shareholding mutations), acknowledged without any chase.
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
	mu        sync.Mutex
	threshold float64
	opts      []datalog.Option

	valid bool
	seq   uint64
	bl    *whatif.Baseline // published: immutable once stored here
	cl    *datalog.Engine  // close-link mini-engine (strong/iscompany EDB)

	// queue holds the journals observed since the maintained sequence, in
	// commit order and gap-free while valid; pending counts their mutations
	// against queueCap. newest is the last sequence Observe saw. While the
	// maintainer is invalid every journal up to it is gone — never queued, or
	// discarded by the invalidation — so a seed below it could never be
	// advanced without silently skipping those commits, and Seed refuses it.
	queue   []observed
	pending int
	newest  uint64

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
// computed with, or seeded rows would not line up with re-derived ones; the
// whatif convergence default (MinAggDelta) is prepended so explicit caller
// options still win, mirroring whatif.ComputeBaseline.
func New(threshold float64, engineOpts ...datalog.Option) *Maintainer {
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	opts := append([]datalog.Option{datalog.WithMinAggDelta(whatif.DefaultMinAggDelta)}, engineOpts...)
	return &Maintainer{threshold: threshold, opts: opts}
}

// Init computes a full baseline of v and seeds the maintainer with it.
func (m *Maintainer) Init(ctx context.Context, v pg.View, seq uint64) error {
	bl, err := whatif.ComputeBaseline(ctx, v, m.threshold, m.opts...)
	if err != nil {
		return err
	}
	return m.Seed(ctx, v, seq, bl)
}

// Seed installs an externally computed full baseline of v at seq as the
// maintained state and materializes the close-link mini-engine from it. The
// baseline must have been computed with this maintainer's threshold and
// engine options. A seed never regresses: when the maintainer already holds
// valid state at seq or later (a reader advanced it while this baseline was
// being computed), the stale seed is dropped — as is one older than a
// journal the maintainer no longer holds (observed while invalid, or queued
// and then discarded by an invalidation), since it could never catch up.
func (m *Maintainer) Seed(ctx context.Context, v pg.View, seq uint64, bl *whatif.Baseline) error {
	if bl.Threshold != m.threshold {
		return fmt.Errorf("ivm: baseline threshold %v does not match maintainer %v", bl.Threshold, m.threshold)
	}
	cl, err := m.buildCloseLinkEngine(ctx, v, bl)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if (m.valid && m.seq >= seq) || (!m.valid && m.newest > seq) {
		return nil
	}
	m.dropQueued(m.queuedThrough(seq))
	m.valid = true
	m.seq = seq
	m.bl = bl
	m.cl = cl
	m.stats.FullRebuilds++
	m.stats.Valid = true
	m.stats.Seq = seq
	return nil
}

// buildCloseLinkEngine materializes the delta program from a baseline's
// final accown rows and verifies it reproduces the baseline's close-link
// set — a cheap proof that the strong-row translation is faithful before
// any increment trusts it.
func (m *Maintainer) buildCloseLinkEngine(ctx context.Context, v pg.View, bl *whatif.Baseline) (*datalog.Engine, error) {
	prog, err := datalog.Parse(closeLinkDeltaProgram)
	if err != nil {
		return nil, fmt.Errorf("ivm: parsing close-link program: %w", err)
	}
	cl, err := datalog.NewEngine(prog, m.opts...)
	if err != nil {
		return nil, fmt.Errorf("ivm: preparing close-link engine: %w", err)
	}
	for _, id := range v.NodesWithLabel(pg.LabelCompany) {
		cl.Assert(iscompanyFact(id))
	}
	for _, rows := range bl.Accown {
		for _, f := range strongFacts(rows, m.threshold) {
			cl.Assert(f)
		}
	}
	if err := cl.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("ivm: materializing close links: %w", err)
	}
	got := closeLinkPairs(cl.Facts("closelink"))
	if len(got) != len(bl.CloseLink) {
		return nil, fmt.Errorf("ivm: close-link materialization has %d pairs, baseline %d", len(got), len(bl.CloseLink))
	}
	for p := range got {
		if !bl.CloseLink[p] {
			return nil, fmt.Errorf("ivm: close-link materialization derived %v outside the baseline", p)
		}
	}
	return cl, nil
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
// is seeded, so a commit or frame-apply lock that calls it never runs a chase
// of its own. It can still wait for one: it shares the maintainer's mutex
// with a reader's in-flight drain. A backlog past queueCap invalidates
// instead of growing.
func (m *Maintainer) Observe(seq uint64, muts ...pg.Mutation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.newest = seq
	if !m.valid {
		return
	}
	m.queue = append(m.queue, observed{seq, muts})
	if m.pending += len(muts); m.pending > queueCap {
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
		_ = m.Seed(ctx, v, seq, bl)
	} else {
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
	if !m.valid || m.seq > seq {
		return nil
	}
	if m.seq < seq {
		n := m.queuedThrough(seq)
		// v is the post-state of the drained journals only if they end
		// exactly at seq. They may not yet: a version is pinnable a moment
		// before its commit hook delivers the journal.
		if n == 0 || m.queue[n-1].seq != seq {
			return nil
		}
		var muts []pg.Mutation
		for _, o := range m.queue[:n] {
			if o.seq > m.seq { // older ones predate the seed
				muts = append(muts, o.muts...)
			}
		}
		m.dropQueued(n)
		if m.applyLocked(ctx, v, seq, muts) != nil {
			return nil
		}
	}
	return m.bl
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
// describes that jump).
func (m *Maintainer) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.valid {
		m.stats.Invalidations++
	}
	m.invalidateLocked()
	m.newest = 0 // the sequence may restart below it
	m.other.Store(nil)
}

func (m *Maintainer) invalidateLocked() {
	m.valid = false
	m.bl = nil
	m.cl = nil
	m.queue, m.pending = nil, 0
	m.stats.Valid = false
}

// Stats returns a snapshot of the maintenance counters.
func (m *Maintainer) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
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

	// Classify the journal (relevance.go, shared with the query cache): the
	// owner sides seed the affected set; company churn feeds the iscompany
	// relation of the close-link engine.
	sd, err := classify(muts)
	if err != nil {
		return m.failLocked(err)
	}
	if len(sd.owners) == 0 && len(sd.companies) == 0 {
		m.seq = toSeq
		m.stats.Seq = toSeq
		m.stats.SkippedCommits++
		return nil
	}
	// Company churn resolves against the post view (a node added and removed
	// in the same journal nets to absent; ApplyDelta tolerates no-op deltas).
	var iscoDels, iscoAdds []datalog.Fact
	for id := range sd.companies {
		if n := post.Node(id); n != nil && n.Label == pg.LabelCompany {
			iscoAdds = append(iscoAdds, iscompanyFact(id))
		} else {
			iscoDels = append(iscoDels, iscompanyFact(id))
		}
	}

	// Affected sources: reverse shareholding reachability from the owner
	// sides over the post view — the Up set of ReachOf. The post view alone
	// suffices: a reverse path that existed only pre-commit must start with
	// a removed edge, and that edge's owner side is already a seed.
	affected := whatif.ReverseReachable(sd.owners, post)

	// The scoped chase reads the forward ownership closure of the affected
	// set: every cone an affected source can reach.
	cone := forwardClosure(post, affected)

	next, controlDelta, err := m.rechaseCones(ctx, post, affected, cone)
	if err != nil {
		return m.failLocked(err)
	}

	// Close links: final-row threshold crossings of re-derived sources plus
	// company churn, pushed through the mini-engine as extensional deltas.
	var dels, adds []datalog.Fact
	for src := range affected {
		old := strongFacts(m.bl.Accown[src], m.threshold)
		now := strongFacts(next.Accown[src], m.threshold)
		oldKeys := make(map[string]bool, len(old))
		for _, f := range old {
			oldKeys[f.Key()] = true
		}
		nowKeys := make(map[string]bool, len(now))
		for _, f := range now {
			nowKeys[f.Key()] = true
			if !oldKeys[f.Key()] {
				adds = append(adds, f)
			}
		}
		for _, f := range old {
			if !nowKeys[f.Key()] {
				dels = append(dels, f)
			}
		}
	}
	dels = append(dels, iscoDels...)
	adds = append(adds, iscoAdds...)
	clRes, err := m.cl.ApplyDelta(ctx, dels, adds)
	if err != nil {
		return m.failLocked(fmt.Errorf("ivm: close-link delta: %w", err))
	}
	closeLinkDelta := m.spliceCloseLinks(next, clRes)

	m.bl = next
	m.seq = toSeq
	m.stats.Seq = toSeq
	m.stats.IncrementalCommits++
	m.stats.ControlChanged += int64(controlDelta)
	m.stats.CloseLinkChanged += int64(closeLinkDelta)
	m.stats.LastAffectedSources = len(affected)
	m.stats.LastApplyMillis = float64(time.Since(start).Microseconds()) / 1000
	return nil
}

// failLocked invalidates the maintainer and passes the error through.
func (m *Maintainer) failLocked(err error) error {
	m.stats.Invalidations++
	m.invalidateLocked()
	return err
}

// rechaseCones re-derives control and accown for the affected sources over
// the forward closure, seeding untouched baseline rows for cone sources the
// chase reads but does not own, and returns the successor baseline (with
// the close-link set still the old one — spliceCloseLinks finishes it).
func (m *Maintainer) rechaseCones(ctx context.Context, post pg.View,
	affected, cone map[pg.NodeID]bool) (*whatif.Baseline, int, error) {

	prog, err := datalog.Parse(whatif.MaintenanceProgram())
	if err != nil {
		return nil, 0, fmt.Errorf("ivm: parsing maintenance program: %w", err)
	}
	e, err := datalog.NewEngine(prog, m.opts...)
	if err != nil {
		return nil, 0, fmt.Errorf("ivm: preparing maintenance engine: %w", err)
	}
	for id := range affected {
		e.Assert(datalog.Fact{Pred: "affected", Args: []any{int64(id)}})
		if f, ok := relstore.NodeFact(post, id); ok {
			e.Assert(f)
		}
	}
	for id := range cone {
		e.AssertAll(relstore.OwnFacts(post, id))
		if !affected[id] {
			e.AssertAll(m.bl.Accown[id])
		}
	}
	if err := e.RunContext(ctx); err != nil {
		return nil, 0, fmt.Errorf("ivm: scoped maintenance chase: %w", err)
	}

	// Splice: drop every affected source's old rows, adopt its new ones.
	// Every control fact of the scoped chase has an affected source (the
	// affected(X) guard seeds ccand), so unaffected rows carry over verbatim.
	nextControl := make(map[whatif.Pair]bool, len(m.bl.Control))
	for p := range m.bl.Control {
		if !affected[p[0]] {
			nextControl[p] = true
		}
	}
	controlDelta := 0
	for _, f := range e.Facts("control") {
		if p, ok := pairOf(f); ok {
			nextControl[p] = true
			if !m.bl.Control[p] {
				controlDelta++ // gained
			}
		}
	}
	for p := range m.bl.Control {
		if affected[p[0]] && !nextControl[p] {
			controlDelta++ // lost
		}
	}

	nextAccown := make(map[pg.NodeID][]datalog.Fact, len(m.bl.Accown))
	for src, rows := range m.bl.Accown {
		if !affected[src] {
			nextAccown[src] = rows
		}
	}
	for _, f := range e.MaxByGroup("accown", 2, 0, 1) {
		if src, ok := nodeID(f.Args[0]); ok && affected[src] {
			nextAccown[src] = append(nextAccown[src], f)
		}
	}
	return &whatif.Baseline{
		Threshold: m.threshold,
		Control:   nextControl,
		CloseLink: m.bl.CloseLink, // finished by spliceCloseLinks
		Accown:    nextAccown,
	}, controlDelta, nil
}

// spliceCloseLinks folds the mini-engine's derived close-link deltas into
// the successor baseline and reports how many canonical pairs changed.
func (m *Maintainer) spliceCloseLinks(next *whatif.Baseline, res datalog.DeltaResult) int {
	if len(res.Added) == 0 && len(res.Removed) == 0 {
		return 0
	}
	cl := make(map[whatif.Pair]bool, len(m.bl.CloseLink))
	for p := range m.bl.CloseLink {
		cl[p] = true
	}
	changed := 0
	for _, f := range res.Removed {
		if f.Pred != "closelink" {
			continue
		}
		if p, ok := pairOf(f); ok {
			if cl[canonical(p)] {
				changed++
			}
			delete(cl, canonical(p))
		}
	}
	for _, f := range res.Added {
		if f.Pred != "closelink" {
			continue
		}
		if p, ok := pairOf(f); ok {
			if !cl[canonical(p)] {
				changed++
			}
			cl[canonical(p)] = true
		}
	}
	next.CloseLink = cl
	return changed
}

// forwardClosure computes forward shareholding reachability from the seeds.
func forwardClosure(v pg.View, seeds map[pg.NodeID]bool) map[pg.NodeID]bool {
	out := make(map[pg.NodeID]bool, len(seeds))
	queue := make([]pg.NodeID, 0, len(seeds))
	for n := range seeds {
		out[n] = true
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range v.OutLabel(n, pg.LabelShareholding) {
			if !out[e.To] {
				out[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// strongFacts projects final accown rows to strong(x, y) facts at the
// threshold.
func strongFacts(rows []datalog.Fact, threshold float64) []datalog.Fact {
	var out []datalog.Fact
	for _, f := range rows {
		if len(f.Args) != 3 {
			continue
		}
		w, ok := f.Args[2].(float64)
		if !ok || w < threshold {
			continue
		}
		out = append(out, datalog.Fact{Pred: "strong", Args: []any{f.Args[0], f.Args[1]}})
	}
	return out
}

func iscompanyFact(id pg.NodeID) datalog.Fact {
	return datalog.Fact{Pred: "iscompany", Args: []any{int64(id)}}
}

func nodeID(v any) (pg.NodeID, bool) {
	switch x := v.(type) {
	case int64:
		return pg.NodeID(x), true
	case float64:
		return pg.NodeID(int64(x)), float64(int64(x)) == x
	}
	return 0, false
}

func pairOf(f datalog.Fact) (whatif.Pair, bool) {
	if len(f.Args) != 2 {
		return whatif.Pair{}, false
	}
	a, ok1 := nodeID(f.Args[0])
	b, ok2 := nodeID(f.Args[1])
	if !ok1 || !ok2 {
		return whatif.Pair{}, false
	}
	return whatif.Pair{a, b}, true
}

func canonical(p whatif.Pair) whatif.Pair {
	if p[1] < p[0] {
		return whatif.Pair{p[1], p[0]}
	}
	return p
}

// closeLinkPairs canonicalizes directed closelink facts into a pair set.
func closeLinkPairs(facts []datalog.Fact) map[whatif.Pair]bool {
	out := map[whatif.Pair]bool{}
	for _, f := range facts {
		if p, ok := pairOf(f); ok {
			out[canonical(p)] = true
		}
	}
	return out
}
