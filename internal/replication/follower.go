package replication

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/backoff"
	"vadalink/internal/faultinject"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/store"
)

// FollowerOptions tunes the tailing side of replication.
type FollowerOptions struct {
	// Leader is the leader's replication address (host:port).
	Leader string
	// SyncEvery is the follower's own WAL group-commit interval (see
	// persist.Options).
	SyncEvery time.Duration
	// ID is this node's stable identity across reconnects (its advertised
	// replication address in a replica group). The leader keys durable-ack
	// tracking by it; empty falls back to the connection's remote address.
	ID string
	// API is this node's advertised HTTP API address, carried in the
	// request line so a promoted candidate can hint redirecting clients.
	API string
	// Backoff paces reconnect attempts. Zero value gets a sane default
	// (50ms base doubling to 2s, half-jittered).
	Backoff backoff.Policy
	// Logger receives connection lifecycle events. Default: discard.
	Logger *slog.Logger

	// leaderFunc, when set, overrides Leader and is called before every
	// dial; a replica-group member resolves its current leader through it.
	leaderFunc func() (string, error)
	// onBackoff, when set, observes every reconnect delay (attempt number
	// and chosen delay).
	onBackoff func(attempt int, d time.Duration)
}

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 2 * time.Second
	// readTimeout bounds one read on an established stream; a healthy
	// leader heartbeats well inside it, so expiry means the leader is gone
	// without the kernel noticing.
	readTimeout = 10 * time.Second
)

// FollowerStatus is a snapshot of a follower's replication state.
type FollowerStatus struct {
	Connected     bool   `json:"connected"`
	Seq           int64  `json:"seq"`
	LeaderSeq     int64  `json:"leaderSeq"`
	LagRecords    int64  `json:"lagRecords"`
	EverSynced    bool   `json:"everSynced"`
	StalenessMS   int64  `json:"stalenessMillis"`
	Reconnects    int64  `json:"reconnects"`
	Bootstraps    int64  `json:"bootstraps"`
	FramesApplied int64  `json:"framesApplied"`
	BadFrames     int64  `json:"badFrames"`
	Epoch         uint64 `json:"epoch,omitempty"`
	// DisconnectedMS is how long the stream has been down (0 while
	// connected). LagRecords and StalenessMS freeze at their last-known
	// values during an outage — this field is the one that keeps growing,
	// so staleness gating cannot be fooled by a frozen lag.
	DisconnectedMS int64  `json:"disconnectedMillis,omitempty"`
	LastError      string `json:"lastError,omitempty"`

	// Staleness is the structured form of StalenessMS (not serialized).
	Staleness time.Duration `json:"-"`
	// Disconnected is the structured form of DisconnectedMS (not
	// serialized).
	Disconnected time.Duration `json:"-"`
}

// Follower tails a leader's WAL stream into a local durable store. Every
// applied frame flows through the same mutation-capture path as a leader
// write, so the follower's own WAL and snapshots make its position —
// pg.Graph.Seq of whatever graph it recovers — survive kill -9 with
// no separate position file to tear.
//
// Readers see the store's graph through a version chain (Chain): frames
// replay onto the graph as they land, and the chain publishes each drained
// burst as one immutable version before the ack that covers it.
type Follower struct {
	store *persist.Store
	opts  FollowerOptions
	vs    *store.Versioned

	// seqMu serializes every compound operation on the store's (seq, epoch)
	// pair: frame application (epoch gate + apply), ack construction (sync
	// + read), bootstrap adoption, and fence grants (condition re-check +
	// RecordEpoch). Without it a fence can be granted against a seq that an
	// in-flight apply is about to advance — the follower then acks the new
	// record under the old epoch, the old leader counts the ack as a
	// commit, and the freshly fenced candidate leads without the committed
	// record. Taken outside the chain's commit lock where both are held.
	seqMu sync.Mutex

	connected  atomic.Bool
	leaderSeq  atomic.Int64
	lastFresh  atomic.Int64 // unix nanos of last observed parity; 0 = never
	reconnects atomic.Int64
	bootstraps atomic.Int64
	frames     atomic.Int64
	badFrames  atomic.Int64

	// lastContact is the unix-nano stamp of the leader's last progress (0 =
	// never): a heartbeat, a frame that applied a mutation, or an epoch mark
	// that raised the local epoch. The node layer's lease watchdog compares
	// it against the lease to decide when to run an election.
	lastContact atomic.Int64
	// downSince is the unix-nano stamp of when the stream went down (0 =
	// currently connected). Set at construction: a follower that never
	// connected has been "down" since it existed.
	downSince atomic.Int64

	// leaderHint is the redirect target learned from a NotLeader hello
	// (atomic string; "" = none). Used for the next dial when no
	// leaderFunc overrides discovery, cleared when dialing it fails.
	leaderHint    atomic.Value
	leaderAPIHint atomic.Value

	errMu   sync.Mutex
	lastErr string
}

// OpenFollower opens (or recovers) the follower's local store in dir. The
// returned follower serves its recovered graph immediately; Run connects it
// to the leader.
func OpenFollower(dir string, opts FollowerOptions) (*Follower, error) {
	if opts.Backoff == (backoff.Policy{}) {
		opts.Backoff = backoff.Policy{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	st, err := persist.Open(dir, persist.Options{SyncEvery: opts.SyncEvery})
	if err != nil {
		return nil, err
	}
	f := &Follower{store: st, opts: opts, vs: store.NewVersioned(st.Graph())}
	f.downSince.Store(time.Now().UnixNano())
	return f, nil
}

// Chain returns the version chain readers see the follower's graph
// through. Frames publish on it once per drained burst, a snapshot
// bootstrap Resets it, and its commit hook observes both. A replica-group
// member's writes, while it leads, commit through it too.
func (f *Follower) Chain() *store.Versioned { return f.vs }

// Graph returns the follower's current graph, the writer master of Chain.
// After a snapshot bootstrap this is a different object; readers go
// through Chain instead.
func (f *Follower) Graph() *pg.Graph { return f.store.Graph() }

// Store returns the follower's local durable store.
func (f *Follower) Store() *persist.Store { return f.store }

// Seq returns the sequence number of the latest version readers can see:
// every frame applied before the last ack is in it, and the store's applied
// position may run a burst ahead.
func (f *Follower) Seq() int64 { return int64(f.vs.Current().Seq()) }

// lastContactAt returns when the follower last saw a live leader make
// progress (zero time = never). The lease watchdog reads it.
func (f *Follower) lastContactAt() time.Time {
	ns := f.lastContact.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// hint returns the replication and API addresses of the last leader
// this follower was redirected to or streamed from ("" when unknown).
func (f *Follower) hint() (addr, apiAddr string) {
	if v, ok := f.leaderHint.Load().(string); ok {
		addr = v
	}
	if v, ok := f.leaderAPIHint.Load().(string); ok {
		apiAddr = v
	}
	return addr, apiAddr
}

func (f *Follower) setLeaderHint(addr, apiAddr string) {
	f.leaderHint.Store(addr)
	f.leaderAPIHint.Store(apiAddr)
}

// Close releases the local store. Call after Run has returned.
func (f *Follower) Close() error { return f.store.Close() }

// Status snapshots the follower's replication state.
func (f *Follower) Status() FollowerStatus {
	seq := f.store.Seq()
	leaderSeq := f.leaderSeq.Load()
	lag := leaderSeq - seq
	if lag < 0 {
		lag = 0
	}
	var staleness time.Duration
	ever := false
	if fresh := f.lastFresh.Load(); fresh > 0 {
		ever = true
		staleness = time.Since(time.Unix(0, fresh))
	}
	var disconnected time.Duration
	if down := f.downSince.Load(); down > 0 && !f.connected.Load() {
		disconnected = time.Since(time.Unix(0, down))
	}
	f.errMu.Lock()
	lastErr := f.lastErr
	f.errMu.Unlock()
	return FollowerStatus{
		Connected:      f.connected.Load(),
		Seq:            seq,
		LeaderSeq:      leaderSeq,
		LagRecords:     lag,
		EverSynced:     ever,
		StalenessMS:    staleness.Milliseconds(),
		Staleness:      staleness,
		Reconnects:     f.reconnects.Load(),
		Bootstraps:     f.bootstraps.Load(),
		FramesApplied:  f.frames.Load(),
		BadFrames:      f.badFrames.Load(),
		Epoch:          f.store.Epoch(),
		DisconnectedMS: disconnected.Milliseconds(),
		Disconnected:   disconnected,
		LastError:      lastErr,
	}
}

// Run tails the leader until ctx is cancelled, reconnecting with capped
// jittered backoff on every failure. It returns ctx.Err() — every other
// error is a reason to reconnect, not to stop.
func (f *Follower) Run(ctx context.Context) error {
	retry := backoff.Retrier{Policy: f.opts.Backoff}
	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		progressed, err := f.session(ctx)
		f.markDisconnected()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			f.setErr(err)
			f.opts.Logger.Debug("replication session ended", "err", err)
		}
		if progressed {
			// The leader was reachable and spoke protocol; whatever killed
			// the session was transient. Start the backoff ladder over.
			retry.Reset()
		}
		d := retry.Next()
		if f.opts.onBackoff != nil {
			f.opts.onBackoff(retry.Attempt(), d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(d):
		}
		f.reconnects.Add(1)
	}
}

// markDisconnected flips the stream down, stamping the moment the outage
// began (only on the transition, so the age keeps growing across failed
// reconnect attempts).
func (f *Follower) markDisconnected() {
	if f.connected.CompareAndSwap(true, false) || f.downSince.Load() == 0 {
		f.downSince.Store(time.Now().UnixNano())
	}
}

// session runs one connect-negotiate-stream cycle. progressed reports
// whether the leader completed a handshake (used to reset backoff).
func (f *Follower) session(ctx context.Context) (progressed bool, err error) {
	addr := f.opts.Leader
	usedHint := false
	if f.opts.leaderFunc != nil {
		if addr, err = f.opts.leaderFunc(); err != nil {
			return false, fmt.Errorf("replication: resolving leader: %w", err)
		}
		// A resolver that returned the current hint gets the same dead-hint
		// cleanup as direct hint use below.
		if hint, _ := f.hint(); hint != "" && hint == addr {
			usedHint = true
		}
	} else if hint, _ := f.hint(); hint != "" {
		addr = hint
		usedHint = true
	}
	if ferr := faultinject.FireErr(faultinject.SiteReplDial); ferr != nil {
		return false, fmt.Errorf("replication: dial %s: %w", addr, ferr)
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		if usedHint {
			// The hinted leader is unreachable; fall back to the configured
			// address on the next attempt.
			f.leaderHint.Store("")
		}
		return false, fmt.Errorf("replication: dial %s: %w", addr, err)
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	// A session cut mid-burst leaves frames applied and unpublished.
	defer f.vs.Publish()

	mySeq := f.store.Seq()
	reqLine, err := json.Marshal(request{
		Seq: mySeq, Epoch: f.store.Epoch(), LastEpoch: f.store.LastEpoch(),
		ID: f.opts.ID, API: f.opts.API,
	})
	if err != nil {
		return false, err
	}
	if _, err := conn.Write(append(reqLine, '\n')); err != nil {
		return false, fmt.Errorf("replication: sending request: %w", err)
	}

	// One reader for the whole session: how much it holds unread tells the
	// stream loop when the leader's burst has drained.
	br := bufio.NewReader(conn)
	h, err := f.readHello(conn, br)
	if err != nil {
		return false, err
	}
	if h.NotLeader {
		// Redirect: the dialed node is not (or no longer) the leader. Adopt
		// its hint and redial. Counts as progress — the node spoke protocol.
		if h.Leader != "" && h.Leader != addr {
			f.setLeaderHint(h.Leader, h.LeaderAPI)
		} else if usedHint {
			f.leaderHint.Store("")
		}
		return true, fmt.Errorf("replication: %s is not the leader (hint %q)", addr, h.Leader)
	}
	if h.Epoch < f.store.Epoch() {
		// The dialed leader is fenced off: we hold a durable epoch newer
		// than its own. Refuse the stream — applying its frames would
		// resurrect a deposed history.
		return true, fmt.Errorf("%w: leader %s at epoch %d, local epoch %d",
			ErrStaleLeader, addr, h.Epoch, f.store.Epoch())
	}
	f.setLeaderHint(addr, h.LeaderAPI)
	f.observeLeaderSeq(h.LeaderSeq)
	// Note: a successful handshake does NOT touch the lease clock. Lease
	// liveness means the leader makes progress (a heartbeat, an applied
	// frame or a raised epoch, stamped in the loop below) — a leader healthy
	// enough to answer a dial but too wedged to stream must still be
	// replaceable, and reconnect cycles against such a leader, each of which
	// re-ships the epoch marks the follower already holds, must not postpone
	// elections forever.

	if h.Snapshot || h.Reset {
		if err := f.bootstrap(conn, br, h); err != nil {
			return true, err
		}
	} else {
		if h.From != mySeq {
			return true, fmt.Errorf("replication: leader offered seq %d, asked for %d", h.From, mySeq)
		}
		// Adopt epoch marks the handshake carried that we are missing (their
		// OpEpoch frames may have rotated away with old WAL generations).
		for _, m := range h.Marks {
			f.seqMu.Lock()
			var merr error
			if m.Epoch > f.store.Epoch() {
				merr = f.store.RecordEpoch(m)
			}
			f.seqMu.Unlock()
			if merr != nil {
				return true, fmt.Errorf("replication: adopting epoch mark: %w", merr)
			}
		}
	}
	// The hello's LeaderSeq was observed before the bootstrap moved our
	// seq: a follower that now holds the leader's position is fresh at
	// once, not at the next heartbeat.
	f.markFreshIfCaughtUp()
	// First durable ack: tells the leader where we are and arms its lease.
	sessEpoch := h.Epoch
	if err := f.sendAck(conn); err != nil {
		return true, err
	}

	// Stream loop: frames and heartbeats until something breaks.
	for {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, payload, err := readMsg(br)
		if err != nil {
			return true, fmt.Errorf("replication: stream read: %w", err)
		}
		switch typ {
		case msgFrame:
			newEpoch, err := f.applyFrame(payload, sessEpoch)
			if err != nil {
				return true, err
			}
			if newEpoch > sessEpoch {
				sessEpoch = newEpoch
			}
			// Ack (one fsync) once the burst has drained: every frame the
			// leader sent is then covered, and a waiting commit is released
			// now rather than at the next heartbeat.
			if br.Buffered() == 0 {
				if err := f.sendAck(conn); err != nil {
					return true, err
				}
			}
		case msgHeartbeat:
			var hb heartbeat
			if err := decodeJSON(payload, &hb); err != nil {
				return true, err
			}
			if hb.Epoch < f.store.Epoch() {
				return true, fmt.Errorf("%w: heartbeat at epoch %d, local epoch %d",
					ErrStaleLeader, hb.Epoch, f.store.Epoch())
			}
			f.touchContact()
			f.observeLeaderSeq(hb.Seq)
			if err := f.sendAck(conn); err != nil {
				return true, err
			}
		default:
			return true, fmt.Errorf("replication: unexpected %q message mid-stream", typ)
		}
	}
}

// touchContact stamps the liveness clock the lease watchdog reads. Only
// progress stamps it; a re-shipped mark or a hello does not.
func (f *Follower) touchContact() { f.lastContact.Store(time.Now().UnixNano()) }

// sendAck publishes the frames applied since the last ack, fsyncs local
// state and reports the durable position to the leader. The
// sync-before-write order is the whole point: an acked sequence number
// survives this follower's kill -9, which is what lets a leader treat
// majority acks as commit. Publishing first means an acked record is also
// visible to readers. The (seq, epoch) pair is read under seqMu so an ack
// is always internally consistent: a fence granted concurrently either
// lands before the read (the ack carries the new epoch and the old leader
// refuses it) or after (the grant re-check saw this ack's seq).
func (f *Follower) sendAck(conn net.Conn) error {
	f.vs.Publish()
	f.seqMu.Lock()
	err := f.store.Sync()
	var a ack
	if err == nil {
		a = ack{Seq: f.store.Seq(), Epoch: f.store.Epoch()}
	}
	f.seqMu.Unlock()
	if err != nil {
		return fmt.Errorf("replication: syncing before ack: %w", err)
	}
	line, err := json.Marshal(a)
	if err != nil {
		return err
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("replication: sending ack: %w", err)
	}
	return nil
}

func (f *Follower) readHello(conn net.Conn, br *bufio.Reader) (hello, error) {
	conn.SetReadDeadline(time.Now().Add(readTimeout))
	typ, payload, err := readMsg(br)
	if err != nil {
		return hello{}, fmt.Errorf("replication: reading hello: %w", err)
	}
	if typ != msgHello {
		return hello{}, fmt.Errorf("replication: expected hello, got %q", typ)
	}
	var h hello
	if err := decodeJSON(payload, &h); err != nil {
		return hello{}, err
	}
	return h, nil
}

// bootstrap discards local state and adopts the leader's: either the
// shipped snapshot, or — for a generation-0 leader — the empty graph. The
// adopted graph is made durable (the follower's store rotates to a fresh
// snapshot) and published as one flat version by one Reset of the chain
// before any frame is applied on top.
func (f *Follower) bootstrap(conn net.Conn, br *bufio.Reader, h hello) error {
	g := pg.New()
	// The adopted epoch history: the snapshot's own marks when one ships
	// (they describe exactly the shipped state), the handshake's otherwise.
	marks := h.Marks
	if h.Snapshot {
		conn.SetReadDeadline(time.Now().Add(readTimeout))
		typ, payload, err := readMsg(br)
		if err != nil {
			return fmt.Errorf("replication: reading snapshot: %w", err)
		}
		if typ != msgSnapshot {
			return fmt.Errorf("replication: expected snapshot, got %q", typ)
		}
		if g, marks, err = persist.DecodeSnapshotMarks(payload); err != nil {
			f.badFrames.Add(1)
			return fmt.Errorf("replication: snapshot rejected: %w", err)
		}
	}
	if got := g.Seq(); got != h.From {
		return fmt.Errorf("replication: bootstrap graph is at seq %d, hello promised %d", got, h.From)
	}
	f.seqMu.Lock()
	defer f.seqMu.Unlock()
	if err := f.vs.Reset(g, func() error { return f.store.ReplaceGraphMarks(g, marks) }); err != nil {
		return fmt.Errorf("replication: adopting bootstrap state: %w", err)
	}
	f.bootstraps.Add(1)
	f.opts.Logger.Info("replication bootstrap", "seq", h.From, "gen", h.Gen, "reset", h.Reset)
	return nil
}

// applyFrame validates one shipped WAL frame and applies it. The CRC check
// runs against the wire bytes, so corruption in transit is caught here and
// handled like a disconnect: the caller drops the connection and the next
// session re-requests from the last locally-held sequence number.
//
// sessEpoch is the epoch this stream was negotiated under; epoch frames
// that advance it are returned as newEpoch (and recorded durably). A local
// epoch newer than the session's — a fence granted mid-stream — kills the
// session: the sender is deposed and its frames must not land.
func (f *Follower) applyFrame(frame []byte, sessEpoch uint64) (newEpoch uint64, err error) {
	faultinject.Fire(faultinject.SiteReplApply)
	rec, err := persist.DecodeFrame(frame)
	if err != nil {
		f.badFrames.Add(1)
		return 0, fmt.Errorf("replication: frame rejected: %w", err)
	}
	if rec.Mutation.Kind == 0 {
		m := rec.Epoch
		f.seqMu.Lock()
		if m.Epoch > f.store.Epoch() {
			if err := f.store.RecordEpoch(m); err != nil {
				f.seqMu.Unlock()
				return 0, fmt.Errorf("replication: recording shipped epoch: %w", err)
			}
			f.touchContact()
		}
		f.seqMu.Unlock()
		f.frames.Add(1)
		return m.Epoch, nil
	}
	// The epoch gate and the apply are one atomic step under seqMu: a fence
	// granted after the gate passes must not see the record slip in behind
	// it — that would file the deposed leader's record under the new
	// epoch's history.
	f.seqMu.Lock()
	if cur := f.store.Epoch(); cur > sessEpoch {
		f.seqMu.Unlock()
		return 0, fmt.Errorf("%w: frame from epoch %d session, local epoch %d",
			ErrStaleLeader, sessEpoch, cur)
	}
	// Replaying the record onto the chain's master mutates the graph, which
	// fires the store's mutation hook: the frame lands in the follower's own
	// WAL and advances its sequence number. Durability and position
	// tracking come free. A record the graph refuses leaves graph, WAL and
	// seq as they were. Readers see the record at the next publication.
	err = f.vs.Replay(rec.Mutation)
	f.seqMu.Unlock()
	if err != nil {
		return 0, fmt.Errorf("replication: applying frame: %w", err)
	}
	f.touchContact()
	f.frames.Add(1)
	f.markFreshIfCaughtUp()
	return 0, nil
}

// grantFence durably records a fence mark on behalf of the node layer's
// election protocol, re-evaluating the caller's grant condition atomically
// against the store's current (seq, epoch, lastEpoch) under seqMu. The
// atomicity is what makes a grant a real promise: no record can be applied
// or acked between the condition passing and the mark landing, so a
// candidate that wins the grant is guaranteed no committed record exists
// past its fence point that it does not hold.
func (f *Follower) grantFence(m persist.EpochMark, ok func(seq int64, epoch, lastEpoch uint64) bool) (bool, error) {
	f.seqMu.Lock()
	defer f.seqMu.Unlock()
	if ok != nil && !ok(f.store.Seq(), f.store.Epoch(), f.store.LastEpoch()) {
		return false, nil
	}
	return true, f.store.RecordEpoch(m)
}

// observeLeaderSeq records the leader's position and refreshes the
// staleness clock if we are at parity.
func (f *Follower) observeLeaderSeq(seq int64) {
	// Keep the max: heartbeats from a stale read race with hello.
	for {
		cur := f.leaderSeq.Load()
		if seq <= cur {
			break
		}
		if f.leaderSeq.CompareAndSwap(cur, seq) {
			break
		}
	}
	f.connected.Store(true)
	f.downSince.Store(0)
	f.markFreshIfCaughtUp()
}

// markFreshIfCaughtUp stamps lastFresh when the follower's applied state
// has reached the last position the leader reported. A follower that is
// perpetually slightly behind a busy leader never stamps — its staleness
// grows until a heartbeat or applied frame shows parity again.
func (f *Follower) markFreshIfCaughtUp() {
	if f.store.Seq() >= f.leaderSeq.Load() {
		f.lastFresh.Store(time.Now().UnixNano())
	}
}

func (f *Follower) setErr(err error) {
	f.errMu.Lock()
	f.lastErr = err.Error()
	f.errMu.Unlock()
}
