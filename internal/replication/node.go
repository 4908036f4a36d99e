// Self-healing replica groups: lease-based leader failover with
// epoch-fenced WAL shipping.
//
// A Node is one member of a small replica group. Exactly one member serves
// the Leader stream; the rest tail it as Followers. Three mechanisms keep
// that arrangement honest across leader death:
//
//   - Lease. The leader's authority is a lease renewed by fresh durable
//     acks from a majority of the group (its own store counts as one
//     member). Followers track the mirror image — time since the last
//     protocol message from a live leader. When either side's deadline
//     passes the lease, the leader steps down / the follower runs an
//     election.
//
//   - Epoch fencing. Every promotion durably opens a new epoch (a
//     persist.EpochMark: epoch number + the sequence number it opened at).
//     A deposed leader's heartbeats, frames and acks are refused the
//     moment a newer epoch is visible anywhere — so split-brain can hold a
//     stale graph but can never acknowledge a fact.
//
//   - Deterministic promotion. On lease expiry a follower probes the
//     group; the unique candidate is the reachable member with the most
//     up-to-date history — ordered by (epoch of newest fact, applied
//     sequence number), lowest address breaking exact ties. The candidate
//     then asks each peer to durably grant a fence into epoch+1; a grant
//     is refused when the peer still hears a live leader, or when the
//     peer's history is more up to date than the candidate's (the grant
//     would orphan acked facts). Majority grants promote; anything less
//     leaves the group leaderless for another round.
//
// The safety argument for "no acknowledged fact is ever lost": a fact is
// acknowledged only after the leader's store and majority-1 follower
// stores hold it fsynced at the current epoch (Node.Commit). A later
// election needs majority fence grants, each refused when the granter's
// log extends past the candidate's — so the grant set and the ack set
// intersect, and the intersection forces the candidate's log to contain
// every acknowledged fact. Peers that logged past the fence point under
// the old epoch are detected by persist.DivergedSince on reconnect and
// re-bootstrapped from the new history (their unacknowledged divergent
// tail is truncated away).
package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/backoff"
	"vadalink/internal/faultinject"
	"vadalink/internal/persist"
)

// Typed failures of the replica-group write path.
var (
	// ErrNotLeader means this node cannot accept writes; ask the leader.
	ErrNotLeader = errors.New("replication: not the leader")
	// ErrStaleEpoch means the write ran under an epoch that was fenced off
	// before it could be acknowledged; it must not be reported durable.
	ErrStaleEpoch = errors.New("replication: stale epoch")
	// ErrStaleLeader means a stream peer presented an epoch older than the
	// local durable epoch — a deposed leader still talking.
	ErrStaleLeader = errors.New("replication: stale leader")
)

// Role names, as exposed in statuses and metrics.
const (
	RoleFollower = "follower"
	RoleLeader   = "leader"
)

// NodeOptions configures one replica-group member.
type NodeOptions struct {
	// Self is this node's advertised replication address (host:port) — its
	// identity in the group and the election tiebreak key. Required.
	Self string
	// API is this node's advertised HTTP API address, handed to redirecting
	// clients when this node leads.
	API string
	// Peers are the other members' replication addresses. Self is filtered
	// out, so passing the full group roster to every member is fine.
	Peers []string
	// PeersFunc, when set, overrides Peers before every election and dial —
	// for tests whose peer addresses appear as processes (re)start.
	PeersFunc func() []string
	// Lease bounds failure detection on both sides: a leader that cannot
	// see majority acks for Lease steps down; a follower that hears nothing
	// from a leader for Lease starts an election. Default 3s.
	Lease time.Duration
	// SyncEvery is the local store's WAL group-commit interval.
	SyncEvery time.Duration
	// Backoff paces follower reconnects. Zero gets the follower default.
	Backoff backoff.Policy
	// OnRoleChange, when set, observes every transition with the new role
	// and the epoch it happened at.
	OnRoleChange func(role string, epoch uint64)
	// Logger receives lifecycle events. Default: discard.
	Logger *slog.Logger
}

// FailoverEvent records one role transition.
type FailoverEvent struct {
	At time.Time `json:"at"`
	// Role is the role entered.
	Role string `json:"role"`
	// Cause: "startup", "promoted", "lease_expired", "deposed".
	Cause string `json:"cause"`
	Epoch uint64 `json:"epoch"`
}

// NodeStatus is a snapshot of a replica-group member's failover state.
type NodeStatus struct {
	Addr       string `json:"addr"`
	Role       string `json:"role"`
	Epoch      uint64 `json:"epoch"`
	Seq        int64  `json:"seq"`
	LeaderAddr string `json:"leaderAddr,omitempty"`
	LeaderAPI  string `json:"leaderAPI,omitempty"`
	// LeaseOK reports whether the role's lease condition currently holds:
	// fresh majority acks for a leader, fresh leader contact for a
	// follower.
	LeaseOK bool `json:"leaseOK"`
	// LeaseMS is the age of that evidence in milliseconds (-1 = none yet).
	LeaseMS     int64 `json:"leaseMillis"`
	Promotions  int64 `json:"promotions"`
	Depositions int64 `json:"depositions"`
	Elections   int64 `json:"elections"`
	// LastFailover is the most recent role transition (nil before any).
	LastFailover *FailoverEvent `json:"lastFailover,omitempty"`
}

// Node is one member of a self-healing replica group. It owns a durable
// store (via its Follower), serves the replication listener whatever its
// role, and switches between tailing and leading as elections dictate.
type Node struct {
	opts NodeOptions
	fl   *Follower
	ld   *Leader

	// role is RoleFollower or RoleLeader (atomic string via int).
	isLeader atomic.Bool
	// deposedBy is the highest epoch ever observed above our own — a
	// leader steps down when it outranks the epoch it leads under.
	deposedBy atomic.Uint64
	// lastQuorum is the unix-nano stamp of the last majority-ack
	// observation while leading (the leader-side lease evidence).
	lastQuorum atomic.Int64

	promotions   atomic.Int64
	depositions  atomic.Int64
	elections    atomic.Int64
	lastFailover atomic.Value // *FailoverEvent
	started      time.Time
	rr           atomic.Int64 // round-robin cursor for leaderless discovery
}

// OpenNode opens (or recovers) the member's durable store in dir. Serve and
// Run bring it into the group; until an election concludes it follows.
func OpenNode(dir string, opts NodeOptions) (*Node, error) {
	if opts.Self == "" {
		return nil, errors.New("replication: NodeOptions.Self is required")
	}
	if opts.Lease <= 0 {
		opts.Lease = 3 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	n := &Node{opts: opts, started: time.Now()}
	fl, err := OpenFollower(dir, FollowerOptions{
		ID:         opts.Self,
		API:        opts.API,
		SyncEvery:  opts.SyncEvery,
		Backoff:    opts.Backoff,
		Logger:     opts.Logger,
		leaderFunc: n.resolveLeader,
	})
	if err != nil {
		return nil, err
	}
	n.fl = fl
	n.ld = NewLeader(fl.Store(), LeaderOptions{
		Heartbeat:     opts.Lease / 6,
		API:           opts.API,
		Logger:        opts.Logger,
		onHigherEpoch: n.observeHigherEpoch,
	})
	return n, nil
}

// Follower returns the node's tailing half — the serving tier reads and,
// while the node leads, writes through its Chain exactly as it would for a
// standalone follower.
func (n *Node) Follower() *Follower { return n.fl }

// Leader returns the node's serving half (live only while leading, but
// always safe to query for counters).
func (n *Node) Leader() *Leader { return n.ld }

// Store returns the node's durable store.
func (n *Node) Store() *persist.Store { return n.fl.Store() }

// IsLeader reports whether this node currently holds the leader role. The
// authoritative write barrier is Commit — a deposed leader may see true
// here for up to a lease tick, but can never get a Commit acknowledged.
func (n *Node) IsLeader() bool { return n.isLeader.Load() }

// Epoch returns the node's durable replication epoch.
func (n *Node) Epoch() uint64 { return n.Store().Epoch() }

// LeaderHint returns the current belief of who leads (self when leading).
func (n *Node) LeaderHint() (addr, apiAddr string) {
	if n.IsLeader() {
		return n.opts.Self, n.opts.API
	}
	return n.fl.hint()
}

// Status snapshots the node's failover state.
func (n *Node) Status() NodeStatus {
	st := NodeStatus{
		Addr:        n.opts.Self,
		Role:        RoleFollower,
		Epoch:       n.Store().Epoch(),
		Seq:         n.Store().Seq(),
		Promotions:  n.promotions.Load(),
		Depositions: n.depositions.Load(),
		Elections:   n.elections.Load(),
		LeaseMS:     -1,
	}
	st.LeaderAddr, st.LeaderAPI = n.LeaderHint()
	if ev, ok := n.lastFailover.Load().(*FailoverEvent); ok {
		st.LastFailover = ev
	}
	if n.IsLeader() {
		st.Role = RoleLeader
		if q := n.lastQuorum.Load(); q > 0 {
			age := time.Since(time.Unix(0, q))
			st.LeaseMS = age.Milliseconds()
			st.LeaseOK = age <= n.opts.Lease
		}
		return st
	}
	if last := n.fl.lastContactAt(); !last.IsZero() {
		age := time.Since(last)
		st.LeaseMS = age.Milliseconds()
		st.LeaseOK = age <= n.opts.Lease
	}
	return st
}

// peerList is the current roster minus self, deduplicated and sorted (the
// sort makes election tiebreaks independent of configuration order).
func (n *Node) peerList() []string {
	src := n.opts.Peers
	if n.opts.PeersFunc != nil {
		src = n.opts.PeersFunc()
	}
	seen := map[string]bool{n.opts.Self: true}
	var out []string
	for _, p := range src {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// majority of the current group (peers + self).
func (n *Node) majority() int { return (len(n.peerList())+1)/2 + 1 }

// resolveLeader picks the next dial target for the tailing side: the
// current hint when one exists, otherwise peers in round-robin until one of
// them streams or redirects.
func (n *Node) resolveLeader() (string, error) {
	if hint, _ := n.fl.hint(); hint != "" && hint != n.opts.Self {
		return hint, nil
	}
	peers := n.peerList()
	if len(peers) == 0 {
		return "", errors.New("replication: no peers to discover a leader from")
	}
	return peers[int(n.rr.Add(1))%len(peers)], nil
}

// observeHigherEpoch is the leader's deposition signal: some member fenced
// an epoch above ours, so our authority is gone the moment we notice.
func (n *Node) observeHigherEpoch(epoch uint64) {
	for {
		cur := n.deposedBy.Load()
		if epoch <= cur || n.deposedBy.CompareAndSwap(cur, epoch) {
			break
		}
	}
	n.ld.changed.fire() // a waiting Commit must refuse now
}

// Serve answers the node's replication listener until ctx is cancelled:
// probes and fence requests whatever the role, streams while leading,
// not-a-leader redirects otherwise.
func (n *Node) Serve(ctx context.Context, ln net.Listener) error {
	n.ld.addr.Store(ln.Addr().String())
	return serve(ctx, ln, n.opts.Logger, n.handleConn)
}

// handleConn routes one inbound connection by its request shape.
func (n *Node) handleConn(ctx context.Context, conn net.Conn) error {
	req, br, err := readRequest(conn)
	if err != nil {
		return err
	}
	if req.Probe || req.Fence > 0 {
		return n.answerProbe(conn, req)
	}
	if !n.IsLeader() {
		leader, leaderAPI := n.LeaderHint()
		hb, err := json.Marshal(hello{
			Epoch: n.Store().Epoch(), NotLeader: true,
			Leader: leader, LeaderAPI: leaderAPI,
		})
		if err != nil {
			return err
		}
		return n.ld.send(conn, msgHello, hb)
	}
	n.ld.accepted.Add(1)
	n.ld.connected.Add(1)
	defer n.ld.connected.Add(-1)
	// Fence the stream to this leadership: a step-down or a newer durable
	// epoch kills every open follower connection, so followers lose
	// contact, notice, and go find (or become) the real leader instead of
	// tailing a deposed one indefinitely.
	epoch := n.Store().Epoch()
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		every := n.opts.Lease / 8
		if every < 5*time.Millisecond {
			every = 5 * time.Millisecond
		}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-watchDone:
				return
			case <-tick.C:
				if !n.IsLeader() || n.Store().Epoch() != epoch {
					conn.Close()
					return
				}
			}
		}
	}()
	return n.ld.serveStream(ctx, conn, br, req)
}

// answerProbe replies one PeerStatus to a probe or fence request. A fence
// request is the binding half of an election: granting it durably moves
// this node into the candidate's epoch, which simultaneously (a) commits
// this node to refuse the old leader's stream and acks, and (b) promises
// the candidate that this node's log is a prefix of the new history.
func (n *Node) answerProbe(conn net.Conn, req request) error {
	st := PeerStatus{
		Addr:      n.opts.Self,
		Role:      RoleFollower,
		Epoch:     n.Store().Epoch(),
		LastEpoch: n.Store().LastEpoch(),
		Seq:       n.Store().Seq(),
	}
	st.LeaderAddr, st.LeaderAPI = n.LeaderHint()
	if n.IsLeader() {
		st.Role = RoleLeader
		st.LeaderFreshMS = 0
	} else if last := n.fl.lastContactAt(); last.IsZero() {
		st.LeaderFreshMS = -1
	} else {
		st.LeaderFreshMS = time.Since(last).Milliseconds()
	}
	if req.Fence > 0 {
		staleLeader := st.Role != RoleLeader &&
			(st.LeaderFreshMS < 0 || st.LeaderFreshMS > n.opts.Lease.Milliseconds())
		// The candidate's history must be at least as up to date as ours,
		// compared by (epoch of newest fact, seq) — seq alone would let a
		// candidate whose equal-length tail was written under an older,
		// fenced-off epoch orphan an acknowledged fact.
		upToDate := req.LastEpoch > st.LastEpoch ||
			(req.LastEpoch == st.LastEpoch && req.FenceStart >= st.Seq)
		if req.Fence > st.Epoch && staleLeader && upToDate {
			// Re-evaluate the history comparison atomically with the mark:
			// between the snapshot above and here a streamed frame may have
			// advanced (and acked!) our seq, or a competing fence may have
			// raised our epoch. The grant must hold against the state the
			// old leader could still be counting acks from.
			granted, err := n.fl.grantFence(persist.EpochMark{
				Epoch: req.Fence, StartSeq: req.FenceStart,
			}, func(seq int64, epoch, lastEpoch uint64) bool {
				return req.Fence > epoch &&
					(req.LastEpoch > lastEpoch ||
						(req.LastEpoch == lastEpoch && req.FenceStart >= seq))
			})
			if granted && err == nil {
				n.ld.changed.fire() // the store's epoch moved
				st.Granted = true
				st.Epoch = req.Fence
				// Adopt the candidate as the leader to dial next: it wins
				// or nobody does, and a wrong hint just costs a redirect.
				if req.ID != "" {
					n.fl.setLeaderHint(req.ID, req.API)
				}
				n.opts.Logger.Info("fence granted",
					"epoch", req.Fence, "startSeq", req.FenceStart, "candidate", req.ID)
			}
		}
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return n.ld.send(conn, msgStatus, payload)
}

// probePeers sends req to every peer in parallel and collects the replies
// that arrive within a third of the lease. Unreachable peers are simply
// absent.
func (n *Node) probePeers(peers []string, req request) []PeerStatus {
	out := make([]PeerStatus, 0, len(peers))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, peer := range peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			st, err := probeOne(peer, req, n.opts.Lease/3)
			if err != nil {
				return
			}
			mu.Lock()
			out = append(out, st)
			mu.Unlock()
		}(peer)
	}
	wg.Wait()
	return out
}

// probeOne performs one probe round-trip.
func probeOne(addr string, req request, timeout time.Duration) (PeerStatus, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return PeerStatus{}, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	line, err := json.Marshal(req)
	if err != nil {
		return PeerStatus{}, err
	}
	if _, err := conn.Write(append(line, '\n')); err != nil {
		return PeerStatus{}, err
	}
	typ, payload, err := readMsg(conn)
	if err != nil {
		return PeerStatus{}, err
	}
	if typ != msgStatus {
		return PeerStatus{}, fmt.Errorf("replication: expected status, got %q", typ)
	}
	var st PeerStatus
	if err := decodeJSON(payload, &st); err != nil {
		return PeerStatus{}, err
	}
	return st, nil
}

// elect runs one election round and reports whether this node promoted.
//
// Round 1 (non-binding): probe the group. Abort unless a majority is
// reachable, nobody still hears a live leader, and this node is the
// deterministic candidate — highest applied seq, lowest address tiebreak.
// Round 2 (binding): ask every peer to durably fence into maxEpoch+1 at
// our sequence number; majority grants promote.
func (n *Node) elect() bool {
	n.elections.Add(1)
	peers := n.peerList()
	maj := n.majority()
	mySeq, myEpoch, myLast := n.Store().Seq(), n.Store().Epoch(), n.Store().LastEpoch()

	sts := n.probePeers(peers, request{
		Probe: true, ID: n.opts.Self, Seq: mySeq, Epoch: myEpoch, LastEpoch: myLast,
	})
	if 1+len(sts) < maj {
		n.opts.Logger.Debug("election aborted: no quorum reachable",
			"reachable", 1+len(sts), "majority", maj)
		return false
	}
	// The deterministic candidate: the reachable member with the most
	// up-to-date history — highest (epoch of newest fact, seq), lowest
	// address breaking exact ties. Seq alone is not enough: after a
	// failover, a revenant ex-leader's unacknowledged divergent tail can
	// match the acknowledged history's length while holding different
	// facts; the fact-bearing epoch disambiguates.
	maxEpoch := myEpoch
	bestLast, bestSeq, bestAddr := myLast, mySeq, n.opts.Self
	better := func(le uint64, seq int64, addr string) bool {
		if le != bestLast {
			return le > bestLast
		}
		if seq != bestSeq {
			return seq > bestSeq
		}
		return addr < bestAddr
	}
	for _, st := range sts {
		if st.Epoch > maxEpoch {
			maxEpoch = st.Epoch
		}
		if st.Role == RoleLeader {
			// A peer that still believes it leads does not veto the
			// election — a live-but-mute leader must be replaceable — and
			// is not a candidate either (it will not run an election).
			// Promotion fences it out; any leader-only log tail it holds
			// is by definition unacknowledged and is truncated on rejoin.
			continue
		}
		if st.LeaderFreshMS >= 0 && st.LeaderFreshMS <= n.opts.Lease.Milliseconds() {
			// A follower with fresh leader contact is evidence the leader
			// is healthy and we are the partitioned ones. Stand down.
			n.opts.Logger.Debug("election aborted: peer still hears the leader",
				"peer", st.Addr, "freshMillis", st.LeaderFreshMS)
			return false
		}
		if better(st.LastEpoch, st.Seq, st.Addr) {
			bestLast, bestSeq, bestAddr = st.LastEpoch, st.Seq, st.Addr
		}
	}
	if bestAddr != n.opts.Self {
		n.opts.Logger.Debug("election deferred to better candidate",
			"candidate", bestAddr, "candidateSeq", bestSeq, "selfSeq", mySeq)
		return false
	}

	// The promotion-race window: hooks here hold the candidate between
	// deciding and fencing, so tests can land competing fences in between.
	faultinject.Fire(faultinject.SiteReplPromote)

	fence := maxEpoch + 1
	grants := 0
	for _, st := range n.probePeers(peers, request{
		Fence: fence, FenceStart: mySeq,
		ID: n.opts.Self, API: n.opts.API, Seq: mySeq, Epoch: myEpoch, LastEpoch: myLast,
	}) {
		if st.Granted {
			grants++
		}
	}
	if 1+grants < maj {
		n.opts.Logger.Debug("election lost: not enough fence grants",
			"grants", grants, "majority", maj, "epoch", fence)
		return false
	}
	// The local mark goes through the same seqMu-serialized path as peer
	// grants: a frame our own live stream applies concurrently must not
	// straddle it. RecordEpoch clamps StartSeq up to the applied seq, so
	// records adopted between round 2 and here stay attributed to the epoch
	// that actually wrote them.
	if _, err := n.fl.grantFence(persist.EpochMark{Epoch: fence, StartSeq: mySeq}, nil); err != nil {
		// A competing fence landed locally between rounds; our epoch is
		// gone. The grants we collected fence peers into our epoch number,
		// but without the local mark we must not lead.
		n.opts.Logger.Debug("election lost: local fence refused", "err", err)
		return false
	}
	n.opts.Logger.Info("promoted", "epoch", fence, "startSeq", mySeq, "grants", grants)
	return true
}

// Run operates the node's role state machine until ctx is cancelled:
// follow → (lease expiry) → elect → lead → (lease loss or deposition) →
// follow → ...
func (n *Node) Run(ctx context.Context) error {
	n.transition(RoleFollower, "startup")
	for ctx.Err() == nil {
		if n.IsLeader() {
			cause := n.runLeader(ctx)
			if ctx.Err() != nil {
				break
			}
			n.transition(RoleFollower, cause)
			continue
		}
		if n.runFollower(ctx) && ctx.Err() == nil && n.elect() {
			n.transition(RoleLeader, "promoted")
		}
	}
	return ctx.Err()
}

// transition records a role change and notifies observers.
func (n *Node) transition(role, cause string) {
	wasLeader := n.isLeader.Swap(role == RoleLeader)
	if role == RoleLeader {
		n.lastQuorum.Store(time.Now().UnixNano())
		n.promotions.Add(1)
	} else if wasLeader {
		n.depositions.Add(1)
	}
	n.ld.changed.fire()
	ev := &FailoverEvent{At: time.Now(), Role: role, Cause: cause, Epoch: n.Store().Epoch()}
	n.lastFailover.Store(ev)
	n.opts.Logger.Info("role transition", "role", role, "cause", cause, "epoch", ev.Epoch)
	if n.opts.OnRoleChange != nil {
		n.opts.OnRoleChange(role, ev.Epoch)
	}
}

// runFollower tails the current leader while watching the lease. It
// returns true when the lease expired (the caller should elect), false
// when ctx ended.
func (n *Node) runFollower(ctx context.Context) (leaseExpired bool) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = n.fl.Run(sctx)
	}()
	since := func() time.Duration {
		if last := n.fl.lastContactAt(); !last.IsZero() {
			return time.Since(last)
		}
		return time.Since(n.started)
	}
	tick := time.NewTicker(n.opts.Lease / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			<-done
			return false
		case <-done:
			return false
		case <-tick.C:
			if since() > n.opts.Lease {
				// Silence past the lease: stop tailing and let the caller
				// run an election.
				cancel()
				<-done
				return true
			}
		}
	}
}

// quorumAcked reports whether majority-1 members — the leader's own store
// is the last vote — hold seq fsynced at epoch, by acks that arrived within
// the lease. Only the roster's acks count: a plain follower tailing this
// node is a learner, which never votes in an election, so its acks must not
// make a fact durable or keep a lease alive.
func (n *Node) quorumAcked(seq int64, epoch uint64) bool {
	peers := n.peerList()
	return n.ld.ackedAtLeast(peers, seq, epoch, n.opts.Lease) >= (len(peers)+1)/2
}

// runLeader serves writes until the lease collapses or a higher epoch
// appears, returning the step-down cause. The lease condition mirrors
// Commit's barrier: majority-1 members must have acked at the current
// epoch within the lease window (a single-node group renews trivially).
func (n *Node) runLeader(ctx context.Context) (cause string) {
	epoch := n.Store().Epoch()
	n.lastQuorum.Store(time.Now().UnixNano())
	tick := time.NewTicker(n.opts.Lease / 4)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return "shutdown"
		case <-tick.C:
		}
		if d := n.deposedBy.Load(); d > epoch {
			return "deposed"
		}
		if n.Store().Epoch() != epoch {
			// The local store fenced a newer epoch under us (a granted
			// fence while we thought we led).
			return "deposed"
		}
		if ferr := faultinject.FireErr(faultinject.SiteReplLease); ferr != nil {
			return "lease_expired"
		}
		if n.quorumAcked(0, epoch) {
			n.lastQuorum.Store(time.Now().UnixNano())
		}
		if time.Since(time.Unix(0, n.lastQuorum.Load())) > n.opts.Lease {
			return "lease_expired"
		}
	}
}

// Commit is the group write barrier: it makes everything up to the current
// sequence number durable on a majority at the current epoch, or refuses.
// Callers acknowledge a write if and only if Commit returns nil — that is
// the whole no-acked-fact-loss invariant.
func (n *Node) Commit(ctx context.Context) error {
	if !n.IsLeader() {
		return ErrNotLeader
	}
	epoch := n.Store().Epoch()
	seq := n.Store().Seq()
	if err := n.Store().Sync(); err != nil {
		return err
	}
	stale := func() bool {
		return n.deposedBy.Load() > epoch || n.Store().Epoch() != epoch || !n.IsLeader()
	}
	for {
		// Take the wake-up before checking: an ack, deposition or role
		// change that lands after this line closes it.
		changed := n.ld.changed.wait()
		if stale() {
			return ErrStaleEpoch
		}
		if n.quorumAcked(seq, epoch) {
			// Re-check after counting: a deposition between the count and
			// the acknowledgement would let a dual-epoch ack slip out.
			if stale() {
				return ErrStaleEpoch
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replication: commit quorum: %w", ctx.Err())
		case <-changed:
		}
	}
}
