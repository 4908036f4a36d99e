package replication

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/store"
)

// testMember is one in-process replica-group member: a Node plus its
// listener and the goroutines running Serve and Run. Test-side reads and
// writes go through the member's version chain, as the serving tier's do.
type testMember struct {
	n      *Node
	dir    string
	ln     net.Listener
	cancel context.CancelFunc
	done   chan struct{}
}

func (m *testMember) addr() string { return m.ln.Addr().String() }

// stop simulates a crash: Serve and Run halt, the listener closes, but the
// on-disk state stays (the member can be restarted from the same dir).
func (m *testMember) stop() {
	m.cancel()
	<-m.done
	m.n.Store().Close()
}

// startMember opens a member in dir listening on a fresh port. peersFn
// yields the full group roster (self included — Node filters it out).
func startMember(t *testing.T, dir string, lease time.Duration, peersFn func() []string) *testMember {
	t.Helper()
	return startMemberOn(t, listen(t), dir, lease, peersFn)
}

// listen binds a fresh loopback port.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// startMemberOn opens a member in dir serving on ln.
func startMemberOn(t *testing.T, ln net.Listener, dir string, lease time.Duration, peersFn func() []string) *testMember {
	t.Helper()
	n, err := OpenNode(dir, NodeOptions{
		Self:      ln.Addr().String(),
		API:       "api-" + ln.Addr().String(),
		PeersFunc: peersFn,
		Lease:     lease,
		SyncEvery: time.Millisecond,
	})
	if err != nil {
		ln.Close()
		t.Fatalf("OpenNode: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &testMember{n: n, dir: dir, ln: ln, cancel: cancel, done: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = n.Serve(ctx, ln) }()
	go func() { defer wg.Done(); _ = n.Run(ctx) }()
	go func() { wg.Wait(); close(m.done) }()
	t.Cleanup(func() {
		cancel()
		<-m.done
		n.Store().Close()
	})
	return m
}

// startGroup brings up k members that all know each other's addresses from
// the start: every listener is bound before any member runs, so none can
// elect itself before it sees a lower address.
func startGroup(t *testing.T, k int, lease time.Duration) []*testMember {
	t.Helper()
	lns := make([]net.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		lns[i] = listen(t)
		addrs[i] = lns[i].Addr().String()
	}
	peersFn := func() []string { return append([]string(nil), addrs...) }
	members := make([]*testMember, 0, k)
	for _, ln := range lns {
		members = append(members, startMemberOn(t, ln, t.TempDir(), lease, peersFn))
	}
	return members
}

// waitLeader blocks until exactly one live member leads, and returns it.
func waitLeader(t *testing.T, members []*testMember, within time.Duration) *testMember {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		var leaders []*testMember
		for _, m := range members {
			select {
			case <-m.done:
				continue
			default:
			}
			if m.n.IsLeader() {
				leaders = append(leaders, m)
			}
		}
		if len(leaders) == 1 {
			return leaders[0]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no single leader within %v", within)
	return nil
}

// addCompany commits one company node through n's version chain, the way
// the serving tier writes while n leads, and returns its ID and the seq the
// commit published. A frame that lands first makes the commit conflict.
func addCompany(n *Node, props pg.Properties) (pg.NodeID, int64, error) {
	txn := n.Follower().Chain().Begin()
	id := txn.Overlay().AddNode(pg.LabelCompany, props)
	v, err := txn.Commit()
	if err != nil {
		return 0, 0, err
	}
	return id, int64(v.Seq()), nil
}

// commitOne appends one company fact on the leader and runs the group
// write barrier, returning the sequence number the ack covers.
func commitOne(t *testing.T, m *testMember, name string) int64 {
	t.Helper()
	_, seq, err := addCompany(m.n, pg.Properties{"name": name})
	if err != nil {
		t.Fatalf("commit on the leader's chain: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.n.Commit(ctx); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	return seq
}

// commitOnGroup commits one fact through whichever member currently leads,
// retrying when a dueling election deposes the leader between discovery and
// the quorum barrier — the same loop a real client runs on a 421. A write
// that raced a deposition lands on the deposed member as a divergent tail,
// which the reset bootstrap truncates when it rejoins the new history.
func commitOnGroup(t *testing.T, members []*testMember, name string) (*testMember, int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		m := waitLeader(t, members, 15*time.Second)
		_, seq, err := addCompany(m.n, pg.Properties{"name": name})
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			err = m.n.Commit(ctx)
			cancel()
		}
		if err == nil {
			return m, seq
		}
		if !errors.Is(err, ErrStaleEpoch) && !errors.Is(err, ErrNotLeader) && !errors.Is(err, store.ErrConflict) {
			t.Fatalf("Commit: %v", err)
		}
	}
	t.Fatal("no leader accepted the commit within 30s")
	return nil, 0
}

func TestSingleNodeSelfPromotes(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 1, 200*time.Millisecond)
	leader := waitLeader(t, members, 5*time.Second)
	if got := leader.n.Epoch(); got != 1 {
		t.Fatalf("first promotion should open epoch 1, got %d", got)
	}
	commitOne(t, leader, "solo")
	st := leader.n.Status()
	if st.Role != RoleLeader || st.Promotions != 1 {
		t.Fatalf("status = %+v, want leader with 1 promotion", st)
	}
	if st.LastFailover == nil || st.LastFailover.Cause != "promoted" {
		t.Fatalf("last failover = %+v, want promoted", st.LastFailover)
	}
}

func TestThreeNodeElectionIsDeterministic(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 3, 250*time.Millisecond)
	leader := waitLeader(t, members, 10*time.Second)
	// All members start at seq 0, so the tiebreak — lowest address — must
	// pick the winner.
	lowest := members[0].addr()
	for _, m := range members[1:] {
		if m.addr() < lowest {
			lowest = m.addr()
		}
	}
	if leader.addr() != lowest {
		t.Fatalf("leader %s, want lowest address %s", leader.addr(), lowest)
	}
	// Followers learn the leader through the stream handshake.
	waitFor(t, 5*time.Second, "followers learn leader hint", func() bool {
		for _, m := range members {
			if m == leader {
				continue
			}
			if hint, _ := m.n.LeaderHint(); hint != leader.addr() {
				return false
			}
		}
		return true
	})
}

func TestCommitOnFollowerRefused(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 3, 250*time.Millisecond)
	leader := waitLeader(t, members, 10*time.Second)
	for _, m := range members {
		if m == leader {
			continue
		}
		if err := m.n.Commit(context.Background()); !errors.Is(err, ErrNotLeader) {
			t.Fatalf("follower Commit = %v, want ErrNotLeader", err)
		}
	}
}

func TestFailoverPreservesAckedFacts(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 3, 250*time.Millisecond)
	var (
		leader   *testMember
		ackedSeq int64
	)
	for i := 0; i < 5; i++ {
		leader, ackedSeq = commitOnGroup(t, members, "acked")
	}
	oldEpoch := leader.n.Epoch()

	// Crash the leader. The two survivors still form a majority of three,
	// so one of them must fence a higher epoch and take over.
	leader.stop()
	var survivors []*testMember
	for _, m := range members {
		if m != leader {
			survivors = append(survivors, m)
		}
	}
	next := waitLeader(t, survivors, 15*time.Second)
	if next.n.Epoch() <= oldEpoch {
		t.Fatalf("new leader epoch %d, want > %d", next.n.Epoch(), oldEpoch)
	}
	// Every acknowledged fact survived the failover.
	if got := next.n.Store().Seq(); got < ackedSeq {
		t.Fatalf("new leader seq %d lost acked facts (acked through %d)", got, ackedSeq)
	}
	// And the group accepts writes again.
	commitOnGroup(t, survivors, "after-failover")
}

// A plain follower tailing a group member is a learner: it never votes in
// an election, so its acks must neither acknowledge a write nor renew the
// leader's lease. Otherwise a fact held only by the leader and the learner
// is acknowledged, and a failover to either stopped member loses it.
func TestLearnerAcksDoNotCount(t *testing.T) {
	t.Parallel()
	const lease = 500 * time.Millisecond
	members := startGroup(t, 3, lease)
	leader := waitLeader(t, members, 10*time.Second)
	commitOne(t, leader, "acked by members")
	learner := testFollower(t, leader.addr(), FollowerOptions{Backoff: backoffFast()})
	waitSeq(t, learner, leader.n.Store().Seq())
	for _, m := range members {
		if m != leader {
			m.stop()
		}
	}

	_, seq, err := addCompany(leader.n, pg.Properties{"name": "learner only"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*lease)
	defer cancel()
	if err := leader.n.Commit(ctx); err == nil {
		t.Fatal("Commit acknowledged a fact that only the leader and a learner hold")
	}
	waitSeq(t, learner, seq)
	waitFor(t, 10*time.Second, "leader steps down without a member quorum", func() bool {
		return !leader.n.IsLeader()
	})
}

func TestLeaseLossStepsLeaderDown(t *testing.T) {
	members := startGroup(t, 3, 250*time.Millisecond)
	leader := waitLeader(t, members, 10*time.Second)
	faultinject.SetErr(faultinject.SiteReplLease, func() error {
		return errors.New("injected lease loss")
	})
	defer faultinject.Clear(faultinject.SiteReplLease)
	waitFor(t, 10*time.Second, "leader steps down", func() bool {
		st := leader.n.Status()
		return st.Role == RoleFollower && st.Depositions >= 1 &&
			st.LastFailover != nil && st.LastFailover.Cause == "lease_expired"
	})
	faultinject.Clear(faultinject.SiteReplLease)
	// With the fault gone the group heals: some member leads again.
	waitLeader(t, members, 15*time.Second)
}

func TestHeartbeatLossTriggersFailover(t *testing.T) {
	members := startGroup(t, 3, 250*time.Millisecond)
	leader := waitLeader(t, members, 10*time.Second)
	oldEpoch := leader.n.Epoch()
	// Mute every heartbeat: streams stay connected but carry no liveness,
	// so follower leases expire under a live leader.
	faultinject.SetErr(faultinject.SiteReplHeartbeat, func() error {
		return errors.New("injected heartbeat loss")
	})
	defer faultinject.Clear(faultinject.SiteReplHeartbeat)
	waitFor(t, 15*time.Second, "a higher epoch is fenced", func() bool {
		for _, m := range members {
			if m.n.Epoch() > oldEpoch {
				return true
			}
		}
		return false
	})
	faultinject.Clear(faultinject.SiteReplHeartbeat)
	// Wait for a leader of the NEW epoch specifically: sampling for "any
	// sole leader" races the moment between a fence being granted and the
	// candidate finishing its promotion, when the deposed leader still
	// looks like the only one.
	waitFor(t, 15*time.Second, "a new leader at a higher epoch", func() bool {
		for _, m := range members {
			if m.n.IsLeader() && m.n.Epoch() > oldEpoch {
				return true
			}
		}
		return false
	})
	// The deposed leader must not keep its authority.
	waitFor(t, 10*time.Second, "old leader deposed", func() bool {
		return !leader.n.IsLeader() || leader.n.Epoch() > oldEpoch
	})
}

// TestPromotionLosesToCompetingFence covers the promotion race: a competing
// fence lands between a candidate deciding to promote and it recording the
// new epoch locally. The candidate must abandon the election, not lead
// under an epoch it no longer holds.
func TestPromotionLosesToCompetingFence(t *testing.T) {
	dir := t.TempDir()
	n, err := OpenNode(dir, NodeOptions{Self: "127.0.0.1:1", Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	defer n.Store().Close()
	// Single-member group: elect needs no peers, so the race window is the
	// only thing between deciding and promoting.
	faultinject.Set(faultinject.SiteReplPromote, func() {
		_ = n.Store().RecordEpoch(persist.EpochMark{Epoch: 10, StartSeq: n.Store().Seq()})
	})
	defer faultinject.Clear(faultinject.SiteReplPromote)
	if n.elect() {
		t.Fatal("elect() won despite a competing fence landing mid-promotion")
	}
	faultinject.Clear(faultinject.SiteReplPromote)
	if !n.elect() {
		t.Fatal("elect() failed with no competition in a single-member group")
	}
	if got := n.Store().Epoch(); got != 11 {
		t.Fatalf("epoch after re-election = %d, want 11 (fence above the competing 10)", got)
	}
}

// TestFenceGrantRules drives answerProbe directly through a pipe and checks
// every clause of the grant condition.
func TestFenceGrantRules(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	n, err := OpenNode(dir, NodeOptions{Self: "127.0.0.1:1", Lease: 200 * time.Millisecond})
	if err != nil {
		t.Fatalf("OpenNode: %v", err)
	}
	defer n.Store().Close()
	n.Store().Graph().AddNode(pg.LabelCompany, pg.Properties{"name": "x"})
	seq := n.Store().Seq()

	probe := func(req request) PeerStatus {
		t.Helper()
		client, server := net.Pipe()
		defer client.Close()
		done := make(chan error, 1)
		go func() {
			defer server.Close()
			done <- n.answerProbe(server, req)
		}()
		typ, payload, err := readMsg(client)
		if err != nil {
			t.Fatalf("readMsg: %v", err)
		}
		if typ != msgStatus {
			t.Fatalf("got message type %q, want status", typ)
		}
		var st PeerStatus
		if err := decodeJSON(payload, &st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("answerProbe: %v", err)
		}
		return st
	}

	// A fence that would orphan local facts (FenceStart < seq) is refused.
	if st := probe(request{Fence: 5, FenceStart: seq - 1, ID: "c"}); st.Granted {
		t.Fatal("granted a fence that orphans local facts")
	}
	// A non-advancing fence is refused.
	if err := n.Store().RecordEpoch(persist.EpochMark{Epoch: 7, StartSeq: seq}); err != nil {
		t.Fatal(err)
	}
	if st := probe(request{Fence: 7, FenceStart: seq, ID: "c"}); st.Granted {
		t.Fatal("granted a non-advancing fence")
	}
	// A valid fence is granted, durably.
	st := probe(request{Fence: 9, FenceStart: seq, ID: "cand:1", API: "cand-api"})
	if !st.Granted || st.Epoch != 9 {
		t.Fatalf("valid fence: %+v, want granted at epoch 9", st)
	}
	if got := n.Store().Epoch(); got != 9 {
		t.Fatalf("store epoch %d, want 9", got)
	}
	if hint, api := n.fl.hint(); hint != "cand:1" || api != "cand-api" {
		t.Fatalf("leader hint %q/%q, want candidate", hint, api)
	}
	// Fresh leader contact blocks further grants.
	n.fl.touchContact()
	if st := probe(request{Fence: 12, FenceStart: seq, ID: "c"}); st.Granted {
		t.Fatal("granted a fence while still hearing a live leader")
	}
}

// TestRejoinedStaleLeaderIsReset: a member that wrote past the fence point
// under the old epoch (an unreplicated divergent tail) must be bootstrapped
// from the new history when it rejoins, not merged.
func TestRejoinedStaleLeaderIsReset(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 3, 250*time.Millisecond)
	commitOnGroup(t, members, "base")
	leader, ackedSeq := commitOnGroup(t, members, "base2")

	// Crash the leader, then give its on-disk state a divergent tail: a
	// fact written under the old epoch that was never replicated or acked.
	dir := leader.dir
	leader.stop()
	staleStore, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatalf("reopen stale store: %v", err)
	}
	staleStore.Graph().AddNode(pg.LabelPerson, pg.Properties{"name": "divergent"})
	if err := staleStore.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := staleStore.Close(); err != nil {
		t.Fatal(err)
	}

	var survivors []*testMember
	for _, m := range members {
		if m != leader {
			survivors = append(survivors, m)
		}
	}
	next, _ := commitOnGroup(t, survivors, "new-history")

	// Rejoin the stale member from its tainted dir.
	var (
		mu    sync.Mutex
		addrs []string
	)
	for _, m := range survivors {
		addrs = append(addrs, m.addr())
	}
	peersFn := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), addrs...)
	}
	rejoined := startMember(t, dir, 250*time.Millisecond, peersFn)
	mu.Lock()
	addrs = append(addrs, rejoined.addr())
	mu.Unlock()

	waitFor(t, 20*time.Second, "rejoined member adopts the new history", func() bool {
		v := rejoined.n.Follower().Chain().Current()
		return rejoined.n.Epoch() >= next.n.Epoch() && int64(v.Seq()) >= ackedSeq &&
			len(v.View().NodesWithLabel(pg.LabelPerson)) == 0
	})
}

func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestNodeStatusFields sanity-checks the surfaced status shape used by the
// serving tier's metrics.
func TestNodeStatusFields(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 1, 200*time.Millisecond)
	leader := waitLeader(t, members, 5*time.Second)
	st := leader.n.Status()
	if st.Addr == "" || !strings.Contains(st.Addr, ":") {
		t.Fatalf("bad addr %q", st.Addr)
	}
	if st.LeaderAddr != st.Addr {
		t.Fatalf("leader's LeaderAddr %q, want self %q", st.LeaderAddr, st.Addr)
	}
	if !st.LeaseOK || st.LeaseMS < 0 {
		t.Fatalf("leader lease not ok: %+v", st)
	}
}

// grantFence re-evaluates the grant condition atomically against the
// store's live (seq, epoch, lastEpoch): a condition computed from a stale
// snapshot must be refused once the real state has moved past it. This is
// the binding half of the election protocol — without the re-check, a
// frame applied (and acked) between a probe's snapshot and the durable
// mark would let a candidate missing that acked record win the fence.
func TestGrantFenceRecheck(t *testing.T) {
	t.Parallel()
	fl, err := OpenFollower(t.TempDir(), FollowerOptions{Leader: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	g := fl.Store().Graph()
	g.AddNode(pg.LabelCompany, nil)
	g.AddNode(pg.LabelCompany, nil)

	// Stale condition: a candidate fencing at seq 1 when we durably hold 2.
	granted, err := fl.grantFence(persist.EpochMark{Epoch: 1, StartSeq: 1},
		func(seq int64, epoch, lastEpoch uint64) bool { return 1 >= seq })
	if err != nil || granted {
		t.Fatalf("stale fence granted = %v, err = %v; want refused", granted, err)
	}
	if fl.Store().Epoch() != 0 {
		t.Fatalf("refused grant moved epoch to %d", fl.Store().Epoch())
	}

	// A condition consistent with live state is granted and durable.
	granted, err = fl.grantFence(persist.EpochMark{Epoch: 1, StartSeq: 2},
		func(seq int64, epoch, lastEpoch uint64) bool { return 2 >= seq && epoch == 0 })
	if err != nil || !granted {
		t.Fatalf("valid fence granted = %v, err = %v; want granted", granted, err)
	}
	if fl.Store().Epoch() != 1 {
		t.Fatalf("epoch after grant = %d, want 1", fl.Store().Epoch())
	}
}
