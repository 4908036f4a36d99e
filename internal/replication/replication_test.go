package replication

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vadalink/internal/backoff"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
)

// testLeader spins up a leader store + serving loop on an ephemeral port.
// Cleanup tears the whole thing down.
func testLeader(t *testing.T, opts LeaderOptions) (*persist.Store, *Leader, string) {
	t.Helper()
	return testLeaderStore(t, persist.Options{}, opts)
}

// testLeaderStore is testLeader with the leader store's options chosen.
func testLeaderStore(t *testing.T, sopts persist.Options, opts LeaderOptions) (*persist.Store, *Leader, string) {
	t.Helper()
	st, err := persist.Open(t.TempDir(), sopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ld := NewLeader(st, opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ld.Serve(ctx, ln); err != nil {
			t.Errorf("leader serve: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return st, ld, ln.Addr().String()
}

// testFollower opens a follower in a temp dir and runs it against addr.
func testFollower(t *testing.T, addr string, opts FollowerOptions, beforeRun ...func(*Follower)) *Follower {
	t.Helper()
	if opts.Leader == "" && opts.LeaderFunc == nil {
		opts.Leader = addr
	}
	fl, err := OpenFollower(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range beforeRun {
		fn(fl)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fl.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		fl.Close()
	})
	return fl
}

// waitSeq polls until the follower has applied through seq (or the deadline
// passes).
func waitSeq(t *testing.T, fl *Follower, seq int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fl.Seq() < seq {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (status %+v)", fl.Seq(), seq, fl.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sameFacts asserts the follower graph holds exactly the leader graph's
// nodes and edges.
func sameFacts(t *testing.T, leader, follower *pg.Graph) {
	t.Helper()
	if leader.NumNodes() != follower.NumNodes() || leader.NumEdges() != follower.NumEdges() {
		t.Fatalf("follower has %d nodes / %d edges, leader %d / %d",
			follower.NumNodes(), follower.NumEdges(), leader.NumNodes(), leader.NumEdges())
	}
	for _, id := range leader.Nodes() {
		ln, fn := leader.Node(id), follower.Node(id)
		if fn == nil || fn.Label != ln.Label || len(fn.Props) != len(ln.Props) {
			t.Fatalf("node %d differs: leader %+v follower %+v", id, ln, fn)
		}
		for k, v := range ln.Props {
			if fn.Props[k] != v {
				t.Fatalf("node %d prop %q: leader %v follower %v", id, k, v, fn.Props[k])
			}
		}
	}
	for _, id := range leader.Edges() {
		le, fe := leader.Edge(id), follower.Edge(id)
		if fe == nil || fe.From != le.From || fe.To != le.To || fe.Label != le.Label {
			t.Fatalf("edge %d differs: leader %+v follower %+v", id, le, fe)
		}
	}
}

// The happy path: a follower bootstrapping from empty tails a live leader
// through node adds, edge adds and removals, and converges to an identical
// graph.
func TestFollowerTailsLeader(t *testing.T) {
	st, ld, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()

	// Pre-existing state before the follower ever connects.
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	e := g.MustAddEdgeWeighted(a, b, 0.4)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	fl := testFollower(t, addr, FollowerOptions{})
	waitSeq(t, fl, st.Seq())

	// Live writes while connected, including removals.
	c := g.AddNode(pg.LabelPerson, pg.Properties{"name": "C"})
	g.MustAddEdgeWeighted(c, a, 0.9)
	g.RemoveEdge(e)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, fl, st.Seq())
	sameFacts(t, g, fl.Graph())

	status := fl.Status()
	if !status.Connected || !status.EverSynced {
		t.Fatalf("status = %+v, want connected and synced", status)
	}
	if status.LagRecords != 0 {
		t.Fatalf("lag = %d, want 0", status.LagRecords)
	}
	lst := ld.Status()
	if lst.Connected != 1 || lst.FramesShipped < 6 {
		t.Fatalf("leader status = %+v", lst)
	}
}

// Two followers converge independently; a heartbeat keeps an idle stream's
// staleness bounded.
func TestTwoFollowersConvergeAndStayFresh(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{Heartbeat: 10 * time.Millisecond})
	g := st.Graph()
	for i := 0; i < 50; i++ {
		g.AddNode(pg.LabelCompany, pg.Properties{"i": int64(i)})
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	f1 := testFollower(t, addr, FollowerOptions{})
	f2 := testFollower(t, addr, FollowerOptions{})
	waitSeq(t, f1, st.Seq())
	waitSeq(t, f2, st.Seq())

	// Let heartbeats refresh the staleness clock on an idle stream.
	time.Sleep(50 * time.Millisecond)
	for i, fl := range []*Follower{f1, f2} {
		stt := fl.Status()
		if !stt.EverSynced || stt.Staleness > time.Second {
			t.Fatalf("follower %d staleness = %v (status %+v)", i+1, stt.Staleness, stt)
		}
	}
	sameFacts(t, g, f1.Graph())
	sameFacts(t, g, f2.Graph())
}

// A follower that reconnects mid-generation resumes from its own sequence
// number: the leader skips frames the follower already holds.
func TestFollowerResumesMidGeneration(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	for i := 0; i < 10; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fl, err := OpenFollower(dir, FollowerOptions{Leader: addr})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	waitSeq(t, fl, 10)
	cancel()
	<-done
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	// More leader writes while the follower is down.
	for i := 0; i < 5; i++ {
		g.AddNode(pg.LabelPerson, nil)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Same directory: the follower recovers seq 10 from its local store and
	// must receive exactly the 5 new frames.
	fl2, err := OpenFollower(dir, FollowerOptions{Leader: addr})
	if err != nil {
		t.Fatal(err)
	}
	if got := fl2.Seq(); got != 10 {
		t.Fatalf("recovered follower seq = %d, want 10", got)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); fl2.Run(ctx2) }()
	defer func() {
		cancel2()
		<-done2
		fl2.Close()
	}()
	waitSeq(t, fl2, 15)
	if st2 := fl2.Status(); st2.Bootstraps != 0 {
		t.Fatalf("mid-generation resume took %d bootstraps, want 0", st2.Bootstraps)
	}
	sameFacts(t, g, fl2.Graph())
}

// A fresh follower connecting after the leader rotated (truncating the log)
// bootstraps from the shipped snapshot, then applies the tail frames.
func TestLaggedFollowerBootstrapsFromSnapshot(t *testing.T) {
	st, ld, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	for i := 0; i < 20; i++ {
		g.AddNode(pg.LabelCompany, pg.Properties{"i": int64(i)})
	}
	if _, err := st.Snapshot(); err != nil { // rotation: wal gen 0 is gone
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		g.AddNode(pg.LabelPerson, nil)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	fl := testFollower(t, addr, FollowerOptions{})
	waitSeq(t, fl, 27)
	sameFacts(t, g, fl.Graph())
	if stt := fl.Status(); stt.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want 1", stt.Bootstraps)
	}
	if lst := ld.Status(); lst.SnapshotsShipped != 1 {
		t.Fatalf("leader shipped %d snapshots, want 1", lst.SnapshotsShipped)
	}
	// The bootstrap state is durable locally: a reopened store starts at
	// the bootstrapped position, not at zero.
	g2 := fl.Graph()
	if got := persist.SeqOfGraph(g2); got != 27 {
		t.Fatalf("follower graph seq = %d, want 27", got)
	}
}

// The leader keeps streaming across its own rotations: the follower sees
// the stream close, reconnects, and picks up the new generation without
// losing or duplicating a record.
func TestStreamingAcrossRotation(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()

	fl := testFollower(t, addr, FollowerOptions{
		Backoff: backoffFast(),
	})
	var want int64
	for round := 0; round < 4; round++ {
		for i := 0; i < 25; i++ {
			g.AddNode(pg.LabelCompany, pg.Properties{"round": int64(round), "i": int64(i)})
			want++
		}
		if err := st.Sync(); err != nil {
			t.Fatal(err)
		}
		waitSeq(t, fl, want)
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	sameFacts(t, g, fl.Graph())
}

// A diverged follower — holding mutations the leader never durably had —
// is reset to the leader's authoritative state.
func TestDivergedFollowerResets(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "real"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Fabricate a follower that is AHEAD of the leader (as if it applied
	// frames from a previous leader incarnation that lost its tail).
	dir := t.TempDir()
	pre, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pre.Graph().AddNode(pg.LabelPerson, pg.Properties{"ghost": true})
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	fl, err := OpenFollower(dir, FollowerOptions{Leader: addr})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Seq() != 5 {
		t.Fatalf("pre-seeded follower seq = %d, want 5", fl.Seq())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	defer func() {
		cancel()
		<-done
		fl.Close()
	}()

	deadline := time.Now().Add(10 * time.Second)
	for fl.Status().Bootstraps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reset (status %+v)", fl.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitSeq(t, fl, 1)
	// Ghost state must be gone; only the leader's fact remains.
	fg := fl.Graph()
	if fg.NumNodes() != 1 || fg.Node(0) == nil || fg.Node(0).Props["name"] != "real" {
		t.Fatalf("follower graph after reset: %d nodes", fg.NumNodes())
	}
}

// heldLock is a mutex that reports whether it is held.
type heldLock struct {
	sync.Mutex
	held atomic.Bool
}

func (l *heldLock) Lock()   { l.Mutex.Lock(); l.held.Store(true) }
func (l *heldLock) Unlock() { l.held.Store(false); l.Mutex.Unlock() }

// An OnSwap observer fires under the apply lock when a bootstrap replaces the
// graph, and the new pointer matches Graph().
func TestOnGraphSwap(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	for i := 0; i < 10; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var swapped *pg.Graph
	var underLock bool
	lock := &heldLock{}
	fl := testFollower(t, addr, FollowerOptions{}, func(fl *Follower) {
		fl.SetLock(lock)
		fl.OnSwap(func(ng *pg.Graph) {
			mu.Lock()
			swapped, underLock = ng, lock.held.Load()
			mu.Unlock()
		})
	})
	// Seq reaches 10 inside the same critical section that fires the swap
	// callback, but a hair earlier — poll for the callback itself.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got, locked := swapped, underLock
		mu.Unlock()
		if got != nil {
			if !locked {
				t.Fatal("OnSwap callback ran outside the apply lock")
			}
			if got != fl.Graph() {
				t.Fatalf("OnSwap pointer %p != Graph() %p", got, fl.Graph())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OnSwap never fired (status %+v)", fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	waitSeq(t, fl, 10)
}

func newTestCtx() (context.Context, context.CancelFunc) {
	return context.WithCancel(context.Background())
}

// backoffFast is a millisecond-scale reconnect policy so failure tests
// don't wait out production delays.
func backoffFast() backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond, Jitter: 0.5}
}

// Weight edits and node removals ship as ordinary WAL frames: a follower
// tailing a leader through them converges on the identical graph, and the
// OnMutation observer sees every applied mutation in order with the new
// kinds resolved.
func TestFollowerReplicatesWeightEditAndNodeRemoval(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	ab := g.MustAddEdgeWeighted(a, b, 0.6)
	g.MustAddEdgeWeighted(b, c, 0.8)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var seen []pg.Mutation
	fl, err := OpenFollower(t.TempDir(), FollowerOptions{Leader: addr})
	if err != nil {
		t.Fatal(err)
	}
	fl.OnMutation(func(m pg.Mutation) {
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fl.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		fl.Close()
	})
	waitSeq(t, fl, st.Seq())

	// Live weight edit and node removal while the follower tails.
	if err := g.SetEdgeWeight(ab, 0.15); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveNode(c) { // also removes the b→c edge
		t.Fatal("RemoveNode(c) = false")
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, fl, st.Seq())
	sameFacts(t, g, fl.Graph())

	fg := fl.Graph()
	if w, _ := fg.Edge(ab).Weight(); w != 0.15 {
		t.Fatalf("follower weight = %v, want 0.15", w)
	}
	if fg.Node(c) != nil {
		t.Fatal("follower still has removed node")
	}
	if got, want := persist.SeqOfGraph(fg), st.Seq(); got != want {
		t.Fatalf("follower SeqOfGraph = %d, leader seq %d", got, want)
	}

	// The observer saw the post-bootstrap stream: the weight edit (with the
	// new weight resolved), the incident-edge removal, then the bare node
	// removal — in apply order. The store seq advances inside the apply
	// before the observer callback fires, so waitSeq can return a beat
	// before the final mutation is recorded — wait for it explicitly.
	waitFor(t, 5*time.Second, "observer to record the node removal", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= 3 && seen[len(seen)-1].Kind == pg.MutRemoveNode
	})
	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 3 {
		t.Fatalf("observer saw %d mutations, want >= 3", len(seen))
	}
	tail := seen[len(seen)-3:]
	if tail[0].Kind != pg.MutSetEdgeWeight || tail[0].Edge == nil || tail[0].Edge.ID != ab {
		t.Fatalf("mutation -3 = %+v, want weight edit of %d", tail[0], ab)
	}
	if w, _ := tail[0].Edge.Weight(); w != 0.15 {
		t.Fatalf("observed weight = %v, want 0.15", w)
	}
	if tail[1].Kind != pg.MutRemoveEdge || tail[1].Edge == nil {
		t.Fatalf("mutation -2 = %+v, want incident edge removal", tail[1])
	}
	if tail[2].Kind != pg.MutRemoveNode || tail[2].Node == nil || tail[2].Node.ID != c {
		t.Fatalf("mutation -1 = %+v, want removal of node %d", tail[2], c)
	}
}
