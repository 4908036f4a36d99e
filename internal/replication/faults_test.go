package replication

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/pg"
)

// Each test here injects one fault from the failure matrix at a named site
// and asserts the system degrades the way the design says it must: drop the
// connection, reconnect from durable state, converge. Hooks are global, so
// these tests do not run in parallel.

var errInjected = errors.New("injected fault")

// oneShot returns an error hook that fires exactly once.
func oneShot() func() error {
	var fired atomic.Bool
	return func() error {
		if fired.CompareAndSwap(false, true) {
			return errInjected
		}
		return nil
	}
}

// A stream cut mid-message: the leader writes half a frame message and
// drops the connection. The follower must treat the torn bytes as a
// disconnect, reconnect, and receive the frame again — exactly once in the
// graph.
func TestStreamCutMidFrameReconnects(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// Heartbeat off (1h) so the next message after convergence is
	// deterministically the frame the fault will cut.
	st, _, addr := testLeader(t, LeaderOptions{Heartbeat: time.Hour})
	g := st.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "before"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	fl := testFollower(t, addr, FollowerOptions{Backoff: backoffFast()})
	waitSeq(t, fl, 1)

	faultinject.SetErr(faultinject.SiteReplSend, oneShot())
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "cut"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, fl, 2)
	sameFacts(t, g, fl.Graph())
	if stt := fl.Status(); stt.Reconnects == 0 {
		t.Fatalf("follower converged without reconnecting (status %+v)", stt)
	}
}

// A frame corrupted on the wire: the leader's disk bytes are fine but one
// payload byte flips in transit. The follower's CRC re-check must reject
// it, drop the connection, and fetch a clean copy on reconnect.
func TestCorruptFrameOnWireRejected(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st, _, addr := testLeader(t, LeaderOptions{Heartbeat: time.Hour})
	g := st.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "before"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	fl := testFollower(t, addr, FollowerOptions{Backoff: backoffFast()})
	waitSeq(t, fl, 1)

	faultinject.SetErr(faultinject.SiteReplFrame, oneShot())
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "flipped"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, fl, 2)
	sameFacts(t, g, fl.Graph())
	stt := fl.Status()
	if stt.BadFrames != 1 {
		t.Fatalf("badFrames = %d, want 1 (status %+v)", stt.BadFrames, stt)
	}
	if stt.Reconnects == 0 {
		t.Fatal("follower accepted a corrupt frame without reconnecting")
	}
}

// An unreachable leader: every dial fails until the fault clears. The
// reconnect delays must climb the capped doubling ladder (with jitter, so
// each is within [ceil/2, ceil]) and the follower must converge once the
// leader is back.
func TestReconnectBackoffLadder(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	g.AddNode(pg.LabelCompany, nil)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	const failures = 6
	var mu sync.Mutex
	var delays []time.Duration
	var attempts []int
	release := make(chan struct{})
	var fails atomic.Int64
	faultinject.SetErr(faultinject.SiteReplDial, func() error {
		if fails.Add(1) <= failures {
			return errInjected
		}
		return nil
	})

	fl := testFollower(t, addr, FollowerOptions{
		Backoff: backoffFast(), // Base 1ms, Max 10ms, Jitter 0.5
		OnBackoff: func(attempt int, d time.Duration) {
			mu.Lock()
			if len(delays) < failures {
				delays = append(delays, d)
				attempts = append(attempts, attempt)
				if len(delays) == failures {
					close(release)
				}
			}
			mu.Unlock()
		},
	})
	select {
	case <-release:
	case <-time.After(10 * time.Second):
		t.Fatal("backoff hook never saw enough failures")
	}
	waitSeq(t, fl, 1)
	sameFacts(t, g, fl.Graph())

	mu.Lock()
	defer mu.Unlock()
	// Ladder ceilings for Base=1ms, Max=10ms: 1, 2, 4, 8, 10, 10.
	ceil := []time.Duration{1, 2, 4, 8, 10, 10}
	for i, d := range delays {
		c := ceil[i] * time.Millisecond
		if d < c/2 || d > c {
			t.Fatalf("delay %d = %v, want within [%v, %v] (all: %v)", i, d, c/2, c, delays)
		}
		if attempts[i] != i+1 {
			t.Fatalf("attempt numbering %v, want consecutive from 1", attempts)
		}
	}
}

// A leader that refuses connections at accept time: the follower sees the
// socket vanish before the hello and must keep retrying until accepts
// succeed again.
func TestAcceptRefusedRetries(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st, ld, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	g.AddNode(pg.LabelCompany, nil)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	const refusals = 3
	var n atomic.Int64
	faultinject.SetErr(faultinject.SiteReplAccept, func() error {
		if n.Add(1) <= refusals {
			return errInjected
		}
		return nil
	})
	fl := testFollower(t, addr, FollowerOptions{Backoff: backoffFast()})
	waitSeq(t, fl, 1)
	if got := n.Load(); got <= refusals {
		t.Fatalf("follower converged after %d accept attempts, fault wanted > %d", got, refusals)
	}
	if ld.Status().Accepted == 0 {
		t.Fatal("leader never counted an accepted follower")
	}
}

// A follower that was down long enough for the leader to truncate the log
// past its position must re-bootstrap from a snapshot instead of waiting
// for frames that no longer exist.
func TestRunningFollowerLagsPastTruncation(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	for i := 0; i < 5; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Opening (local recovery) and running (streaming) are separate steps:
	// what recovery restored can only be read before Run starts, because a
	// running follower may bootstrap past it at any moment.
	openFollower := func() *Follower {
		fl, err := OpenFollower(dir, FollowerOptions{Leader: addr, Backoff: backoffFast()})
		if err != nil {
			t.Fatal(err)
		}
		return fl
	}
	runFollower := func(fl *Follower) (stop func()) {
		ctx, cancel := newTestCtx()
		done := make(chan struct{})
		go func() { defer close(done); fl.Run(ctx) }()
		return func() {
			cancel()
			<-done
			fl.Close()
		}
	}

	fl := openFollower()
	stop := runFollower(fl)
	waitSeq(t, fl, 5)
	stop() // follower goes offline at seq 5

	// Two rotations while it is away: the frames for seqs 6..N live only in
	// generations whose WALs have been deleted.
	for r := 0; r < 2; r++ {
		for i := 0; i < 10; i++ {
			g.AddNode(pg.LabelPerson, pg.Properties{"r": int64(r)})
		}
		if _, err := st.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "tail"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	fl2 := openFollower()
	recovered := fl2.Seq()
	defer runFollower(fl2)()
	if recovered != 5 {
		t.Fatalf("recovered follower seq = %d, want 5", recovered)
	}
	waitSeq(t, fl2, st.Seq())
	sameFacts(t, g, fl2.Graph())
	if stt := fl2.Status(); stt.Bootstraps != 1 {
		t.Fatalf("bootstraps = %d, want exactly 1 snapshot re-bootstrap (status %+v)", stt.Bootstraps, stt)
	}
}

// A slow follower applying frames while readers hammer the graph through
// the shared RWMutex. Run under -race this is the proof that SetLock makes
// "serve reads while replicating" safe; the injected apply delay widens the
// race window.
func TestConcurrentReadsWhileApplying(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()

	var rw sync.RWMutex
	fl, err := OpenFollower(t.TempDir(), FollowerOptions{Leader: addr, Backoff: backoffFast()})
	if err != nil {
		t.Fatal(err)
	}
	fl.SetLock(&rw)
	ctx, cancel := newTestCtx()
	done := make(chan struct{})
	go func() { defer close(done); fl.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		<-done
		fl.Close()
	})

	faultinject.Set(faultinject.SiteReplApply, func() { time.Sleep(50 * time.Microsecond) })

	// Readers: walk whatever graph the follower currently serves, under the
	// read lock, re-fetching the pointer each pass (it changes on
	// bootstrap). Each pass yields so the applier is contended, not starved.
	stopReaders := make(chan struct{})
	var readers sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				rw.RLock()
				fg := fl.Graph()
				total := 0
				for _, id := range fg.Nodes() {
					total += len(fg.Out(id))
				}
				_ = total
				rw.RUnlock()
				reads.Add(1)
				time.Sleep(100 * time.Microsecond)
			}
		}()
	}

	// Writer: churn on the leader while the readers run.
	for i := 0; i < 200; i++ {
		id := g.AddNode(pg.LabelCompany, pg.Properties{"i": int64(i)})
		if i%3 == 0 && id > 0 {
			e := g.MustAddEdgeWeighted(id-1, id, 0.5)
			if i%9 == 0 {
				g.RemoveEdge(e)
			}
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitSeq(t, fl, st.Seq())
	close(stopReaders)
	readers.Wait()
	sameFacts(t, g, fl.Graph())
	if reads.Load() == 0 {
		t.Fatal("readers never completed a pass; the test raced nothing")
	}
}

// A follower that falls behind reports lag; catching up restores freshness.
func TestLagIsVisibleAndRecovers(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	st, _, addr := testLeader(t, LeaderOptions{})
	g := st.Graph()
	for i := 0; i < 50; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	// Park the very first apply on a gate: the hello tells the follower the
	// leader is at 50 while it has applied nothing, so the full lag must be
	// visible in Status before the gate opens.
	gate := make(chan struct{})
	var gateOnce sync.Once
	faultinject.Set(faultinject.SiteReplApply, func() {
		gateOnce.Do(func() { <-gate })
	})

	fl := testFollower(t, addr, FollowerOptions{Backoff: backoffFast()})
	deadline := time.Now().Add(10 * time.Second)
	for fl.Status().LagRecords < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("lag never surfaced (status %+v)", fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if fl.Status().EverSynced {
		t.Fatal("lagging bootstrap counted as synced")
	}
	close(gate)
	waitSeq(t, fl, st.Seq())
	deadline = time.Now().Add(10 * time.Second)
	for {
		stt := fl.Status()
		if stt.LagRecords == 0 && stt.EverSynced && stt.Staleness < time.Second {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("freshness never recovered (status %+v)", stt)
		}
		time.Sleep(time.Millisecond)
	}
}
