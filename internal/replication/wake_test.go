package replication

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
)

// Every wait on the replication path ends on the event it waits for. The
// tests here run with heartbeats off (unless the lease sets them), so a lost
// wake-up hangs until the test's own deadline instead of passing slowly.

// A follower that bootstraps from an idle leader holds the leader's position
// the moment the snapshot lands, and must say so then: nothing else will
// arrive to tell it.
func TestBootstrapFromIdleLeaderIsFresh(t *testing.T) {
	st, _, addr := testLeader(t, LeaderOptions{Heartbeat: time.Hour})
	g := st.Graph()
	for i := 0; i < 20; i++ {
		g.AddNode(pg.LabelCompany, pg.Properties{"i": int64(i)})
	}
	if _, err := st.Snapshot(); err != nil {
		t.Fatal(err)
	}

	fl := testFollower(t, addr, FollowerOptions{})
	waitFor(t, 10*time.Second, "snapshot bootstrap", func() bool { return fl.Status().Bootstraps == 1 })
	waitFor(t, 100*time.Millisecond, "freshness after bootstrap", func() bool { return fl.Status().EverSynced })
	if stt := fl.Status(); stt.LagRecords != 0 || stt.Seq != st.Seq() {
		t.Fatalf("fresh follower status %+v, want seq %d and no lag", stt, st.Seq())
	}
}

// Frames ship when the leader's group commit flushes them, and a rotation in
// the middle of the stream wakes the drained stream so it ends the old
// generation: every single commit reaches the follower with no heartbeat
// and no explicit Sync to push it.
func TestFramesShipOnFlushAcrossRotation(t *testing.T) {
	st, ld, addr := testLeaderStore(t, persist.Options{SyncEvery: 2 * time.Millisecond},
		LeaderOptions{Heartbeat: time.Hour})
	g := st.Graph()
	fl := testFollower(t, addr, FollowerOptions{Backoff: backoffFast()})
	for i := 0; i < 50; i++ {
		g.AddNode(pg.LabelCompany, pg.Properties{"i": int64(i)})
		waitSeq(t, fl, st.Seq())
		if i == 25 {
			accepted := ld.Status().Accepted
			if _, err := st.Snapshot(); err != nil {
				t.Fatal(err)
			}
			// The rotation alone must end the drained stream: no later
			// write is there to wake it.
			waitFor(t, 5*time.Second, "renegotiation after rotation", func() bool {
				return ld.Status().Accepted > accepted
			})
		}
	}
	sameFacts(t, g, fl.Graph())
	if got, want := fl.Graph().Seq(), st.Seq(); got != want {
		t.Fatalf("follower graph at seq %d, leader at %d", got, want)
	}
}

// A multi-mutation commit in a replica group is acked as soon as the
// followers have fsynced the burst, not at the next heartbeat (Lease/6 =
// 500 ms here).
func TestBurstCommitAckedOnDrain(t *testing.T) {
	t.Parallel()
	members := startGroup(t, 3, 3*time.Second)
	leader := waitLeader(t, members, 20*time.Second)
	epoch := leader.n.Epoch()
	waitFor(t, 10*time.Second, "both followers acking", func() bool {
		return leader.n.Leader().ackedAtLeast(leader.n.peerList(), leader.n.Store().Seq(), epoch, time.Second) == 2
	})
	for round := 0; round < 10; round++ {
		txn := leader.n.Follower().Chain().Begin()
		for i := 0; i < 20; i++ {
			txn.Overlay().AddNode(pg.LabelCompany, pg.Properties{"round": int64(round), "i": int64(i)})
		}
		if _, err := txn.Commit(); err != nil {
			t.Fatalf("round %d: commit on the leader's chain: %v", round, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		start := time.Now()
		err := leader.n.Commit(ctx)
		took := time.Since(start)
		cancel()
		if err != nil {
			t.Fatalf("round %d: Commit: %v", round, err)
		}
		if took > 150*time.Millisecond {
			t.Fatalf("round %d: 20-mutation commit took %v, want < 150ms", round, took)
		}
	}
}

// A Commit blocked on a quorum that cannot form returns ErrStaleEpoch as
// soon as the leader is deposed — by a higher epoch seen on the wire, or by
// a step-down — not when its context runs out.
func TestBlockedCommitRefusesOnDeposition(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		depose func(t *testing.T, n *Node, addr string)
	}{
		{"higher epoch in a stream request", func(t *testing.T, n *Node, addr string) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			line, _ := json.Marshal(request{Epoch: n.Epoch() + 1})
			if _, err := conn.Write(append(line, '\n')); err != nil {
				t.Fatal(err)
			}
		}},
		{"step-down", func(t *testing.T, n *Node, addr string) {
			n.transition(RoleFollower, "lease_expired")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A leader whose two peers never answer: no quorum can form, and
			// with Run not started no lease clock deposes it either.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			n, err := OpenNode(t.TempDir(), NodeOptions{
				Self:  ln.Addr().String(),
				Peers: []string{"127.0.0.1:1", "127.0.0.1:2"},
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			served := make(chan struct{})
			go func() { defer close(served); n.Serve(ctx, ln) }()
			t.Cleanup(func() {
				cancel()
				<-served
				n.Store().Close()
			})
			if err := n.Store().RecordEpoch(persist.EpochMark{Epoch: 1}); err != nil {
				t.Fatal(err)
			}
			n.transition(RoleLeader, "promoted")
			n.Store().Graph().AddNode(pg.LabelCompany, nil)

			errc := make(chan error, 1)
			go func() { errc <- n.Commit(ctx) }()
			select {
			case err := <-errc:
				t.Fatalf("Commit returned %v without a quorum", err)
			case <-time.After(50 * time.Millisecond):
			}
			tc.depose(t, n, ln.Addr().String())
			select {
			case err := <-errc:
				if !errors.Is(err, ErrStaleEpoch) {
					t.Fatalf("Commit after deposition = %v, want ErrStaleEpoch", err)
				}
			case <-time.After(100 * time.Millisecond):
				t.Fatal("Commit still blocked 100ms after the deposition")
			}
		})
	}
}
