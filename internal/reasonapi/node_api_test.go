package reasonapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/graphgen"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/replication"
)

// startAPINode spins up one replica-group member (listener, Serve, Run) and
// a reasonapi server in node mode on top of it.
func startAPINode(t *testing.T, peers func() []string, cfg Config) (*replication.Node, *httptest.Server, string) {
	t.Helper()
	node, _, srv, addr := startAPINodeIn(t, t.TempDir(), peers, cfg)
	return node, srv, addr
}

// startAPINodeIn is startAPINode over a chosen data directory, so a test can
// hand the member a store it seeded first.
func startAPINodeIn(t *testing.T, dir string, peers func() []string, cfg Config) (*replication.Node, *Server, *httptest.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	node, err := replication.OpenNode(dir, replication.NodeOptions{
		Self:      addr,
		API:       "http://api-" + addr,
		PeersFunc: peers,
		Lease:     400 * time.Millisecond,
		SyncEvery: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Node = node
	api := NewServerWith(nil, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	runDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		node.Serve(ctx, ln)
	}()
	go func() {
		defer close(runDone)
		node.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-runDone
		<-serveDone
		node.Store().Close()
	})
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return node, api, srv, addr
}

// leadingAPINode serves g from a single-member replica group: the member's
// store is seeded with g before it opens, and the call returns once it has
// promoted itself.
func leadingAPINode(t *testing.T, g *pg.Graph, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	ps, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Import(g); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	node, api, srv, _ := startAPINodeIn(t, dir, func() []string { return nil }, cfg)
	waitCond(t, "self-promotion", node.IsLeader)
	return api, srv
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A single-member group self-promotes; its API then accepts writes through
// the quorum barrier and reports role/epoch on readyz and metrics.
func TestNodeModeLeaderAcceptsWrites(t *testing.T) {
	node, srv, _ := startAPINode(t, func() []string { return nil }, Config{})
	waitCond(t, "self-promotion", node.IsLeader)

	resp, err := http.Post(srv.URL+"/v1/augment", "application/json",
		strings.NewReader(`{"classes":["family"],"noCluster":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("augment on leader = %d, want 200", resp.StatusCode)
	}

	var rz struct {
		Status string `json:"status"`
		Checks map[string]struct {
			OK     bool
			Detail string
		} `json:"checks"`
	}
	if code := getJSON(t, srv.URL+"/v1/readyz", &rz); code != 200 || rz.Status != "ready" {
		t.Fatalf("readyz on leader = %d %+v, want 200 ready", code, rz)
	}
	if c, ok := rz.Checks["replicaGroup"]; !ok || !c.OK || !strings.Contains(c.Detail, "role leader") {
		t.Fatalf("readyz replicaGroup check = %+v, want ok with role leader", rz.Checks["replicaGroup"])
	}

	var m struct {
		ReplicaGroup *replication.NodeStatus `json:"replicaGroup"`
	}
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if m.ReplicaGroup == nil || m.ReplicaGroup.Role != replication.RoleLeader || m.ReplicaGroup.Epoch == 0 {
		t.Fatalf("metrics replicaGroup = %+v, want leader at epoch >= 1", m.ReplicaGroup)
	}
}

// A member that follows a live leader redirects writes (421 carrying the
// leader's API address learned from the stream handshake, not from static
// config) and serves reads with replication position headers.
func TestNodeModeFollowerRedirectsToLiveLeader(t *testing.T) {
	leader, _, ldAddr := startAPINode(t, func() []string { return nil }, Config{})
	waitCond(t, "leader promotion", leader.IsLeader)

	follower, fsrv, _ := startAPINode(t, func() []string { return []string{ldAddr} }, Config{
		MaxStaleness: time.Minute,
	})
	waitCond(t, "follower syncs to leader", func() bool {
		st := follower.Status()
		return st.LeaderAddr == ldAddr && st.LeaseOK
	})

	resp, err := http.Post(fsrv.URL+"/v1/augment", "application/json",
		strings.NewReader(`{"classes":["family"],"noCluster":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Code   string `json:"code"`
		Leader string `json:"leader"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest || body.Code != "not_leader" {
		t.Fatalf("augment on follower = %d %+v, want 421 not_leader", resp.StatusCode, body)
	}
	if body.Leader != "http://api-"+ldAddr {
		t.Fatalf("redirect leader = %q, want the handshake-learned %q", body.Leader, "http://api-"+ldAddr)
	}

	resp, err = http.Get(fsrv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stats on synced follower = %d, want 200", resp.StatusCode)
	}
	for _, h := range []string{"X-Replication-Lag", "X-Replication-Staleness-Ms", "X-Replication-Disconnected-Ms"} {
		if resp.Header.Get(h) == "" {
			t.Fatalf("follower read missing %s header: %+v", h, resp.Header)
		}
	}
}

// A replica-group leader's write that a replicated frame overtakes mid-run
// is answered 503 stale_epoch, and neither the graph nor the WAL moves past
// the frame: the frame's records are the only ones that land, whether its
// burst was already published when the write commits or not.
func TestNodeModeWriteRacingAFrameIsStaleEpoch(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	for _, published := range []bool{true, false} {
		t.Run(fmt.Sprintf("published=%v", published), func(t *testing.T) {
			it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 60, Companies: 20, Seed: 3})
			api, srv := leadingAPINode(t, it.Graph, Config{})
			st := api.cfg.Persist
			g := st.Graph()
			seq, appends, nodes := st.Seq(), st.Stats().WALAppends, g.NumNodes()

			// The frame lands on the chain exactly as applyFrame lands one,
			// while the augment runs on its transaction's overlay.
			var once sync.Once
			faultinject.Set(faultinject.SiteAugmentRound, func() {
				once.Do(func() {
					frame := pg.Mutation{Kind: pg.MutAddNode, Node: &pg.Node{ID: g.NextNodeID(), Label: pg.LabelCompany}}
					if err := api.vs.Replay(frame); err != nil {
						t.Error(err)
					}
					if published {
						api.vs.Publish()
					}
				})
			})
			resp, body := doReq(t, "POST", srv.URL+"/v1/augment", `{"classes":["family"],"noCluster":true}`)
			faultinject.Clear(faultinject.SiteAugmentRound)
			if resp.StatusCode != http.StatusServiceUnavailable || body["code"] != "stale_epoch" {
				t.Fatalf("augment overtaken by a frame = %d %v, want 503 stale_epoch", resp.StatusCode, body)
			}
			api.vs.Publish()
			if st.Seq() != seq+1 || st.Stats().WALAppends != appends+1 || g.NumNodes() != nodes+1 ||
				g.NumEdges() != it.Graph.NumEdges() || api.vs.Current().Seq() != uint64(seq+1) {
				t.Fatalf("the refused write moved the member: seq %d→%d, WAL appends %d→%d, nodes %d→%d, chain at %d",
					seq, st.Seq(), appends, st.Stats().WALAppends, nodes, g.NumNodes(), api.vs.Current().Seq())
			}
		})
	}
}
