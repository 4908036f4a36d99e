package reasonapi

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/replication"
)

// replicatedPair spins up a leader (store + stream server) and a follower
// whose graph is served by a reasonapi Server in read-only replica mode.
func replicatedPair(t *testing.T, cfg Config) (*persist.Store, *replication.Follower, *httptest.Server) {
	t.Helper()
	st, fl, _, srv := replicatedServer(t, nil, cfg)
	return st, fl, srv
}

// replicatedServer is replicatedPair with the leader store seeded from base
// (nil: empty) before the stream starts, also returning the follower-mode
// Server itself.
func replicatedServer(t *testing.T, base *pg.Graph, cfg Config) (*persist.Store, *replication.Follower, *Server, *httptest.Server) {
	t.Helper()
	st, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if base != nil {
		if err := st.Import(base); err != nil {
			t.Fatal(err)
		}
	}
	// No heartbeats: a follower here becomes fresh, and frames arrive, only
	// through the events that should cause them, so a lost wake-up hangs
	// the test instead of being papered over by the next heartbeat.
	ld := replication.NewLeader(st, replication.LeaderOptions{Heartbeat: time.Hour})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ldDone := make(chan struct{})
	go func() {
		defer close(ldDone)
		if err := ld.Serve(ctx, ln); err != nil {
			t.Errorf("leader serve: %v", err)
		}
	}()

	fl, err := replication.OpenFollower(t.TempDir(), replication.FollowerOptions{
		Leader: ln.Addr().String(),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Follower = fl
	if cfg.Leader == nil {
		cfg.Leader = ld
	}
	api := NewServerWith(nil, cfg) // wires lock + graph tracking before Run
	flDone := make(chan struct{})
	go func() {
		defer close(flDone)
		fl.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-flDone
		<-ldDone
		fl.Close()
	})
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	return st, fl, api, srv
}

// waitFollowerSeq polls until the follower has applied through seq and has
// stamped its freshness: a frame is applied (Seq moves) before the follower
// records the sync, and until then the read gate answers 503 stale_replica.
func waitFollowerSeq(t *testing.T, fl *replication.Follower, seq int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for fl.Seq() < seq || !fl.Status().EverSynced {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at seq %d, want %d (status %+v)", fl.Seq(), seq, fl.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	srv, _ := testServer(t)
	var body struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", &body); code != 200 || body.Status != "ok" {
		t.Fatalf("healthz = %d %+v, want 200 ok", code, body)
	}
}

func TestReadyzOnHealthyStandalone(t *testing.T) {
	srv, _ := testServer(t)
	var body struct {
		Status string `json:"status"`
		Checks map[string]struct {
			OK     bool   `json:"ok"`
			Detail string `json:"detail"`
		} `json:"checks"`
	}
	if code := getJSON(t, srv.URL+"/v1/readyz", &body); code != 200 || body.Status != "ready" {
		t.Fatalf("readyz = %d %+v, want 200 ready", code, body)
	}
	if c, ok := body.Checks["draining"]; !ok || !c.OK {
		t.Fatalf("draining check = %+v, want ok", body.Checks)
	}
}

// A drain flips readiness to 503 before the listener closes, and Serve
// performs that flip through the drainNotifier surface.
func TestReadyzFailsWhileDraining(t *testing.T) {
	g, _ := pg.Figure2()
	api := NewServerWith(g, Config{})
	h := api.Handler()
	dn, ok := h.(interface{ StartDrain() })
	if !ok {
		t.Fatal("Handler does not expose StartDrain for Serve's drain hook")
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	if code := getJSON(t, srv.URL+"/v1/readyz", nil); code != 200 {
		t.Fatalf("readyz before drain = %d, want 200", code)
	}
	dn.StartDrain()
	resp, err := http.Get(srv.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string `json:"status"`
		Code   string `json:"code"`
		Checks map[string]struct {
			OK bool `json:"ok"`
		} `json:"checks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 503 || body.Status != "unready" || body.Code != "not_ready" {
		t.Fatalf("readyz during drain = %d %+v, want 503 unready/not_ready", resp.StatusCode, body)
	}
	if body.Checks["draining"].OK {
		t.Fatal("draining check still ok during drain")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After on unready readyz")
	}
	// Liveness is unaffected: draining is not a reason to restart the node.
	if code := getJSON(t, srv.URL+"/v1/healthz", nil); code != 200 {
		t.Fatalf("healthz during drain = %d, want 200", code)
	}
}

// Serve itself must trigger the drain flip when its context is cancelled.
func TestServeStartsDrainOnCancel(t *testing.T) {
	g, _ := pg.Figure2()
	api := NewServerWith(g, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, ln, api.Handler(), time.Second) }()
	// Wait until the listener answers, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := http.Get("http://" + ln.Addr().String() + "/v1/healthz"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if !api.draining.Load() {
		t.Fatal("Serve returned without flipping the draining flag")
	}
}

// End-to-end follower serving: reads work and carry replication headers,
// writes are redirected to the leader, metrics and readyz report the
// replica's position.
func TestFollowerServesReadsRedirectsWrites(t *testing.T) {
	st, fl, srv := replicatedPair(t, Config{
		LeaderAPI:    "http://leader.example:8080",
		MaxStaleness: time.Minute,
	})
	g := st.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	g.MustAddEdgeWeighted(a, b, 0.6)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fl, st.Seq())

	// Read path: correct answer plus position headers.
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct{ Nodes, Edges int }
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || stats.Nodes != 2 || stats.Edges != 1 {
		t.Fatalf("stats via follower = %d %+v, want 200 with 2 nodes / 1 edge", resp.StatusCode, stats)
	}
	if resp.Header.Get("X-Replication-Lag") == "" || resp.Header.Get("X-Replication-Staleness-Ms") == "" {
		t.Fatalf("follower read missing replication headers: %+v", resp.Header)
	}

	// Write path: typed redirect to the leader, both endpoints.
	for _, path := range []string{"/v1/augment", "/v1/admin/snapshot"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
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
			t.Fatalf("POST %s on follower = %d %+v, want 421 not_leader", path, resp.StatusCode, body)
		}
		if body.Leader != "http://leader.example:8080" {
			t.Fatalf("redirect leader = %q", body.Leader)
		}
	}

	// Metrics report both sides of the replication link.
	var m struct {
		Replication       *replication.FollowerStatus `json:"replication"`
		ReplicationLeader *replication.LeaderStatus   `json:"replicationLeader"`
	}
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if m.Replication == nil || m.Replication.Seq != st.Seq() {
		t.Fatalf("metrics replication = %+v, want seq %d", m.Replication, st.Seq())
	}
	if m.ReplicationLeader == nil || m.ReplicationLeader.Connected != 1 {
		t.Fatalf("metrics replicationLeader = %+v, want 1 connected follower", m.ReplicationLeader)
	}

	// Readyz: synced replica inside the bound is ready.
	var rz struct {
		Status string `json:"status"`
	}
	if code := getJSON(t, srv.URL+"/v1/readyz", &rz); code != 200 || rz.Status != "ready" {
		t.Fatalf("readyz on synced follower = %d %+v, want 200 ready", code, rz)
	}
}

// A follower that bootstraps from an idle leader serves at once: the snapshot
// it adopted is the leader's position, so readiness and reads must not wait
// for a heartbeat (the pair's leader sends none).
func TestBootstrappedFollowerReadyAtOnce(t *testing.T) {
	g, b := pg.Figure2()
	_, fl, _, srv := replicatedServer(t, g, Config{})
	deadline := time.Now().Add(10 * time.Second)
	for fl.Status().Bootstraps == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("follower never bootstrapped (status %+v)", fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	booted := time.Now()
	for !fl.Status().EverSynced {
		if time.Since(booted) > 100*time.Millisecond {
			t.Fatalf("bootstrapped follower not fresh after 100ms (status %+v)", fl.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if code := getJSON(t, srv.URL+"/v1/readyz", nil); code != 200 {
		t.Fatalf("readyz on bootstrapped follower = %d, want 200", code)
	}
	if code := getJSON(t, srv.URL+"/v1/control?node="+itoa(b.ID("P2")), nil); code != 200 {
		t.Fatalf("point read on bootstrapped follower = %d, want 200", code)
	}
}

// A follower that has never reached parity with its leader refuses reads
// with 503 stale_replica and fails readiness, while healthz stays 200 and
// probes/metrics stay reachable.
func TestNeverSyncedFollowerRefusesReads(t *testing.T) {
	// Point the follower at a dead address: it will retry forever and never
	// sync.
	fl, err := replication.OpenFollower(t.TempDir(), replication.FollowerOptions{
		Leader: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fl.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})

	api := NewServerWith(nil, Config{Follower: fl, LeaderAPI: "leader:9"})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Code       string `json:"code"`
		RetryAfter int    `json:"retryAfter"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 || body.Code != "stale_replica" {
		t.Fatalf("read on never-synced follower = %d %+v, want 503 stale_replica", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" || body.RetryAfter == 0 {
		t.Fatal("stale read missing Retry-After")
	}

	var rz struct {
		Status string `json:"status"`
		Checks map[string]struct {
			OK bool `json:"ok"`
		} `json:"checks"`
	}
	if code := getJSON(t, srv.URL+"/v1/readyz", &rz); code != 503 || rz.Checks["replication"].OK {
		t.Fatalf("readyz on never-synced follower = %d %+v, want 503 with replication check failed", code, rz)
	}
	if code := getJSON(t, srv.URL+"/v1/healthz", nil); code != 200 {
		t.Fatalf("healthz on stale follower = %d, want 200", code)
	}
	if code := getJSON(t, srv.URL+"/v1/metrics", nil); code != 200 {
		t.Fatalf("metrics on stale follower = %d, want 200", code)
	}
}

// A negative MaxStaleness disables the gate: reads are served no matter how
// stale the replica is.
func TestNegativeMaxStalenessServesStaleReads(t *testing.T) {
	fl, err := replication.OpenFollower(t.TempDir(), replication.FollowerOptions{
		Leader: "127.0.0.1:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	// Not running: the follower never syncs, yet reads must still work.
	api := NewServerWith(nil, Config{Follower: fl, MaxStaleness: -1})
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()
	var stats struct{ Nodes int }
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("stats with staleness gate disabled = %d, want 200", code)
	}
}
