package reasonapi

import (
	"context"
	"fmt"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/whatif"
)

// cyclicOwnershipGraph builds the ε-pathological shape: a mutual-holding
// pair (B and C own 90% of each other) jointly holding a subsidiary D. The
// accown fixpoint for accown(B, D) / accown(C, D) is the limit of a
// geometric series with ratio 0.9, so the chase runs until the per-round
// improvement drops below the aggregate convergence step ε — that is,
// Θ(log(1/ε)/−log(0.9)) semi-naive rounds. A plain ring would not do: the
// X != Y guards in the accown rules cut every cycle through the source or
// target, so rings converge in O(n) rounds regardless of ε.
func cyclicOwnershipGraph(t *testing.T) *pg.Graph {
	t.Helper()
	g := pg.New()
	ids := make([]pg.NodeID, 4)
	for i := range ids {
		ids[i] = g.AddNode(pg.LabelCompany, pg.Properties{"name": fmt.Sprintf("C%d", i)})
	}
	a, b, c, d := ids[0], ids[1], ids[2], ids[3]
	for _, e := range []struct {
		from, to pg.NodeID
		w        float64
	}{{a, b, 0.05}, {b, c, 0.9}, {c, b, 0.9}, {b, d, 0.05}, {c, d, 0.05}} {
		if _, err := g.AddShare(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// chaseRounds runs the maintenance chase over g with the server's engine
// options and reports how many semi-naive rounds it took.
func chaseRounds(t *testing.T, g *pg.Graph, s *Server) int {
	t.Helper()
	prog, err := datalog.Parse(whatif.MaintenanceProgram())
	if err != nil {
		t.Fatal(err)
	}
	e, err := datalog.NewEngine(prog, s.engineOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(g))
	for _, id := range g.Nodes() {
		e.Assert(datalog.Fact{Pred: "affected", Args: []any{int64(id)}})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st == nil {
		t.Fatal("engine options lost WithStats")
	}
	return st.Rounds
}

// TestMinAggDeltaGovernsCyclicChase is the regression test for the
// aggregate-epsilon bug: the server used to run every chase at the engine's
// exact-convergence default (1e-9), which on cyclic ownership graphs costs
// −log(ε)/−log(cycle gain) semi-naive rounds — minutes instead of seconds on
// registry-scale cycles. The server must chase at the paper's 1e-4 step.
func TestMinAggDeltaGovernsCyclicChase(t *testing.T) {
	g := cyclicOwnershipGraph(t)
	rounds := chaseRounds(t, g, NewServerWith(g.Clone(), Config{}))
	// At gain 0.9 the ε=1e-4 fixpoint lands near 60 rounds and ε=1e-9 near
	// 170; a generous bound keeps the test insensitive to engine detail
	// while still catching a silently dropped option.
	if rounds > 100 {
		t.Errorf("server chase took %d rounds, want well under the exact-ε cost", rounds)
	}
}

// TestCommitsMaintainWhatifBaseline exercises the serving-tier loop: the
// first what-if seeds the maintainer, a committed shareholding mutation is
// only queued at commit time and maintained incrementally by the next read
// (no full re-chase), irrelevant commits are skipped, and /v1/metrics reports
// the counters.
func TestCommitsMaintainWhatifBaseline(t *testing.T) {
	srv, s, alpha, beta := acquisitionServer(t)
	ctx := context.Background()

	// First what-if: computes the full baseline and seeds the maintainer.
	body := fmt.Sprintf(`{"ops":[{"op":"addShare","from":%d,"to":%d,"w":0.30}]}`, alpha, beta)
	if resp, raw := postJSON(t, srv.URL+"/v1/whatif", body); resp.StatusCode != 200 {
		t.Fatalf("whatif status %d: %v", resp.StatusCode, raw)
	}
	if st := s.ivmM.Stats(); st.FullRebuilds != 1 || !st.Valid {
		t.Fatalf("after first whatif: stats = %+v, want one full rebuild, valid", st)
	}

	// A committed shareholding change costs the commit nothing: its journal
	// is queued, and the read that next pins the new version maintains it.
	if err := s.src.write(func(o *pg.Overlay) {
		if _, err := o.AddShare(alpha, beta, 0.30); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if st := s.ivmM.Stats(); st.IncrementalCommits != 0 {
		t.Fatalf("the commit ran maintenance itself: stats = %+v", st)
	}
	v, seq, release := s.src.pin()
	defer release()
	bl, err := s.ivmM.BaselineAt(ctx, v, seq, whatif.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.ivmM.Stats(); st.IncrementalCommits != 1 || st.FullRebuilds != 1 {
		t.Fatalf("after the read: stats = %+v, want 1 incremental commit, still 1 full rebuild", st)
	}
	// Alpha now holds 55% of Beta: control must be maintained into the
	// baseline without a re-chase, and it must equal the oracle.
	if !bl.Control[whatif.Pair{alpha, beta}] {
		t.Fatalf("maintained baseline misses control(alpha, beta): %v", bl.Control)
	}
	oracle, err := whatif.ComputeBaseline(ctx, v, whatif.DefaultThreshold, s.engineOptions()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(bl.Control) != len(oracle.Control) || len(bl.CloseLink) != len(oracle.CloseLink) {
		t.Fatalf("maintained baseline diverged: control %v vs %v, closelink %v vs %v",
			bl.Control, oracle.Control, bl.CloseLink, oracle.CloseLink)
	}

	// The what-if path serves the maintained baseline (no recompute, no new
	// rebuild) at the committed version. Beta's incoming shares now total
	// 0.95, so this hypothetical tops it up rather than re-adding 0.30.
	body = fmt.Sprintf(`{"ops":[{"op":"addShare","from":%d,"to":%d,"w":0.05}]}`, alpha, beta)
	if resp, raw := postJSON(t, srv.URL+"/v1/whatif", body); resp.StatusCode != 200 {
		t.Fatalf("whatif status %d: %v", resp.StatusCode, raw)
	}
	if st := s.ivmM.Stats(); st.FullRebuilds != 1 {
		t.Fatalf("whatif after commit re-chased: stats = %+v", st)
	}

	// An augmentation run commits only derived-link edges — the maintainer
	// skips it without any chase.
	if resp, raw := postJSON(t, srv.URL+"/v1/augment", `{"classes":["family"],"noCluster":true}`); resp.StatusCode != 200 {
		t.Fatalf("augment status %d: %v", resp.StatusCode, raw)
	}
	if resp, raw := postJSON(t, srv.URL+"/v1/whatif", body); resp.StatusCode != 200 {
		t.Fatalf("whatif status %d: %v", resp.StatusCode, raw)
	}
	if st := s.ivmM.Stats(); st.SkippedCommits == 0 || st.FullRebuilds != 1 {
		t.Fatalf("augment commit was not skipped: %+v", st)
	}

	// Metrics surface the counter set.
	var m struct {
		Incremental *struct {
			IncrementalCommits int64 `json:"incrementalCommits"`
			SkippedCommits     int64 `json:"skippedCommits"`
			FullRebuilds       int64 `json:"fullRebuilds"`
			Valid              bool  `json:"valid"`
		} `json:"incremental"`
	}
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if m.Incremental == nil || m.Incremental.IncrementalCommits != 1 ||
		m.Incremental.SkippedCommits == 0 || !m.Incremental.Valid {
		t.Fatalf("metrics incremental = %+v, want maintained counters", m.Incremental)
	}
}
