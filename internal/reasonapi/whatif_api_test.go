package reasonapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vadalink/internal/pg"
)

// acquisitionGraph loads the README scenario into g: Alpha holds 25% of
// Beta, Delta holds 40%, Carol holds the majority of Alpha.
func acquisitionGraph(t *testing.T, g *pg.Graph) (alpha, beta pg.NodeID) {
	t.Helper()
	alpha = g.AddNode(pg.LabelCompany, pg.Properties{"name": "Alpha"})
	beta = g.AddNode(pg.LabelCompany, pg.Properties{"name": "Beta"})
	delta := g.AddNode(pg.LabelCompany, pg.Properties{"name": "Delta"})
	carol := g.AddNode(pg.LabelPerson, pg.Properties{"name": "Carol"})
	for _, e := range []struct {
		from, to pg.NodeID
		w        float64
	}{{alpha, beta, 0.25}, {delta, beta, 0.40}, {carol, alpha, 0.60}} {
		if _, err := g.AddShare(e.from, e.to, e.w); err != nil {
			t.Fatal(err)
		}
	}
	return alpha, beta
}

// acquisitionServer serves the README scenario standalone.
func acquisitionServer(t *testing.T) (*httptest.Server, *Server, pg.NodeID, pg.NodeID) {
	t.Helper()
	g := pg.New()
	alpha, beta := acquisitionGraph(t, g)
	s := NewServer(g)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return srv, s, alpha, beta
}

type whatifResponse struct {
	Seq             uint64         `json:"seq"`
	Threshold       float64        `json:"threshold"`
	Created         []pg.NodeID    `json:"created"`
	Delta           map[string]int `json:"delta"`
	AffectedSources int            `json:"affectedSources"`
	Control         struct {
		Gained []map[string]pg.NodeID `json:"gained"`
		Lost   []map[string]pg.NodeID `json:"lost"`
	} `json:"control"`
	CloseLinks struct {
		Gained []map[string]pg.NodeID `json:"gained"`
		Lost   []map[string]pg.NodeID `json:"lost"`
	} `json:"closeLinks"`
}

// TestWhatifEndpoint runs the README scenario against every serving mode:
// the answer is the same, and so is "seq", the sequence the baseline was
// evaluated at — the number of mutation records behind the served graph, in
// every mode.
func TestWhatifEndpoint(t *testing.T) {
	const loaded = 7 // mutation records that build the scenario: 4 nodes + 3 edges
	for _, mode := range []struct {
		name  string
		start func(t *testing.T) (url string, alpha, beta pg.NodeID)
	}{
		{"standalone", func(t *testing.T) (string, pg.NodeID, pg.NodeID) {
			srv, _, alpha, beta := acquisitionServer(t)
			return srv.URL, alpha, beta
		}},
		{"follower", func(t *testing.T) (string, pg.NodeID, pg.NodeID) {
			st, fl, srv := replicatedPair(t, Config{MaxStaleness: time.Minute})
			alpha, beta := acquisitionGraph(t, st.Graph())
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			waitFollowerSeq(t, fl, st.Seq())
			return srv.URL, alpha, beta
		}},
		{"replica-group leader", func(t *testing.T) (string, pg.NodeID, pg.NodeID) {
			g := pg.New()
			alpha, beta := acquisitionGraph(t, g)
			_, srv := leadingAPINode(t, g, Config{})
			return srv.URL, alpha, beta
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			url, alpha, beta := mode.start(t)
			whatifScenario(t, url, alpha, beta, loaded)
		})
	}
}

func whatifScenario(t *testing.T, url string, alpha, beta pg.NodeID, seq uint64) {
	var before, after struct{ Nodes, Edges int }
	if code := getJSON(t, url+"/v1/stats", &before); code != 200 {
		t.Fatalf("stats status %d", code)
	}

	body := fmt.Sprintf(`{"ops":[{"op":"addShare","from":%d,"to":%d,"w":0.30}]}`, alpha, beta)
	resp, raw := postJSON(t, url+"/v1/whatif", body)
	if resp.StatusCode != 200 {
		t.Fatalf("whatif status %d: %v", resp.StatusCode, raw)
	}
	b, _ := json.Marshal(raw)
	var out whatifResponse
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Seq != seq {
		t.Errorf("seq = %d, want %d, the sequence the baseline was evaluated at", out.Seq, seq)
	}
	if out.Threshold != 0.2 {
		t.Errorf("threshold = %v, want the 0.2 default", out.Threshold)
	}
	// Alpha gains direct control of Beta, and Carol — who already controls
	// Alpha — gains it transitively.
	gained := map[[2]pg.NodeID]bool{}
	for _, p := range out.Control.Gained {
		gained[[2]pg.NodeID{p["x"], p["y"]}] = true
	}
	if len(gained) != 2 || !gained[[2]pg.NodeID{alpha, beta}] {
		t.Errorf("control gained = %v, want Alpha→Beta plus Carol→Beta", out.Control.Gained)
	}
	if len(out.Control.Lost) != 0 {
		t.Errorf("control lost = %v, want none", out.Control.Lost)
	}
	// Alpha–Beta were closely linked already at 25%: the acquisition changes
	// nothing at the 20% threshold.
	if len(out.CloseLinks.Gained) != 0 || len(out.CloseLinks.Lost) != 0 {
		t.Errorf("close links changed: gained %v lost %v, want neither", out.CloseLinks.Gained, out.CloseLinks.Lost)
	}
	if out.Delta["addedEdges"] != 1 {
		t.Errorf("delta = %v, want one added edge", out.Delta)
	}
	if out.AffectedSources == 0 || out.AffectedSources >= before.Nodes {
		t.Errorf("affectedSources = %d, want a non-empty strict subset of %d", out.AffectedSources, before.Nodes)
	}

	// The counterfactual left the served graph untouched.
	if code := getJSON(t, url+"/v1/stats", &after); code != 200 {
		t.Fatalf("stats status %d", code)
	}
	if after != before {
		t.Errorf("graph changed across a what-if: %+v -> %+v", before, after)
	}

	// A second scenario against the same version reuses the seeded baseline
	// — one full chase, not one per request — and must produce the same
	// answer.
	resp2, raw2 := postJSON(t, url+"/v1/whatif", body)
	if resp2.StatusCode != 200 {
		t.Fatalf("second whatif status %d", resp2.StatusCode)
	}
	b2, _ := json.Marshal(raw2)
	if !bytes.Equal(b, b2) {
		t.Errorf("cached-baseline response differs:\n%s\n%s", b, b2)
	}
	var m struct {
		Incremental struct {
			FullRebuilds int64 `json:"fullRebuilds"`
		} `json:"incremental"`
	}
	if code := getJSON(t, url+"/v1/metrics", &m); code != 200 || m.Incremental.FullRebuilds != 1 {
		t.Errorf("metrics = %d %+v, want one full baseline chase across both what-ifs", code, m)
	}
}

func TestWhatifEndpointErrors(t *testing.T) {
	srv, _, alpha, beta := acquisitionServer(t)
	cases := []struct {
		name string
		body string
		code int
		want string
	}{
		{"empty ops", `{"ops":[]}`, 400, "bad_request"},
		{"garbage body", `{"ops":`, 400, "bad_request"},
		{"threshold out of range", `{"ops":[{"op":"addNode"}],"threshold":7}`, 400, "bad_request"},
		{"unknown op", `{"ops":[{"op":"merge"}]}`, 400, "bad_op"},
		{"unknown edge", `{"ops":[{"op":"removeEdge","edge":999}]}`, 400, "bad_op"},
		{"over-allocated share", fmt.Sprintf(`{"ops":[{"op":"addShare","from":%d,"to":%d,"w":0.9}]}`, alpha, beta), 400, "bad_op"},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/whatif", tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.code, body)
			continue
		}
		if code, _ := body["code"].(string); code != tc.want {
			t.Errorf("%s: code %q, want %q", tc.name, code, tc.want)
		}
		if body["requestID"] == "" {
			t.Errorf("%s: missing request ID", tc.name)
		}
	}
}

// dirBytes snapshots every durable file in a store directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestWhatifNeverReachesWAL is the durability-isolation regression test: a
// burst of counterfactuals over a persistent store must leave every durable
// file byte-identical — overlays never produce WAL records — while a real
// augment afterwards still does.
func TestWhatifNeverReachesWAL(t *testing.T) {
	dir := t.TempDir()
	s, ps := durableServer(t, dir)
	defer ps.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	before := dirBytes(t, dir)

	// Each scenario both adds and removes structure, so the chase derives
	// different facts than the base — a real evaluation, not a no-op.
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"ops":[{"op":"addNode","name":"wi%d"},{"op":"removeNode","node":%d}]}`, i, i%3)
		resp, raw := postJSON(t, srv.URL+"/v1/whatif", body)
		if resp.StatusCode != 200 {
			t.Fatalf("whatif %d: status %d: %v", i, resp.StatusCode, raw)
		}
	}

	after := dirBytes(t, dir)
	if len(before) != len(after) {
		t.Fatalf("store directory changed shape: %d files -> %d", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(b, after[name]) {
			t.Errorf("durable file %s changed across a what-if burst (%d -> %d bytes)", name, len(b), len(after[name]))
		}
	}

	// Sanity check the other direction: a committed augment must grow the WAL.
	resp, raw := postJSON(t, srv.URL+"/v1/augment", `{"classes":["family"],"noCluster":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("augment status %d: %v", resp.StatusCode, raw)
	}
	grown := dirBytes(t, dir)
	changed := false
	for name, b := range grown {
		if !bytes.Equal(b, after[name]) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("augment left every durable file untouched — the WAL hook is dead")
	}
}
