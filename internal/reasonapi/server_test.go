package reasonapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

func testServer(t *testing.T) (*httptest.Server, *pg.Builder) {
	t.Helper()
	g, b := pg.Figure2()
	srv := httptest.NewServer(NewServer(g).Handler())
	t.Cleanup(srv.Close)
	return srv, b
}

// writeTo commits fn's changes to s's version chain the way /v1/augment
// does.
func writeTo(s *Server, fn func(o *pg.Overlay)) error {
	txn := s.vs.Begin()
	fn(txn.Overlay())
	_, err := txn.Commit()
	return err
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var stats struct {
		Nodes int
		Edges int
	}
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if stats.Nodes != 7 || stats.Edges != 8 {
		t.Errorf("stats = %+v, want 7 nodes / 8 edges", stats)
	}
}

func TestControlEndpoint(t *testing.T) {
	srv, b := testServer(t)
	var out struct {
		Controls []struct {
			ID   pg.NodeID `json:"id"`
			Name string    `json:"name"`
		} `json:"controls"`
	}
	url := srv.URL + "/v1/control?node=" + itoa(b.ID("P2"))
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	names := map[string]bool{}
	for _, c := range out.Controls {
		names[c.Name] = true
	}
	for _, want := range []string{"C5", "C6", "C7"} {
		if !names[want] {
			t.Errorf("P2 controls missing %s: %v", want, names)
		}
	}
}

func TestControlEndpointErrors(t *testing.T) {
	srv, _ := testServer(t)
	if code := getJSON(t, srv.URL+"/v1/control", nil); code != 400 {
		t.Errorf("missing node param: status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/v1/control?node=xyz", nil); code != 400 {
		t.Errorf("bad node param: status %d, want 400", code)
	}
	if code := getJSON(t, srv.URL+"/v1/control?node=999", nil); code != 400 {
		t.Errorf("unknown node: status %d, want 400", code)
	}
}

func TestCloseLinksEndpoint(t *testing.T) {
	srv, b := testServer(t)
	var out struct {
		Threshold float64 `json:"threshold"`
		Links     []struct {
			A, B pg.NodeID
		} `json:"links"`
	}
	if code := getJSON(t, srv.URL+"/v1/closelinks", &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.Threshold != 0.2 {
		t.Errorf("default threshold = %v", out.Threshold)
	}
	found := false
	for _, l := range out.Links {
		if (l.A == b.ID("C4") && l.B == b.ID("C7")) || (l.A == b.ID("C7") && l.B == b.ID("C4")) {
			found = true
		}
	}
	if !found {
		t.Error("close link C4–C7 not reported")
	}
	if code := getJSON(t, srv.URL+"/v1/closelinks?t=7", nil); code != 400 {
		t.Errorf("bad threshold accepted: %d", code)
	}
}

func TestAccumulatedEndpoint(t *testing.T) {
	srv, b := testServer(t)
	var out struct {
		Phi float64 `json:"phi"`
	}
	url := srv.URL + "/v1/accumulated?from=" + itoa(b.ID("C4")) + "&to=" + itoa(b.ID("C7"))
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out.Phi < 0.199 || out.Phi > 0.201 {
		t.Errorf("phi = %v, want 0.2", out.Phi)
	}
}

func TestAugmentEndpoint(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 60, Companies: 20, Seed: 3})
	srv := httptest.NewServer(NewServer(it.Graph).Handler())
	defer srv.Close()

	body := strings.NewReader(`{"classes":["family"],"noCluster":true}`)
	resp, err := http.Post(srv.URL+"/v1/augment", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out struct {
		Added       map[string]int `json:"added"`
		Comparisons int64          `json:"comparisons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range out.Added {
		total += n
	}
	if total == 0 {
		t.Error("augment added no edges")
	}
	if out.Comparisons == 0 {
		t.Error("no comparisons reported")
	}
}

// On a full cross-holding (A and B holding 100 % of each other) the walk-sum
// Φ of B→C diverges, but control does not need Φ: the control class of
// /v1/augment answers from the goal control(X, Y), as /v1/control/pairs
// does, while the close-link class, which chases Φ, runs into the deadline.
func TestAugmentControlClassDoesNotChasePhi(t *testing.T) {
	b := pg.NewBuilder()
	for _, c := range []string{"A", "B", "C"} {
		b.Company(c)
	}
	b.Own("A", "B", 1).Own("B", "A", 1).Own("B", "C", 0.15)
	srv := httptest.NewServer(NewServerWith(b.Graph(), Config{Timeout: 300 * time.Millisecond}).Handler())
	defer srv.Close()
	augment := func(class string) (int, map[string]int) {
		resp, err := http.Post(srv.URL+"/v1/augment", "application/json",
			strings.NewReader(`{"classes":["`+class+`"],"noCluster":true}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct{ Added map[string]int }
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out.Added
	}
	if code, added := augment("control"); code != 200 || added[string(pg.LabelControl)] != 2 {
		t.Errorf("control class: status %d, added %v; want 200 and the two control links A⇄B", code, added)
	}
	if code, _ := augment("closelink"); code != http.StatusServiceUnavailable {
		t.Errorf("close-link class: status %d, want 503: its baseline chases the diverging Φ", code)
	}
}

func TestAugmentRejectsUnknownClass(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/augment", "application/json",
		strings.NewReader(`{"classes":["nonsense"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestGraphEndpointRoundTrips(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/graph")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	g, err := pg.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 7 || g.NumEdges() != 8 {
		t.Errorf("round-tripped graph: %d nodes / %d edges", g.NumNodes(), g.NumEdges())
	}
}

func itoa(id pg.NodeID) string {
	return json.Number(jsonInt(id)).String()
}

func jsonInt(id pg.NodeID) string {
	b, _ := json.Marshal(id)
	return string(b)
}

func TestExplainEndpoint(t *testing.T) {
	srv, b := testServer(t)
	var out struct {
		Controls bool     `json:"controls"`
		Why      []string `json:"why"`
	}
	url := srv.URL + "/v1/explain?from=" + itoa(b.ID("P2")) + "&to=" + itoa(b.ID("C7"))
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if !out.Controls || len(out.Why) == 0 {
		t.Errorf("explain = %+v, want a derivation tree", out)
	}
	// Non-controlling pair.
	var out2 struct {
		Controls bool `json:"controls"`
	}
	url2 := srv.URL + "/v1/explain?from=" + itoa(b.ID("P3")) + "&to=" + itoa(b.ID("C7"))
	if code := getJSON(t, url2, &out2); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out2.Controls {
		t.Error("P3 does not control C7")
	}
}

func TestUBOEndpoint(t *testing.T) {
	srv, b := testServer(t)
	var out struct {
		UltimateControllers []struct {
			ID   pg.NodeID `json:"id"`
			Name string    `json:"name"`
		} `json:"ultimateControllers"`
	}
	url := srv.URL + "/v1/ubo?node=" + itoa(b.ID("C7"))
	if code := getJSON(t, url, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(out.UltimateControllers) != 1 || out.UltimateControllers[0].Name != "P2" {
		t.Errorf("C7 UBOs = %+v, want [P2]", out.UltimateControllers)
	}
}

func TestNeighborhoodEndpoint(t *testing.T) {
	srv, b := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/neighborhood?node=" + itoa(b.ID("C7")) + "&hops=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sub, err := pg.ReadJSON(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// 1 hop around C7: C5 and C6 own it → 3 nodes.
	if sub.NumNodes() != 3 {
		t.Errorf("ego nodes = %d, want 3", sub.NumNodes())
	}
	if code := getJSON(t, srv.URL+"/v1/neighborhood?node="+itoa(b.ID("C7"))+"&hops=99", nil); code != 400 {
		t.Errorf("hops=99 accepted: %d", code)
	}
}
