package reasonapi

// Coverage of the demand-driven query surface: POST /v1/query (success,
// malformed input, not-demandable fallback, budget truncation, custom
// programs, follower mode), the seq + X-Cache stamps on the point endpoints,
// the target form of /v1/control, the {"pairs": [...]} envelope, and the
// end-to-end invalidation contract — commits that cannot reach an answer
// keep it alive at its original seq, commits that reach it drop it.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/vadalog"
)

// postQuery issues one POST /v1/query and returns the response + body map.
func postQuery(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	return doReq(t, "POST", url+"/v1/query", body)
}

func TestQueryEndpointAnswersGoal(t *testing.T) {
	srv, b := testServer(t)
	goal := fmt.Sprintf(`{"goal": "control(%s, Y)"}`, itoa(b.ID("P2")))
	resp, body := postQuery(t, srv.URL, goal)
	if resp.StatusCode != 200 {
		t.Fatalf("query = %d %v, want 200", resp.StatusCode, body)
	}
	if body["mode"] != "magic" {
		t.Fatalf("mode = %v, want magic (bound goal must be demanded)", body["mode"])
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first query X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	answers, _ := body["answers"].([]any)
	got := map[float64]bool{}
	for _, a := range answers {
		row := a.(map[string]any)
		got[row["Y"].(float64)] = true
	}
	// P2 controls C5, C6, C7 on Figure 2 (the declarative relation).
	for _, c := range []string{"C5", "C6", "C7"} {
		if !got[float64(b.ID(c))] {
			t.Errorf("answers miss %s: %v", c, answers)
		}
	}
	if n, _ := body["count"].(float64); int(n) != len(answers) {
		t.Errorf("count = %v, answers = %d", body["count"], len(answers))
	}
	if _, ok := body["seq"]; !ok {
		t.Error("response is not seq-stamped")
	}

	// The identical query replays from the cache at the same seq.
	resp2, body2 := postQuery(t, srv.URL, goal)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat query X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if body2["seq"] != body["seq"] {
		t.Fatalf("cached seq = %v, want %v", body2["seq"], body["seq"])
	}
}

// TestGoalRoutesReadRealProperties pins that the routes which show a node's
// properties see the graph's own: a goal on company/5 or person/5 through
// POST /v1/query, a custom program's head that carries a property, and the
// leaf facts of a /v1/explain tree. Goal engines load every other relation
// pruned to the columns their rules read, so these are the places a padded
// property would show.
func TestGoalRoutesReadRealProperties(t *testing.T) {
	g := pg.New()
	acme := g.AddNode(pg.LabelCompany, pg.Properties{"name": "Acme", "addr": "Via Roma 1", "sector": "bank"})
	rossi := g.AddNode(pg.LabelPerson, pg.Properties{"name": "Rossi", "birth": 1970.0, "addr": "Milano"})
	g.MustAddEdgeWeighted(rossi, acme, 0.6)
	srv := httptest.NewServer(NewServer(g).Handler())
	t.Cleanup(srv.Close)

	for _, c := range []struct {
		goal, program string
		want          map[string]any
	}{
		{fmt.Sprintf("company(%d, N, B, A, S)", acme), "",
			map[string]any{"N": "Acme", "B": "", "A": "Via Roma 1", "S": "bank"}},
		{fmt.Sprintf("person(%d, N, B, A, S)", rossi), "",
			map[string]any{"N": "Rossi", "B": "1970", "A": "Milano", "S": ""}},
		{fmt.Sprintf("holder(%d, N)", acme), "own(X, Y, W), person(X, N, B, A, S) -> holder(Y, N).",
			map[string]any{"N": "Rossi"}},
	} {
		body, _ := json.Marshal(map[string]string{"goal": c.goal, "program": c.program})
		resp, out := postQuery(t, srv.URL, string(body))
		answers, _ := out["answers"].([]any)
		if resp.StatusCode != 200 || len(answers) != 1 {
			t.Fatalf("%s = %d %v, want one answer", c.goal, resp.StatusCode, out)
		}
		row := answers[0].(map[string]any)
		for k, v := range c.want {
			if row[k] != v {
				t.Errorf("%s: %s = %v, want %v", c.goal, k, row[k], v)
			}
		}
	}

	var explain struct {
		Why []string `json:"why"`
	}
	if code := getJSON(t, fmt.Sprintf("%s/v1/explain?from=%d&to=%d", srv.URL, rossi, acme), &explain); code != 200 {
		t.Fatalf("explain status = %d", code)
	}
	leaves := strings.Join(explain.Why, "\n")
	for _, leaf := range []string{
		fmt.Sprintf(`person(%d, "Rossi", "1970", "Milano", "")`, rossi),
		fmt.Sprintf("own(%d, %d, 0.6)", rossi, acme),
	} {
		if !strings.Contains(leaves, leaf) {
			t.Errorf("explain tree lacks the leaf %s:\n%s", leaf, leaves)
		}
	}
}

func TestQueryEndpointMalformed(t *testing.T) {
	srv, _ := testServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed json", `{"goal": `},
		{"missing goal", `{}`},
		{"bad goal syntax", `{"goal": "control("}`},
		{"two atoms", `{"goal": "control(1, Y). control(2, Y)."}`},
		{"unknown predicate", `{"goal": "martians(1, Y)"}`},
		{"bad program", `{"goal": "p(1, Y)", "program": "p(X ->"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postQuery(t, srv.URL, tc.body)
			if resp.StatusCode != 400 {
				t.Fatalf("status = %d %v, want 400", resp.StatusCode, body)
			}
			checkEnvelope(t, body, "bad_request")
		})
	}
}

// An all-free goal is outside the demandable fragment: the endpoint must
// fall back to full evaluation and still answer, reporting mode "full".
func TestQueryEndpointFullFallback(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := postQuery(t, srv.URL, `{"goal": "control(X, Y)"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("query = %d %v, want 200", resp.StatusCode, body)
	}
	if body["mode"] != "full" {
		t.Fatalf("mode = %v, want full (all-free goal is not demandable)", body["mode"])
	}
	if n, _ := body["count"].(float64); n == 0 {
		t.Fatal("full fallback returned no control pairs on Figure 2")
	}
}

// A caller-supplied program evaluates under demand too, and a truncated
// evaluation reports the partial answer without caching it.
func TestQueryEndpointCustomProgramAndTruncation(t *testing.T) {
	g, _ := pg.Figure2()
	s := NewServerWith(g, Config{})
	s.cfg.Budget.MaxFacts = 0 // server default: unlimited
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	prog := `own(X, Y, W) -> reach(X, Y). reach(X, Z), own(Z, Y, W) -> reach(X, Y).`
	req := fmt.Sprintf(`{"goal": "reach(0, Y)", "program": %q}`, prog)
	resp, body := postQuery(t, srv.URL, req)
	if resp.StatusCode != 200 || body["mode"] != "magic" {
		t.Fatalf("custom program query = %d %v, want 200/magic", resp.StatusCode, body)
	}

	// Tighten the budget per-request: the truncated partial must report
	// truncated: true and must NOT be stored (a retry recomputes).
	trunc := fmt.Sprintf(`{"goal": "reach(0, Y)", "program": %q, "maxFacts": 1}`, prog)
	resp2, body2 := postQuery(t, srv.URL, trunc)
	if resp2.StatusCode != 200 {
		t.Fatalf("truncated query = %d %v, want 200", resp2.StatusCode, body2)
	}
	if body2["truncated"] != true {
		t.Fatalf("truncated query body = %v, want truncated: true", body2)
	}
	resp3, _ := postQuery(t, srv.URL, trunc)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Fatalf("truncated answer was cached (X-Cache = %q)", resp3.Header.Get("X-Cache"))
	}
}

// The point endpoints carry the seq + X-Cache stamps and replay repeated
// queries from the cache, /v1/graph and /v1/neighborhood carry the seq;
// /v1/control grows the fully bound target form.
func TestPointEndpointsCacheAndStamps(t *testing.T) {
	srv, b := testServer(t)
	p2, c7 := itoa(b.ID("P2")), itoa(b.ID("C7"))
	paths := []string{
		"/v1/control?node=" + p2,
		"/v1/control?node=" + p2 + "&target=" + c7,
		"/v1/ubo?node=" + c7,
		"/v1/accumulated?from=" + p2 + "&to=" + c7,
		"/v1/explain?from=" + p2 + "&to=" + c7,
		"/v1/control/pairs",
		"/v1/closelinks",
	}
	for _, path := range paths {
		resp1, body1 := doReq(t, "GET", srv.URL+path, "")
		resp2, body2 := doReq(t, "GET", srv.URL+path, "")
		if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
			t.Fatalf("%s: status %d/%d, want 200", path, resp1.StatusCode, resp2.StatusCode)
		}
		if c := resp1.Header.Get("X-Cache"); c != "miss" {
			t.Errorf("%s first X-Cache = %q, want miss", path, c)
		}
		if c := resp2.Header.Get("X-Cache"); c != "hit" {
			t.Errorf("%s second X-Cache = %q, want hit", path, c)
		}
		if _, ok := body1["seq"]; !ok {
			t.Errorf("%s response not seq-stamped: %v", path, body1)
		}
		if fmt.Sprint(body1["seq"]) != fmt.Sprint(body2["seq"]) {
			t.Errorf("%s cached seq drifted: %v vs %v", path, body1["seq"], body2["seq"])
		}
	}

	// The graph reads cache nothing, and they are stamped with the same seq.
	_, stamped := doReq(t, "GET", srv.URL+paths[0], "")
	for _, path := range []string{"/v1/graph", "/v1/neighborhood?node=" + c7 + "&hops=1"} {
		resp, body := doReq(t, "GET", srv.URL+path, "")
		if resp.StatusCode != 200 || body["seq"] == nil || body["seq"] != stamped["seq"] {
			t.Errorf("%s = %d with seq %v, want 200 and seq %v", path, resp.StatusCode, body["seq"], stamped["seq"])
		}
	}

	// The target form answers the pair as a boolean.
	_, body := doReq(t, "GET", srv.URL+"/v1/control?node="+p2+"&target="+c7, "")
	if body["controls"] != true {
		t.Fatalf("control target form = %v, want controls: true", body)
	}
	_, body = doReq(t, "GET", srv.URL+"/v1/control?node="+c7+"&target="+p2, "")
	if body["controls"] != false {
		t.Fatalf("reversed target form = %v, want controls: false", body)
	}
	resp, _ := doReq(t, "GET", srv.URL+"/v1/control?node="+p2+"&target=99999", "")
	if resp.StatusCode != 400 {
		t.Fatalf("unknown target = %d, want 400", resp.StatusCode)
	}
}

// /v1/control/pairs answers the documented envelope: {"pairs": [{"from",
// "to"}, ...]} — not the bare capitalized array earlier releases leaked.
func TestControlPairsEnvelope(t *testing.T) {
	srv, b := testServer(t)
	resp, body := doReq(t, "GET", srv.URL+"/v1/control/pairs", "")
	if resp.StatusCode != 200 {
		t.Fatalf("pairs = %d, want 200", resp.StatusCode)
	}
	pairs, ok := body["pairs"].([]any)
	if !ok || len(pairs) == 0 {
		t.Fatalf(`body %v lacks a non-empty "pairs" array`, body)
	}
	found := false
	for _, p := range pairs {
		row, ok := p.(map[string]any)
		if !ok {
			t.Fatalf("pair %v is not an object", p)
		}
		if _, hasFrom := row["from"]; !hasFrom {
			t.Fatalf(`pair %v lacks lowercase "from"`, row)
		}
		if _, hasTo := row["to"]; !hasTo {
			t.Fatalf(`pair %v lacks lowercase "to"`, row)
		}
		if row["from"] == float64(b.ID("P2")) && row["to"] == float64(b.ID("C7")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("pairs %v miss P2→C7", pairs)
	}
}

// Every control route serves one definition of control: a pledged share
// counts like any other, so A's pledged 60% of B is control on the node form
// and in the pairs listing alike.
func TestPledgedShareControlsOnEveryRoute(t *testing.T) {
	b := pg.NewBuilder()
	a, c := b.Company("A"), b.Company("B")
	g := b.Graph()
	g.MustAddEdge(pg.LabelShareholding, a, c, pg.Properties{pg.WeightProp: 0.6, "right": "pledge"})
	srv := httptest.NewServer(NewServer(g).Handler())
	defer srv.Close()

	_, body := doReq(t, "GET", srv.URL+"/v1/control?node="+itoa(a), "")
	if fmt.Sprint(body["controls"]) != fmt.Sprintf("[map[id:%d name:B]]", c) {
		t.Errorf("/v1/control?node=A = %v, want B", body)
	}
	_, body = doReq(t, "GET", srv.URL+"/v1/control/pairs", "")
	if fmt.Sprint(body["pairs"]) != fmt.Sprintf("[map[from:%d to:%d]]", a, c) {
		t.Errorf("/v1/control/pairs = %v, want (A, B)", body)
	}
}

// A baseline is exact or absent: when its chase trips the budget,
// /v1/closelinks and the derived classes of /v1/augment answer 503 with the
// limit, and nothing partial is served or cached.
func TestBaselineReadsRefuseUnderBudget(t *testing.T) {
	g, _ := pg.Figure2()
	srv := httptest.NewServer(NewServerWith(g, Config{Budget: datalog.Budget{MaxFacts: 1}}).Handler())
	defer srv.Close()
	for _, rt := range []goalRoute{
		{"closelinks", "GET", "/v1/closelinks", ""},
		{"augment control", "POST", "/v1/augment", `{"classes": ["control"], "noCluster": true}`},
		{"augment closelink", "POST", "/v1/augment", `{"classes": ["closelink"], "noCluster": true}`},
	} {
		t.Run(rt.name, func(t *testing.T) {
			for i := 0; i < 2; i++ {
				resp, body := doReq(t, rt.method, srv.URL+rt.path, rt.body)
				if resp.StatusCode != http.StatusServiceUnavailable || body["code"] != "interrupted" || body["limit"] != "max-facts" {
					t.Fatalf("ask %d: status %d, body %v; want 503 interrupted at max-facts", i, resp.StatusCode, body)
				}
			}
		})
	}
}

// goalRoute is one request whose miss runs a goal chase through
// Server.evalGoal.
type goalRoute struct {
	name, method, path, body string
}

// goalRoutes are the six goal-backed point reads on Figure 2.
func goalRoutes(b *pg.Builder) []goalRoute {
	p2, c7 := itoa(b.ID("P2")), itoa(b.ID("C7"))
	return []goalRoute{
		{"control", "GET", "/v1/control?node=" + p2, ""},
		{"control pair", "GET", "/v1/control?node=" + p2 + "&target=" + c7, ""},
		{"ubo", "GET", "/v1/ubo?node=" + c7, ""},
		{"explain", "GET", "/v1/explain?from=" + p2 + "&to=" + c7, ""},
		{"query", "POST", "/v1/query", `{"goal": "control(` + p2 + `, Y)"}`},
		{"pairs", "GET", "/v1/control/pairs", ""},
	}
}

// Every goal-backed miss publishes its chase as /v1/metrics' lastChase, not
// only /v1/query and /v1/explain.
func TestEveryGoalMissPublishesItsChase(t *testing.T) {
	_, b := pg.Figure2()
	for _, rt := range goalRoutes(b) {
		t.Run(rt.name, func(t *testing.T) {
			srv, _ := testServer(t)
			if resp, body := doReq(t, rt.method, srv.URL+rt.path, rt.body); resp.StatusCode != 200 {
				t.Fatalf("status = %d %v, want 200", resp.StatusCode, body)
			}
			var m Metrics
			if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
				t.Fatalf("metrics status = %d", code)
			}
			if m.LastChase == nil || m.LastChase.Rounds < 1 {
				t.Fatalf("lastChase = %+v, want the miss's chase (rounds ≥ 1)", m.LastChase)
			}
		})
	}
}

// A budget trip on any goal-backed point read answers 200 with the
// truncation fields answerPoint adds, and the partial answer is never
// stored.
func TestGoalRoutesTruncateUnderBudget(t *testing.T) {
	g, b := pg.Figure2()
	srv := httptest.NewServer(NewServerWith(g, Config{Budget: datalog.Budget{MaxFacts: 1}}).Handler())
	defer srv.Close()
	for _, rt := range goalRoutes(b) {
		t.Run(rt.name, func(t *testing.T) {
			resp, body := doReq(t, rt.method, srv.URL+rt.path, rt.body)
			if resp.StatusCode != 200 {
				t.Fatalf("status = %d %v, want 200", resp.StatusCode, body)
			}
			if body["truncated"] != true || body["limit"] != "max-facts" {
				t.Fatalf("body = %v, want truncated: true, limit: max-facts", body)
			}
			if d, _ := body["detail"].(string); d == "" {
				t.Fatalf("body = %v, want a detail string", body)
			}
			if resp, _ := doReq(t, rt.method, srv.URL+rt.path, rt.body); resp.Header.Get("X-Cache") != "miss" {
				t.Fatalf("second ask X-Cache = %q, want miss (truncated answers are not stored)", resp.Header.Get("X-Cache"))
			}
		})
	}
}

// The invalidation contract end to end on the MVCC chain: a commit the IVM
// classifier deems irrelevant (a person node) keeps cached point answers
// alive at their original seq, and so does a relevant commit elsewhere in
// the registry (a new ownership pair P2 cannot reach); a shareholding edge
// out of P2 reaches the answer's anchor, drops it, and the next read
// recomputes at the new seq.
func TestQueryCacheInvalidationFollowsCommitClassifier(t *testing.T) {
	g, b := pg.Figure2()
	s := NewServerWith(g, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	goal := fmt.Sprintf(`{"goal": "control(%s, Y)"}`, itoa(b.ID("P2")))
	_, body0 := postQuery(t, srv.URL, goal)
	seq0 := body0["seq"]

	// Irrelevant commit: a bare person node cannot move the control relation.
	if err := writeTo(s, func(o *pg.Overlay) {
		o.AddNode(pg.LabelPerson, pg.Properties{"name": "bystander"})
	}); err != nil {
		t.Fatal(err)
	}
	resp, body1 := postQuery(t, srv.URL, goal)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("after irrelevant commit X-Cache = %q, want hit (derived entries survive)", resp.Header.Get("X-Cache"))
	}
	if body1["seq"] != seq0 {
		t.Fatalf("surviving entry seq = %v, want original %v", body1["seq"], seq0)
	}

	// Relevant commit elsewhere: two new companies and a stake between them
	// move derived relations, but nothing P2 owns into.
	if err := writeTo(s, func(o *pg.Overlay) {
		x := o.AddNode(pg.LabelCompany, pg.Properties{"name": "X"})
		y := o.AddNode(pg.LabelCompany, pg.Properties{"name": "Y"})
		if _, err := o.AddShare(x, y, 0.7); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	resp, body1 = postQuery(t, srv.URL, goal)
	if resp.Header.Get("X-Cache") != "hit" || body1["seq"] != seq0 {
		t.Fatalf("after a commit outside P2's reach: X-Cache = %q seq = %v, want a hit at %v",
			resp.Header.Get("X-Cache"), body1["seq"], seq0)
	}
	var m Metrics
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 || m.Cache == nil || m.Cache.Kept == 0 {
		t.Fatalf("metrics = %d, cache = %+v: want the survivor counted as kept", code, m.Cache)
	}

	// Relevant commit reaching the anchor: a new stake held by P2.
	if err := writeTo(s, func(o *pg.Overlay) {
		if _, err := o.AddShare(b.ID("P2"), b.ID("C4"), 0.9); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	resp, body2 := postQuery(t, srv.URL, goal)
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("after relevant commit X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if body2["seq"] == seq0 {
		t.Fatalf("recomputed answer still stamped seq %v", seq0)
	}
	// And the recomputed answer reflects the new edge: P2 now controls C4.
	found := false
	for _, a := range body2["answers"].([]any) {
		if a.(map[string]any)["Y"] == float64(b.ID("C4")) {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-commit answers %v miss the new subsidiary C4", body2["answers"])
	}
}

// QueryCacheBytes < 0 disables the cache: every query recomputes and no
// cache section appears in /v1/metrics.
func TestQueryCacheDisabled(t *testing.T) {
	g, b := pg.Figure2()
	srv := httptest.NewServer(NewServerWith(g, Config{QueryCacheBytes: -1}).Handler())
	defer srv.Close()
	goal := fmt.Sprintf(`{"goal": "control(%s, Y)"}`, itoa(b.ID("P2")))
	for i := 0; i < 2; i++ {
		resp, _ := postQuery(t, srv.URL, goal)
		if c := resp.Header.Get("X-Cache"); c != "miss" {
			t.Fatalf("query %d with cache disabled: X-Cache = %q, want miss", i, c)
		}
	}
	var m Metrics
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if m.Cache != nil {
		t.Fatalf("metrics report a cache section with the cache disabled: %+v", m.Cache)
	}
}

// The cache counters surface in /v1/metrics.
func TestMetricsReportCacheCounters(t *testing.T) {
	srv, b := testServer(t)
	goal := fmt.Sprintf(`{"goal": "control(%s, Y)"}`, itoa(b.ID("P2")))
	postQuery(t, srv.URL, goal)
	postQuery(t, srv.URL, goal)
	var m Metrics
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if m.Cache == nil {
		t.Fatal("metrics lack the cache section")
	}
	if m.Cache.Hits < 1 || m.Cache.Misses < 1 {
		t.Fatalf("cache counters = %+v, want >= 1 hit and 1 miss", m.Cache)
	}
	if m.Cache.Entries < 1 || m.Cache.MaxBytes <= 0 {
		t.Fatalf("cache sizing = %+v, want entries and a positive budget", m.Cache)
	}
}

// Follower mode: /v1/query serves demand-driven reads from the replica, and
// the replication stream drives invalidation through the same classifier —
// an irrelevant frame keeps the entry, a relevant one drops it.
func TestQueryOnFollower(t *testing.T) {
	st, fl, srv := replicatedPair(t, Config{MaxStaleness: time.Minute})
	g := st.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	g.MustAddEdgeWeighted(a, c, 0.8)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fl, st.Seq())

	goal := fmt.Sprintf(`{"goal": "control(%d, Y)"}`, a)
	resp, body := postQuery(t, srv.URL, goal)
	if resp.StatusCode != 200 {
		t.Fatalf("follower query = %d %v, want 200", resp.StatusCode, body)
	}
	if body["mode"] != "magic" {
		t.Fatalf("follower query mode = %v, want magic", body["mode"])
	}
	answers, _ := body["answers"].([]any)
	if len(answers) != 1 || answers[0].(map[string]any)["Y"] != float64(c) {
		t.Fatalf("follower answers = %v, want the one controlled company %d", answers, c)
	}

	// Irrelevant frame (person node): the cached entry survives.
	g.AddNode(pg.LabelPerson, pg.Properties{"name": "bystander"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fl, st.Seq())
	resp, _ = postQuery(t, srv.URL, goal)
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("after irrelevant frame X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}

	// Relevant frames elsewhere (a stake between two new companies): A
	// cannot reach them, so the entry survives at its original seq.
	x := g.AddNode(pg.LabelCompany, pg.Properties{"name": "X"})
	g.MustAddEdgeWeighted(x, g.AddNode(pg.LabelCompany, pg.Properties{"name": "Y"}), 0.6)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fl, st.Seq())
	resp, body2 := postQuery(t, srv.URL, goal)
	if resp.Header.Get("X-Cache") != "hit" || body2["seq"] != body["seq"] {
		t.Fatalf("after frames outside A's reach: X-Cache = %q seq = %v, want a hit at %v",
			resp.Header.Get("X-Cache"), body2["seq"], body["seq"])
	}

	// Relevant frame (shareholding edge): the entry drops, the answer grows.
	d := g.AddNode(pg.LabelCompany, pg.Properties{"name": "D"})
	g.MustAddEdgeWeighted(c, d, 0.9)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fl, st.Seq())
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = postQuery(t, srv.URL, goal)
		if resp.Header.Get("X-Cache") == "miss" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("relevant frame never invalidated the entry (X-Cache stays %q)", resp.Header.Get("X-Cache"))
		}
		time.Sleep(5 * time.Millisecond)
	}
	answers, _ = body["answers"].([]any)
	if len(answers) != 2 {
		t.Fatalf("post-frame answers = %v, want A's grown cone {B, D}", answers)
	}
}

// TestAnswerPinnedBeforeACommitIsNotCached is the race DESIGN.md §13.3 rules
// out, made deterministic on the MVCC source: a handler pins version S, a
// commit S+1 reaching its anchor lands and is announced, and only then does
// the handler's cache lookup run. The answer it computes on S is served, but
// not stored: the next reader misses and sees S+1.
func TestAnswerPinnedBeforeACommitIsNotCached(t *testing.T) {
	g, b := pg.Figure2()
	s := NewServerWith(g, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	p2, c4 := b.ID("P2"), b.ID("C4")

	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	if err := writeTo(s, func(o *pg.Overlay) {
		if _, err := o.AddShare(p2, c4, 0.9); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	err := s.answerPoint(w, seq, fmt.Sprintf("control:%d", p2), qcache.Anchored(&p2, nil), func() (map[string]any, error) {
		res, err := s.evalGoal(context.Background(), v, vadalog.Control, controlGoal(datalog.Int(int64(p2)), varY))
		if err != nil {
			return nil, err
		}
		return map[string]any{"node": p2, "controls": bindingIDs(res.Answers, varY)}, res.RunErr
	})
	if err != nil || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("pinned answer: err = %v, X-Cache = %q", err, w.Header().Get("X-Cache"))
	}

	resp, body := doReq(t, "GET", srv.URL+"/v1/control?node="+itoa(p2), "")
	if resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("the answer pinned before the commit was cached: X-Cache = %q, body %v", resp.Header.Get("X-Cache"), body)
	}
	if body["seq"] != float64(seq+1) {
		t.Fatalf("next read stamped seq %v, want %d", body["seq"], seq+1)
	}
}

// TestReaderAcrossABootstrapFeedsNothing: a bootstrap replaces the served
// graph while a reader is still answering from a version of the old one. Its
// answer is served, but it enters neither the cache nor the maintainer, even
// though the new graph's sequence restarts below the old one's: the next
// readers get the new graph's answers.
func TestReaderAcrossABootstrapFeedsNothing(t *testing.T) {
	g, b := pg.Figure2()
	s := NewServerWith(g, Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	p2 := b.ID("P2")
	old := s.vs.Current()

	// The new graph: P2 alone, controlling nothing, at a lower seq.
	ng := pg.New()
	ng.AddNode(pg.LabelPerson, pg.Properties{"name": "P2"})
	for ng.NextNodeID() <= p2 {
		ng.AddNode(pg.LabelCompany, nil)
	}
	if err := s.vs.Reset(ng, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if s.vs.Current().Seq() >= old.Seq() {
		t.Fatalf("the new graph is at seq %d, want below the old %d", s.vs.Current().Seq(), old.Seq())
	}

	w := httptest.NewRecorder()
	key := fmt.Sprintf("control:%d", p2)
	err := s.answerPoint(w, old.Seq(), key, qcache.Anchored(&p2, nil), func() (map[string]any, error) {
		res, err := s.evalGoal(context.Background(), old.View(), vadalog.Control, controlGoal(datalog.Int(int64(p2)), varY))
		if err != nil {
			return nil, err
		}
		return map[string]any{"node": p2, "controls": bindingIDs(res.Answers, varY)}, res.RunErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ivmM.BaselineAt(context.Background(), old.View(), old.Seq(), 0); err != nil {
		t.Fatal(err)
	}
	if st := s.ivmM.Stats(); st.Valid {
		t.Fatalf("a reader of the replaced graph seeded the maintainer: %+v", st)
	}

	resp, body := doReq(t, "GET", srv.URL+"/v1/control?node="+itoa(p2), "")
	if resp.Header.Get("X-Cache") != "miss" || body["seq"] != float64(s.vs.Current().Seq()) {
		t.Fatalf("after the bootstrap: X-Cache %q, body %v, want a miss at seq %d", resp.Header.Get("X-Cache"), body, s.vs.Current().Seq())
	}
	if controls, _ := body["controls"].([]any); len(controls) != 0 {
		t.Fatalf("P2 controls %v in the new graph, want nothing", controls)
	}
}

// TestFollowerAnnouncesPostFrameSeq pins what a follower's chain hands the
// cache: the commit hook runs once the burst's version is published, with
// that version's seq N. The cache then refuses an answer pinned at N-1 and
// stores one pinned at N; had the hook announced the pre-frame N-1, it would
// have stored both.
func TestFollowerAnnouncesPostFrameSeq(t *testing.T) {
	st, fl, s, _ := replicatedServer(t, nil, Config{MaxStaleness: time.Minute})
	st.Graph().AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	waitFollowerSeq(t, fl, st.Seq())
	n := s.vs.Current().Seq()
	build := func() (map[string]any, error) { return map[string]any{}, nil }
	for _, pinned := range []uint64{n - 1, n} {
		if err := s.answerPoint(httptest.NewRecorder(), pinned, fmt.Sprint("probe:", pinned), qcache.ClassDerived, build); err != nil {
			t.Fatal(err)
		}
		if _, _, stored := s.qc.Get(fmt.Sprint("probe:", pinned)); stored != (pinned == n) {
			t.Errorf("answer pinned at %d (frame seq %d): stored = %v", pinned, n, stored)
		}
	}
}
