package reasonapi

// Table coverage of the /v1 surface: success, malformed-input, and
// budget-exceeded behavior for every endpoint, the uniform JSON error
// envelope (including the mux's own 404/405 responses), the /v1/metrics
// report shape, and the opt-in pprof endpoints.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
)

// doReq issues one request and decodes the JSON body into a generic map.
func doReq(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var val any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &val); err != nil {
			t.Fatalf("%s %s: non-JSON body (status %d): %q", method, url, resp.StatusCode, raw)
		}
	}
	out, _ := val.(map[string]any) // array-valued endpoints return a nil map
	return resp, out
}

// checkEnvelope asserts the uniform error shape: {error, code, requestID}.
func checkEnvelope(t *testing.T, body map[string]any, wantCode string) {
	t.Helper()
	if s, _ := body["error"].(string); s == "" {
		t.Errorf("envelope missing error message: %v", body)
	}
	if c, _ := body["code"].(string); c != wantCode {
		t.Errorf("envelope code = %q, want %q (%v)", body["code"], wantCode, body)
	}
	if id, _ := body["requestID"].(string); id == "" {
		t.Errorf("envelope missing requestID: %v", body)
	}
}

// TestEndpointTable exercises every /v1 route: one success case and its
// malformed-input cases, asserting status codes and that every error wears
// the JSON envelope.
func TestEndpointTable(t *testing.T) {
	srv, b := testServer(t)
	node := itoa(b.ID("P2"))
	company := itoa(b.ID("C7"))
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		want     int
		wantCode string // envelope code for error statuses
	}{
		{"stats ok", "GET", "/v1/stats", "", 200, ""},
		{"graph ok", "GET", "/v1/graph", "", 200, ""},
		{"metrics ok", "GET", "/v1/metrics", "", 200, ""},
		{"control ok", "GET", "/v1/control?node=" + node, "", 200, ""},
		{"control missing param", "GET", "/v1/control", "", 400, "bad_request"},
		{"control bad param", "GET", "/v1/control?node=xyz", "", 400, "bad_request"},
		{"control unknown node", "GET", "/v1/control?node=99999", "", 400, "bad_request"},
		{"control pairs ok", "GET", "/v1/control/pairs", "", 200, ""},
		{"closelinks ok", "GET", "/v1/closelinks", "", 200, ""},
		{"closelinks bad threshold", "GET", "/v1/closelinks?t=7", "", 400, "bad_request"},
		{"closelinks NaN threshold", "GET", "/v1/closelinks?t=NaN", "", 400, "bad_request"},
		{"closelinks +Inf threshold", "GET", "/v1/closelinks?t=%2BInf", "", 400, "bad_request"},
		{"closelinks -Inf threshold", "GET", "/v1/closelinks?t=-Inf", "", 400, "bad_request"},
		{"accumulated ok", "GET", "/v1/accumulated?from=" + node + "&to=" + company, "", 200, ""},
		{"accumulated missing to", "GET", "/v1/accumulated?from=" + node, "", 400, "bad_request"},
		{"explain ok", "GET", "/v1/explain?from=" + node + "&to=" + company, "", 200, ""},
		{"explain bad from", "GET", "/v1/explain?from=!&to=" + company, "", 400, "bad_request"},
		{"ubo ok", "GET", "/v1/ubo?node=" + company, "", 200, ""},
		{"ubo missing node", "GET", "/v1/ubo", "", 400, "bad_request"},
		{"neighborhood ok", "GET", "/v1/neighborhood?node=" + company + "&hops=1", "", 200, ""},
		{"neighborhood bad hops", "GET", "/v1/neighborhood?node=" + company + "&hops=99", "", 400, "bad_request"},
		{"reason ok", "POST", "/v1/reason", `{"program":"own(X,Y,W) -> linked(X,Y)."}`, 200, ""},
		{"reason malformed json", "POST", "/v1/reason", `{"program": `, 400, "bad_request"},
		{"reason missing program", "POST", "/v1/reason", `{}`, 400, "bad_request"},
		{"reason parse error", "POST", "/v1/reason", `{"program":"p(X ->"}`, 400, "bad_request"},
		{"augment ok", "POST", "/v1/augment", `{"classes":["family"],"noCluster":true}`, 200, ""},
		{"augment empty body", "POST", "/v1/augment", "", 200, ""},
		{"augment malformed json", "POST", "/v1/augment", `{"classes":`, 400, "bad_request"},
		{"augment unknown class", "POST", "/v1/augment", `{"classes":["nonsense"]}`, 400, "bad_request"},
		{"unknown route", "GET", "/v1/nonsense", "", 404, "not_found"},
		{"wrong method", "DELETE", "/v1/stats", "", 405, "method_not_allowed"},
		{"reason via GET", "GET", "/v1/reason", "", 405, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := doReq(t, tc.method, srv.URL+tc.path, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, tc.want, body)
			}
			if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			id := resp.Header.Get("X-Request-ID")
			if id == "" {
				t.Error("no X-Request-ID header")
			}
			if tc.wantCode != "" {
				checkEnvelope(t, body, tc.wantCode)
				if body["requestID"] != id {
					t.Errorf("envelope requestID %v, X-Request-ID header %q", body["requestID"], id)
				}
			}
		})
	}
}

// TestReasonBudgetExceeded: a diverging ad-hoc program against a server with
// a tight fact budget answers 200 with the partial result marked truncated,
// and the embedded chase stats carry the same trip.
func TestReasonBudgetExceeded(t *testing.T) {
	g, _ := pg.Figure2()
	srv := httptest.NewServer(NewServerWith(g, Config{
		Budget: datalog.Budget{MaxFacts: 3, CheckEvery: 1},
	}).Handler())
	defer srv.Close()

	program := `own(X, Y, W) -> r(X, Y). r(X, Z), own(Z, Y, W) -> r(X, Y).`
	resp, body := doReq(t, "POST", srv.URL+"/v1/reason", `{"program":`+jsonQuote(program)+`}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200 with truncation metadata (body %v)", resp.StatusCode, body)
	}
	if tr, _ := body["truncated"].(bool); !tr {
		t.Fatalf("truncated flag missing: %v", body)
	}
	if lim, _ := body["limit"].(string); lim != "max-facts" {
		t.Errorf("limit = %v, want max-facts", body["limit"])
	}
	st, ok := body["stats"].(map[string]any)
	if !ok {
		t.Fatalf("no stats in truncated reason response: %v", body)
	}
	if tr, _ := st["truncated"].(bool); !tr {
		t.Errorf("chase stats not marked truncated: %v", st)
	}
}

// TestReasonResponseEmbedsStats: a successful /v1/reason carries the chase
// report (per-rule rows, rounds) alongside the facts.
func TestReasonResponseEmbedsStats(t *testing.T) {
	srv, _ := testServer(t)
	resp, body := doReq(t, "POST", srv.URL+"/v1/reason",
		`{"program":"own(X, Y, W) -> r(X, Y). r(X, Z), own(Z, Y, W) -> r(X, Y)."}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d (%v)", resp.StatusCode, body)
	}
	st, ok := body["stats"].(map[string]any)
	if !ok {
		t.Fatalf("no stats in reason response: %v", body)
	}
	rules, ok := st["rules"].([]any)
	if !ok || len(rules) != 2 {
		t.Fatalf("stats.rules = %v, want 2 rows", st["rules"])
	}
	row := rules[0].(map[string]any)
	for _, key := range []string{"rule", "firings", "derived", "duplicates", "evalNanos"} {
		if _, ok := row[key]; !ok {
			t.Errorf("rule row missing %q: %v", key, row)
		}
	}
	if n, _ := st["rounds"].(float64); n < 1 {
		t.Errorf("stats.rounds = %v", st["rounds"])
	}
	if _, ok := st["perRound"].([]any); !ok {
		t.Errorf("stats.perRound missing: %v", st)
	}
}

// /v1/stats stamps the seq of the version it profiled, and /v1/augment the
// seq of the version its commit published: the augment that adds edges
// moves the seq, and both routes then answer the new one.
func TestStatsAndAugmentStampTheirSeq(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 60, Companies: 20, Seed: 3})
	s := NewServer(it.Graph)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	stats := func() any {
		t.Helper()
		resp, body := doReq(t, "GET", srv.URL+"/v1/stats", "")
		if resp.StatusCode != 200 {
			t.Fatalf("stats status = %d (%v)", resp.StatusCode, body)
		}
		return body["seq"]
	}
	before := s.vs.Current().Seq()
	if got := stats(); got != float64(before) {
		t.Fatalf("stats seq before the augment = %v, want %d", got, before)
	}
	resp, body := doReq(t, "POST", srv.URL+"/v1/augment", `{"classes":["family"],"noCluster":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("augment status = %d (%v)", resp.StatusCode, body)
	}
	after := s.vs.Current().Seq()
	if after == before {
		t.Fatalf("the augment added nothing (%v): the seq did not move", body)
	}
	if got := body["seq"]; got != float64(after) {
		t.Fatalf("augment seq = %v, want %d, the version its commit published", got, after)
	}
	if got := stats(); got != float64(after) {
		t.Fatalf("stats seq after the augment = %v, want %d", got, after)
	}
}

// /v1/reason stamps its answer with the seq of the version it chased: two
// calls around a commit carry the seqs before and after it.
func TestReasonStampsTheSeqItRead(t *testing.T) {
	g, _ := pg.Figure2()
	s := NewServer(g)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	reason := func() any {
		t.Helper()
		resp, body := doReq(t, "POST", srv.URL+"/v1/reason", `{"program":"own(X,Y,W) -> linked(X,Y)."}`)
		if resp.StatusCode != 200 {
			t.Fatalf("status = %d (%v)", resp.StatusCode, body)
		}
		return body["seq"]
	}
	before := s.vs.Current().Seq()
	if got := reason(); got != float64(before) {
		t.Fatalf("seq before the commit = %v, want %d", got, before)
	}
	if err := writeTo(s, func(o *pg.Overlay) { o.AddNode(pg.LabelCompany, nil) }); err != nil {
		t.Fatal(err)
	}
	after := s.vs.Current().Seq()
	if after == before {
		t.Fatal("the commit did not advance the seq")
	}
	if got := reason(); got != float64(after) {
		t.Fatalf("seq after the commit = %v, want %d", got, after)
	}
}

// On a 2-cycle every accown total improves over many rounds. /v1/reason
// with the close-link program and /v1/query's accown goal list the same
// rows: one per pair, at its final total.
func TestReasonAndQueryListOneRowPerGroup(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	g.AddShare(a, b, 0.5)
	g.AddShare(b, a, 0.5)
	g.AddShare(b, c, 0.3)
	srv := httptest.NewServer(NewServer(g).Handler())
	defer srv.Close()

	resp, body := doReq(t, "POST", srv.URL+"/v1/reason",
		`{"program":`+jsonQuote(vadalog.CloseLinkProgram)+`,"predicates":["accown"]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("reason = %d %v", resp.StatusCode, body)
	}
	reasoned := map[string]float64{}
	for _, r := range body["facts"].(map[string]any)["accown"].([]any) {
		row := r.([]any)
		key := fmt.Sprint(row[0], ",", row[1])
		if _, dup := reasoned[key]; dup {
			t.Fatalf("/v1/reason lists two accown rows for %s: %v", key, body["facts"])
		}
		reasoned[key] = row[2].(float64)
	}

	resp, body = doReq(t, "POST", srv.URL+"/v1/query", `{"goal":"accown(X, Y, S)"}`)
	if resp.StatusCode != 200 {
		t.Fatalf("query = %d %v", resp.StatusCode, body)
	}
	queried := map[string]float64{}
	for _, a := range body["answers"].([]any) {
		m := a.(map[string]any)
		queried[fmt.Sprint(m["X"], ",", m["Y"])] = m["S"].(float64)
	}
	if len(reasoned) != 4 || len(queried) != len(reasoned) {
		t.Fatalf("/v1/reason lists %v, /v1/query %v; want the same 4 pairs", reasoned, queried)
	}
	for k, v := range reasoned {
		if w, ok := queried[k]; !ok || math.Abs(v-w) > 1e-12 {
			t.Errorf("accown(%s): /v1/reason %v, /v1/query %v", k, v, w)
		}
	}
}

// jsonQuote JSON-quotes a program for embedding in a request body.
func jsonQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// TestMetricsShape drives a few requests and checks the /v1/metrics report:
// per-endpoint counters, cumulative latency histogram, error counts, and the
// last-chase report after a /v1/reason call.
func TestMetricsShape(t *testing.T) {
	srv, b := testServer(t)
	for i := 0; i < 3; i++ {
		if code := getJSON(t, srv.URL+"/v1/stats", nil); code != 200 {
			t.Fatalf("stats status = %d", code)
		}
	}
	if code := getJSON(t, srv.URL+"/v1/control", nil); code != 400 {
		t.Fatalf("bad control status = %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/nonsense", nil); code != 404 {
		t.Fatalf("unknown route status = %d", code)
	}
	resp, _ := doReq(t, "POST", srv.URL+"/v1/reason", `{"program":"own(X,Y,W) -> linked(X,Y)."}`)
	if resp.StatusCode != 200 {
		t.Fatalf("reason status = %d", resp.StatusCode)
	}
	_ = b

	var m Metrics
	if code := getJSON(t, srv.URL+"/v1/metrics", &m); code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	if m.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v", m.UptimeSeconds)
	}
	stats := m.Endpoints["GET /v1/stats"]
	if stats.Requests != 3 || stats.Errors != 0 {
		t.Errorf("GET /v1/stats counters = %+v, want 3 requests / 0 errors", stats)
	}
	if stats.Latency["+Inf"] != 3 {
		t.Errorf("latency +Inf bucket = %d, want 3 (cumulative)", stats.Latency["+Inf"])
	}
	if stats.MeanMillis < 0 || stats.MaxMillis < 0 || stats.TotalMillis < 0 {
		t.Errorf("negative latency aggregate: %+v", stats)
	}
	ctl := m.Endpoints["GET /v1/control"]
	if ctl.Requests != 1 || ctl.Errors != 1 {
		t.Errorf("GET /v1/control counters = %+v, want the 400 counted as request+error", ctl)
	}
	other := m.Endpoints["other"]
	if other.Requests != 1 || other.Errors != 1 {
		t.Errorf("unmatched-route counters = %+v, want 1/1 under \"other\"", other)
	}
	if m.LastChase == nil {
		t.Fatal("lastChase missing after a /v1/reason call")
	}
	if len(m.LastChase.Rules) == 0 || m.LastChase.Rounds < 1 {
		t.Errorf("lastChase report empty: %+v", m.LastChase)
	}
	// The metrics route counts itself on a later scrape.
	var m2 Metrics
	if code := getJSON(t, srv.URL+"/v1/metrics", &m2); code != 200 {
		t.Fatalf("second metrics scrape: %d", code)
	}
	if m2.Endpoints["GET /v1/metrics"].Requests < 1 {
		t.Error("metrics endpoint does not count itself")
	}
}

// TestPprofOptIn: the profiling endpoints exist only under Config.Pprof.
func TestPprofOptIn(t *testing.T) {
	g, _ := pg.Figure2()
	on := httptest.NewServer(NewServerWith(g, Config{Pprof: true}).Handler())
	defer on.Close()
	resp, err := http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof enabled: status = %d, want 200", resp.StatusCode)
	}

	off, _ := testServer(t)
	if code := getJSON(t, off.URL+"/debug/pprof/cmdline", nil); code != 404 {
		t.Errorf("pprof default: status = %d, want 404", code)
	}
}

// TestRequestIDsDistinct: consecutive requests get distinct IDs, echoed in
// both the header and the error envelope.
func TestRequestIDsDistinct(t *testing.T) {
	srv, _ := testServer(t)
	resp1, body1 := doReq(t, "GET", srv.URL+"/v1/control", "")
	resp2, body2 := doReq(t, "GET", srv.URL+"/v1/control", "")
	id1, id2 := resp1.Header.Get("X-Request-ID"), resp2.Header.Get("X-Request-ID")
	if id1 == "" || id1 == id2 {
		t.Errorf("request IDs not distinct: %q vs %q", id1, id2)
	}
	if body1["requestID"] != id1 || body2["requestID"] != id2 {
		t.Errorf("envelope requestID does not echo the header: %v / %q", body1["requestID"], id1)
	}
}

// rawReq issues one request and returns its status, X-Cache header and body
// bytes as served.
func rawReq(t *testing.T, method, url, body string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Cache"), raw
}

// TestBodiesEndInOneNewline: every JSON body ends in exactly one newline,
// whether a point route computed it, replayed it from the cache, or
// writeJSON encoded it, so a CLI or curl leaves the prompt on its own line.
func TestBodiesEndInOneNewline(t *testing.T) {
	srv, b := testServer(t)
	node, company := itoa(b.ID("P2")), itoa(b.ID("C7"))
	oneNewline := func(t *testing.T, raw []byte) {
		t.Helper()
		if !strings.HasSuffix(string(raw), "\n") || strings.HasSuffix(string(raw), "\n\n") {
			t.Errorf("body %q does not end in exactly one newline", raw)
		}
	}
	for _, path := range []string{
		"/v1/control?node=" + node,
		"/v1/control?node=" + node + "&target=" + company,
		"/v1/control/pairs",
		"/v1/closelinks",
		"/v1/accumulated?from=" + node + "&to=" + company,
		"/v1/explain?from=" + node + "&to=" + company,
		"/v1/ubo?node=" + company,
	} {
		t.Run(path, func(t *testing.T) {
			for _, want := range []string{"miss", "hit"} {
				code, cache, raw := rawReq(t, "GET", srv.URL+path, "")
				if code != 200 || cache != want {
					t.Fatalf("status %d, X-Cache %q, want a 200 %s: %s", code, cache, want, raw)
				}
				oneNewline(t, raw)
			}
		})
	}
	t.Run("query", func(t *testing.T) {
		for _, want := range []string{"miss", "hit"} {
			code, cache, raw := rawReq(t, "POST", srv.URL+"/v1/query", `{"goal": "control(`+node+`, Y)"}`)
			if code != 200 || cache != want {
				t.Fatalf("status %d, X-Cache %q, want a 200 %s: %s", code, cache, want, raw)
			}
			oneNewline(t, raw)
		}
	})
	for _, tc := range []struct{ method, path, body string }{
		{"GET", "/v1/stats", ""},
		{"GET", "/v1/metrics", ""},
		{"GET", "/v1/healthz", ""},
		{"GET", "/v1/readyz", ""},
		{"POST", "/v1/reason", `{"program":"own(X,Y,W) -> linked(X,Y)."}`},
		{"POST", "/v1/whatif", `{"ops":[{"op":"addNode"}]}`},
		{"POST", "/v1/augment", `{"classes":["family"],"noCluster":true}`},
		{"POST", "/v1/admin/snapshot", ""},
		{"GET", "/v1/control?node=xyz", ""},
	} {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			_, _, raw := rawReq(t, tc.method, srv.URL+tc.path, tc.body)
			oneNewline(t, raw)
		})
	}
}

// TestStatsKeysAreLowerCamel: /v1/stats answers the lowerCamel keys every
// other route does, not graphstats.Stats's Go field names.
func TestStatsKeysAreLowerCamel(t *testing.T) {
	srv, _ := testServer(t)
	var body map[string]json.RawMessage
	if code := getJSON(t, srv.URL+"/v1/stats", &body); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(body) == 0 {
		t.Fatal("empty stats body")
	}
	for k := range body {
		if r := k[0]; r < 'a' || r > 'z' {
			t.Errorf("key %q does not start lower-case", k)
		}
	}
}
