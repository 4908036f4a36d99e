package reasonapi

// The route table's contract: every input a route does not declare, and
// every bad value of one it does, is a 400 in the error envelope naming it;
// API.md's route headings name exactly the table's routes and parameters.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vadalink/internal/pg"
)

// routeOf returns the table's route with the given pattern.
func routeOf(t *testing.T, pattern string) *route {
	t.Helper()
	for i := range routes {
		if routes[i].pattern == pattern {
			return &routes[i]
		}
	}
	t.Fatalf("no route %q in the table", pattern)
	return nil
}

// ask serves one request on h in process and decodes its JSON body.
func ask(t *testing.T, h http.Handler, method, target, body string) (int, map[string]any) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, strings.NewReader(body)))
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON body (status %d): %q", method, target, w.Code, w.Body)
	}
	return w.Code, out
}

// TestRouteTableRefusesUndeclaredInputs walks the table. On every route a
// query parameter it does not declare answers 400 naming it; on every
// declared parameter each bad value does (never 500), an ID of no node
// naming the node; on every POST route so does a body field the route does
// not read.
func TestRouteTableRefusesUndeclaredInputs(t *testing.T) {
	g, b := pg.Figure2()
	h := NewServer(g).Handler()
	valid := map[kind]string{nodeID: itoa(b.ID("C7")), fraction: "0.3", hopCount: "1"}
	// A body each POST route accepts, so that the unknown field alone is
	// what a refusal can be about.
	bodies := map[string]string{
		"POST /v1/reason":  `"program": "own(X, Y, W) -> linked(X, Y).",`,
		"POST /v1/query":   `"goal": "control(` + itoa(b.ID("P2")) + `, Y)",`,
		"POST /v1/augment": `"classes": ["family"], "noCluster": true,`,
		"POST /v1/whatif":  `"ops": [{"op": "addNode", "name": "H"}],`,
	}
	bad := map[kind][]string{
		nodeID:   {"99999", "-1", "1.5"},
		fraction: {"0", "7", "-0.2"},
		hopCount: {"11", "-1", "1.5"},
	}
	refused := func(t *testing.T, method, target, body, name string) {
		t.Helper()
		code, out := ask(t, h, method, target, body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s %s %s: status %d, want 400: %v", method, target, body, code, out)
		}
		checkEnvelope(t, out, "bad_request")
		if msg, _ := out["error"].(string); !strings.Contains(msg, name) {
			t.Errorf("%s %s %s: error %q does not name %s", method, target, body, msg, name)
		}
	}
	for _, rt := range routes {
		method, path, _ := strings.Cut(rt.pattern, " ")
		t.Run(rt.pattern, func(t *testing.T) {
			query := url.Values{}
			for _, p := range rt.params {
				if p.Required {
					query.Set(p.Name, valid[p.kind])
				}
			}
			with := func(name, v string) string {
				q := url.Values{}
				for k, vs := range query {
					q[k] = vs
				}
				q.Set(name, v)
				return path + "?" + q.Encode()
			}
			refused(t, method, with("depth", "9"), "", `"depth"`)
			for _, p := range rt.params {
				for _, v := range append([]string{"", "x", "NaN", "+Inf", "-Inf"}, bad[p.kind]...) {
					name := fmt.Sprintf("%q", p.Name)
					if p.kind == nodeID && (v == "99999" || v == "-1") {
						name = "unknown node " + v // a well-formed ID of no node
					}
					refused(t, method, with(p.Name, v), "", name)
				}
			}
			if method == http.MethodPost {
				refused(t, method, path, `{`+bodies[rt.pattern]+` "thresold": 0.3}`, `"thresold"`)
			}
		})
	}
}

// A query string url.ParseQuery refuses, and a parameter given twice, are
// refused too, as is a missing required parameter; so is a body holding more
// than one JSON value.
func TestRouteTableRefusesMalformedQueries(t *testing.T) {
	g, b := pg.Figure2()
	h := NewServer(g).Handler()
	c7 := itoa(b.ID("C7"))
	for _, tc := range []struct{ target, name string }{
		{"/v1/ubo?node=" + c7 + "&node=" + c7, `"node" given twice`},
		{"/v1/ubo?node=" + c7 + ";x=1", "malformed"},
		{"/v1/ubo?node=%zz", "malformed"},
		{"/v1/ubo", `missing "node"`},
		{"/v1/closelinks?t=", `"t"`},
	} {
		code, out := ask(t, h, "GET", tc.target, "")
		if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, tc.name) {
			t.Errorf("GET %s: status %d, error %q; want 400 naming %s", tc.target, code, msg, tc.name)
		}
	}
	for _, body := range []string{`{"goal": "company(X)"} {"goal": "person(X)"}`, `{"goal": "company(X)"}}`, `{"goal": "company(X)"} x`} {
		if code, out := ask(t, h, "POST", "/v1/query", body); code != http.StatusBadRequest {
			t.Errorf("POST /v1/query %s: status %d, want 400: %v", body, code, out)
		}
	}
}

// A server at its default round bound answers a closelink query over a
// cross-holding wholly owned inside itself (A and B holding 100 % of each
// other, B 15 % of C), where Φ diverges, as truncated at 10,000 rounds: a
// typed answer in bounded time, not a run to the deadline.
func TestDefaultRoundBoundTruncatesADivergingPhi(t *testing.T) {
	b := pg.NewBuilder()
	b.Company("A")
	b.Company("B")
	b.Company("C")
	b.Own("A", "B", 1).Own("B", "A", 1).Own("B", "C", 0.15)
	code, out := ask(t, NewServer(b.Graph()).Handler(), "POST", "/v1/query", `{"goal": "closelink(X, Y)"}`)
	if detail, _ := out["detail"].(string); code != http.StatusOK || out["truncated"] != true ||
		out["limit"] != "max-rounds" || !strings.Contains(detail, "MaxRounds=10000 ") { // not 1000000
		t.Fatalf("status %d, body %v; want 200 truncated at max-rounds, MaxRounds=10000", code, out)
	}
}

// A caller program whose condition reads an aggregate's running total
// against the direction it moves is refused with 400 by both routes that
// take a program, naming the condition.
func TestNonMonotoneAggregateConditionIsABadRequest(t *testing.T) {
	g, _ := pg.Figure2()
	h := NewServer(g).Handler()
	prog := "own(X, Y, W), S = msum(W, <Y>), S < 0.5 -> small(X)."
	for _, tc := range []struct{ target, body string }{
		{"/v1/reason", fmt.Sprintf(`{"program": %q}`, prog)},
		{"/v1/query", fmt.Sprintf(`{"goal": "small(X)", "program": %q}`, prog)},
	} {
		code, out := ask(t, h, "POST", tc.target, tc.body)
		if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "S < 0.5") {
			t.Errorf("POST %s: status %d, body %v; want 400 naming S < 0.5", tc.target, code, out)
		}
	}
}

// TestAPIDocNamesTheRouteTable: API.md's "### `METHOD /v1/path?…`" headings
// name exactly the table's routes, each with exactly its declared
// parameters, an optional one in brackets ("?node=ID[&target=ID]").
func TestAPIDocNamesTheRouteTable(t *testing.T) {
	doc, err := os.ReadFile("../../API.md")
	if err != nil {
		t.Fatal(err)
	}
	heading := regexp.MustCompile("(?m)^### `([A-Z]+ /v1/[^`?\\[]*)([^`]*)`")
	param := regexp.MustCompile(`(\[?)[?&]([a-zA-Z]+)=`)
	documented := map[string]string{}
	for _, m := range heading.FindAllStringSubmatch(string(doc), -1) {
		var ps []string
		for _, p := range param.FindAllStringSubmatch(m[2], -1) {
			ps = append(ps, p[2]+map[bool]string{true: " (optional)"}[p[1] == "["])
		}
		documented[m[1]] = strings.Join(ps, ", ")
	}
	for _, rt := range routes {
		var ps []string
		for _, p := range rt.params {
			ps = append(ps, p.Name+map[bool]string{true: " (optional)"}[!p.Required])
		}
		got, ok := documented[rt.pattern]
		switch want := strings.Join(ps, ", "); {
		case !ok:
			t.Errorf("API.md has no heading for %s", rt.pattern)
		case got != want:
			t.Errorf("API.md heads %s with parameters [%s], the table declares [%s]", rt.pattern, got, want)
		}
		delete(documented, rt.pattern)
	}
	for pattern := range documented {
		t.Errorf("API.md heads %s, which the table does not route", pattern)
	}
}

// Params hands clients the table's parameters, as a copy.
func TestParamsIsACopyOfTheTable(t *testing.T) {
	ps, ok := Params("GET /v1/control")
	if !ok || len(ps) != 2 || ps[0].Name != "node" || !ps[0].Required || ps[1].Name != "target" || ps[1].Required {
		t.Fatalf("Params(GET /v1/control) = %+v, %v", ps, ok)
	}
	ps[0].Name = "changed"
	if again, _ := Params("GET /v1/control"); again[0].Name != "node" {
		t.Error("Params handed out the table itself")
	}
	if _, ok := Params("GET /v1/nonsense"); ok {
		t.Error("Params found a route the table does not have")
	}
	if i := slices.IndexFunc(routes, func(rt route) bool { return len(rt.params) > maxParams }); i >= 0 {
		t.Errorf("%s declares more than maxParams parameters", routes[i].pattern)
	}
}
