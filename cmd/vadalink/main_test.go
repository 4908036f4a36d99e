package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vadalink"
	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/reasonapi"
	"vadalink/internal/vadalog"
)

// writeFile writes data into the test's temp dir and returns its path.
func writeFile(t *testing.T, name string, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeGraph writes g as graph JSON and returns its path.
func writeGraph(t *testing.T, g *vadalink.Graph) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "graph.json", buf.Bytes())
}

// cli runs one command line in process.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// served is the body the server's handler answers one request with, over
// the graph at path.
func served(t *testing.T, path, method, target, body string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := pg.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	vadalink.APIHandler(g).ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("%s %s = %d %s", method, target, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// Every routed subcommand prints exactly the body the server's handler
// answers the same request with.
func TestRoutedSubcommandsPrintTheHandlersBody(t *testing.T) {
	g, b := vadalink.Figure2()
	in := writeGraph(t, g)
	p2, c7 := fmt.Sprint(b.ID("P2")), fmt.Sprint(b.ID("C7"))
	ops := `[{"op":"addShare","from":` + p2 + `,"to":` + c7 + `,"w":0.2}]`
	opsPath := writeFile(t, "ops.json", []byte(ops))
	prog := "own(X, Y, W) -> linked(X, Y)."
	progPath := writeFile(t, "rules.vada", []byte(prog))
	for _, tc := range []struct {
		args                 []string
		method, target, body string
	}{
		{[]string{"stats"}, "GET", "/v1/stats", ""},
		{[]string{"control"}, "GET", "/v1/control/pairs", ""},
		{[]string{"control", "-node", p2}, "GET", "/v1/control?node=" + p2, ""},
		{[]string{"control", "-node", p2, "-target", c7}, "GET", "/v1/control?node=" + p2 + "&target=" + c7, ""},
		{[]string{"closelink", "-t", "0.3"}, "GET", "/v1/closelinks?t=0.3", ""},
		{[]string{"ubo", "-node", c7}, "GET", "/v1/ubo?node=" + c7, ""},
		{[]string{"explain", "-from", p2, "-to", c7}, "GET", "/v1/explain?from=" + p2 + "&to=" + c7, ""},
		{[]string{"query", "-goal", "control(" + p2 + ", Y)"}, "POST", "/v1/query", `{"goal": "control(` + p2 + `, Y)"}`},
		{[]string{"query", "-goal", "linked(" + p2 + ", Y)", "-program", progPath}, "POST", "/v1/query",
			`{"goal": "linked(` + p2 + `, Y)", "program": ` + fmt.Sprintf("%q", prog) + `}`},
		{[]string{"whatif", "-ops", opsPath}, "POST", "/v1/whatif", `{"ops": ` + ops + `}`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			code, stdout, stderr := cli(append(tc.args, "-in", in)...)
			if code != 0 {
				t.Fatalf("exit %d, stderr %q", code, stderr)
			}
			if want := served(t, in, tc.method, tc.target, tc.body); stdout != want {
				t.Fatalf("printed %s\nthe handler answers %s", stdout, want)
			}
		})
	}
}

// ubo without -node lists the orphan companies, which no route answers.
func TestUBOWithoutNodeListsOrphans(t *testing.T) {
	g, _ := vadalink.Figure2()
	lone := g.AddNode(pg.LabelCompany, nil)
	code, stdout, stderr := cli("ubo", "-in", writeGraph(t, g))
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var got struct{ Orphans []vadalink.NodeID }
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("%q: %v", stdout, err)
	}
	if fmt.Sprint(got.Orphans) != fmt.Sprint([]vadalink.NodeID{lone}) {
		t.Fatalf("orphans = %v, want only the unowned company %d", got.Orphans, lone)
	}
}

// query asks the server's goal engine, so its ε applies: on an ownership
// cycle, where the aggregate fixpoint is reached only to within ε, the CLI
// prints the value POST /v1/query serves, not the one a finer step gives.
func TestQueryPrintsTheServedValueOnACycle(t *testing.T) {
	b := vadalink.NewBuilder()
	b.Company("A")
	b.Company("B")
	b.Company("C")
	b.Own("A", "B", 0.7).Own("B", "A", 0.7).Own("B", "C", 0.3)
	in := writeGraph(t, b.Graph())
	goal := fmt.Sprintf("accown(%d, Y, S)", b.ID("A"))

	code, stdout, stderr := cli("query", "-in", in, "-goal", goal)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if want := served(t, in, "POST", "/v1/query", `{"goal": "`+goal+`"}`); stdout != want {
		t.Fatalf("printed %s\n/v1/query answers %s", stdout, want)
	}
	var got struct {
		Answers []struct {
			Y int64
			S float64
		}
	}
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatal(err)
	}
	atom, err := datalog.ParseGoal(goal)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := vadalog.EvalGoal(context.Background(), b.Graph(), vadalog.CloseLinkProgram, atom, datalog.WithMinAggDelta(1e-9))
	if err != nil {
		t.Fatal(err)
	}
	c := int64(b.ID("C"))
	for _, a := range got.Answers {
		if a.Y != c {
			continue
		}
		for _, e := range exact.Answers {
			if e["Y"] == c && e["S"] == a.S {
				t.Fatalf("S = %v is the 1e-9 step's value; the case no longer tells the two steps apart", a.S)
			}
		}
		return
	}
	t.Fatalf("no answer for C in %s", stdout)
}

// A pledged share counts toward control in the CLI as on every control
// route: A's pledged 60% of B is control, listed and node form alike.
func TestPledgedShareControls(t *testing.T) {
	b := vadalink.NewBuilder()
	a, c := b.Company("A"), b.Company("B")
	g := b.Graph()
	g.MustAddEdge(pg.LabelShareholding, a, c, pg.Properties{pg.WeightProp: 0.6, "right": "pledge"})
	in := writeGraph(t, g)

	_, stdout, _ := cli("control", "-in", in)
	if want := fmt.Sprintf(`"pairs":[{"from":%d,"to":%d}]`, a, c); !strings.Contains(stdout, want) {
		t.Errorf("control = %s, want %s", stdout, want)
	}
	_, stdout, _ = cli("control", "-in", in, "-node", fmt.Sprint(a))
	if want := fmt.Sprintf(`"controls":[{"id":%d,"name":"B"}]`, c); !strings.Contains(stdout, want) {
		t.Errorf("control -node A = %s, want %s", stdout, want)
	}
}

// A request the API refuses exits 1 with its JSON error envelope on stderr;
// misuse exits 2 and -h exits 0.
func TestExitStatuses(t *testing.T) {
	g, _ := vadalink.Figure2()
	in := writeGraph(t, g)

	code, stdout, stderr := cli("control", "-in", in, "-node", "99")
	if code != 1 || stdout != "" {
		t.Fatalf("unknown node: exit %d, stdout %q; want 1 and nothing", code, stdout)
	}
	var env struct{ Error, Code, RequestID string }
	if err := json.Unmarshal([]byte(stderr), &env); err != nil {
		t.Fatalf("stderr %q is not the JSON envelope: %v", stderr, err)
	}
	if env.Code != "bad_request" || env.Error != "unknown node 99" || env.RequestID == "" {
		t.Fatalf("envelope = %+v", env)
	}

	for _, tc := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"nosuch"}, 2},
		{[]string{"control", "-nosuch"}, 2},
		{[]string{"control", "-h"}, 0},
		{[]string{"control"}, 1},
		{[]string{"explain", "-in", in}, 1},
		{[]string{"control", "-in", in, "-target", "1"}, 1},
		{[]string{"closelink", "-in", in, "-t", "NaN"}, 1},
		{[]string{"query", "-in", in}, 1},
		{[]string{"whatif", "-in", in}, 1},
	} {
		if code, _, _ := cli(tc.args...); code != tc.code {
			t.Errorf("%q: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}

// Every routed subcommand asks a route of the API's table, and takes each of
// that route's query parameters as a flag.
func TestRoutedSubcommandsAskTheRouteTable(t *testing.T) {
	for name, rt := range routes {
		params, ok := reasonapi.Params(rt.pattern)
		if !ok {
			t.Errorf("%s asks %s, which the route table does not have", name, rt.pattern)
		}
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		routed(rt)(fs)
		for _, p := range params {
			if f := fs.Lookup(p.Name); f == nil || f.Usage != p.Usage {
				t.Errorf("%s: flag -%s = %+v, want the route parameter's, usage %q", name, p.Name, f, p.Usage)
			}
		}
	}
}

// The routed subcommands read a registry given as the CSV triple too.
func TestRoutedSubcommandsReadRegistryCSVs(t *testing.T) {
	companies := writeFile(t, "companies.csv", []byte("id,name,sector,addr,city\nC1,Acme,x,a,Milano\nC2,Beta,x,b,Roma\n"))
	persons := writeFile(t, "persons.csv", []byte("id,name,surname,birth,addr,city\nP1,Mario,Rossi,1960,c,Roma\n"))
	shares := writeFile(t, "shares.csv", []byte("owner,owned,share\nP1,C1,0.6\nC1,C2,0.8\n"))
	code, stdout, stderr := cli("control", "-companies", companies, "-persons", persons, "-shares", shares)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var got struct{ Pairs []struct{ From, To int } }
	if err := json.Unmarshal([]byte(stdout), &got); err != nil {
		t.Fatalf("%q: %v", stdout, err)
	}
	if len(got.Pairs) != 3 { // P1 → C1, P1 → C2, C1 → C2
		t.Fatalf("pairs = %+v, want 3", got.Pairs)
	}
}

// The subcommands no route answers run on the library.
func TestLibrarySubcommands(t *testing.T) {
	g, _ := vadalink.Figure2()
	in := writeGraph(t, g)
	augmented := filepath.Join(t.TempDir(), "augmented.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"reason", "-in", in}, "control P2 (#5) -> C5 (#1)\n"},
		{[]string{"reason", "-in", in, "-task", "closelink"}, "closelink "},
		{[]string{"reason", "-in", in, "-task", "partner"}, ""},
		{[]string{"dot", "-in", in, "-annotate"}, "digraph"},
		{[]string{"family", "-in", in, "-out", augmented}, "rounds="},
	} {
		code, stdout, stderr := cli(tc.args...)
		if code != 0 || !strings.Contains(stdout, tc.want) {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want %q in stdout", tc.args, code, stdout, stderr, tc.want)
		}
	}
	if _, err := os.Stat(augmented); err != nil {
		t.Errorf("family -out wrote nothing: %v", err)
	}
	if code, _, _ := cli("reason", "-in", in, "-task", "nosuch"); code != 1 {
		t.Errorf("reason -task nosuch: exit %d, want 1", code)
	}
}
