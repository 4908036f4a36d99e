package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"

	"vadalink"
	"vadalink/internal/pg"
)

// reasonedPair matches the node IDs of one pair `vadalink reason` prints.
var reasonedPair = regexp.MustCompile(`\(#(\d+)\) .* \(#(\d+)\)$`)

// pair is a node pair: directed for control, canonical (A < B) for close
// links.
type pair = [2]vadalink.NodeID

// conceptGraph is one graph of TestOneAnswerPerConcept with the answers the
// served definitions give on it (DESIGN.md §5): control is Algorithm 5 over
// own/3, where every share counts, and Φ is Algorithm 6's fixpoint, a sum
// over walks.
type conceptGraph struct {
	name    string
	g       *vadalink.Graph
	control []pair
	links   []pair
	phi     map[pair]float64 // a few hand-computed values
}

// pledgeGraph: person P holds a pledged 60% of A, and A the bare ownership
// of 70% of B. Both shares count toward control and Φ.
func pledgeGraph() conceptGraph {
	b := vadalink.NewBuilder()
	a, bb, p := b.Company("A"), b.Company("B"), b.Person("P")
	g := b.Graph()
	g.MustAddEdge(pg.LabelShareholding, p, a, pg.Properties{pg.WeightProp: 0.6, "right": "pledge"})
	g.MustAddEdge(pg.LabelShareholding, a, bb, pg.Properties{pg.WeightProp: 0.7, "right": "bare ownership"})
	return conceptGraph{
		name:    "pledge",
		g:       g,
		control: []pair{{a, bb}, {p, a}, {p, bb}},
		links:   []pair{{a, bb}},
		phi:     map[pair]float64{{p, a}: 0.6, {a, bb}: 0.7, {p, bb}: 0.42},
	}
}

// cycleGraph: A and B hold 60% of each other and B holds 15% of C. Summed
// over walks, Φ(B, C) = 0.15 / (1 − 0.36) ≈ 0.234, so (B, C) is a close link
// at 0.2 and B is a common owner of A and C; summed over simple paths Φ(B, C)
// would be 0.15 and neither pair would be.
func cycleGraph() conceptGraph {
	b := vadalink.NewBuilder()
	a, bb, c := b.Company("A"), b.Company("B"), b.Company("C")
	b.Own("A", "B", 0.6).Own("B", "A", 0.6).Own("B", "C", 0.15)
	return conceptGraph{
		name:    "cycle",
		g:       b.Graph(),
		control: []pair{{a, bb}, {bb, a}},
		links:   []pair{{a, bb}, {a, c}, {bb, c}},
		phi:     map[pair]float64{{a, bb}: 0.6, {bb, a}: 0.6, {bb, c}: 0.15 / 0.64, {a, c}: 0.6 * 0.15 / 0.64},
	}
}

// nearUnitCycleGraph: A and B hold 99.5% of each other and A holds 0.206%
// of C, a cycle of gain 0.990. Summed exactly, Φ(A, C) = 0.00206 / (1 −
// 0.990025) ≈ 0.2065 would make {A, C} and {B, C} close links; the served
// step ε = 1e-4 stops the series ≈ 0.01 short of that (DESIGN.md §5), below
// the threshold, so every path lists {A, B} alone.
func nearUnitCycleGraph() conceptGraph {
	b := vadalink.NewBuilder()
	a, bb, _ := b.Company("A"), b.Company("B"), b.Company("C")
	b.Own("A", "B", 0.995).Own("B", "A", 0.995).Own("A", "C", 0.00206)
	return conceptGraph{
		name:    "near-unit cycle",
		g:       b.Graph(),
		control: []pair{{a, bb}, {bb, a}},
		links:   []pair{{a, bb}},
		phi:     map[pair]float64{{a, bb}: 0.995, {bb, a}: 0.995},
	}
}

// answer serves one request on h and decodes its 200 body into out.
func answer(t *testing.T, h http.Handler, method, target, body string, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s = %d %s", method, target, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
}

// sorted returns ps sorted, never nil, so two answers compare by Sprint.
func sorted(ps []pair) []pair {
	out := append([]pair{}, ps...)
	slices.SortFunc(out, func(x, y pair) int { return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1])) })
	return slices.Compact(out)
}

func canonical(a, b vadalink.NodeID) pair {
	if b < a {
		a, b = b, a
	}
	return pair{a, b}
}

// augmented runs POST /v1/augment for one class, exhaustively, on a copy of
// g and returns the edges of label it wove.
func augmented(t *testing.T, g *vadalink.Graph, class string, label pg.Label) []pg.NodeID {
	t.Helper()
	h := vadalink.APIHandler(g.Clone())
	var res map[string]any
	answer(t, h, "POST", "/v1/augment", `{"classes": ["`+class+`"], "noCluster": true}`, &res)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/graph", nil))
	out, err := pg.ReadJSON(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	var ends []pg.NodeID
	for _, id := range out.EdgesWithLabel(label) {
		e := out.Edge(id)
		ends = append(ends, e.From, e.To)
	}
	return ends
}

// Every surface that answers control, close links or Φ gives one answer:
// /v1/augment's control and close-link classes, the facade, every control
// route, /v1/accumulated, the accown and closelink goals of /v1/query and of
// `vadalink query`, /v1/closelinks, the rest of the CLI and the facade's
// Reasoner. On the pledge graph a pledged and a bare-owned share count toward
// control; on the cycle graph Φ sums walks; on the near-unit cycle every path
// stops the series at the same step.
func TestOneAnswerPerConcept(t *testing.T) {
	for _, cg := range []conceptGraph{pledgeGraph(), cycleGraph(), nearUnitCycleGraph()} {
		t.Run(cg.name, func(t *testing.T) {
			g, nodes := cg.g, cg.g.Nodes()
			h := vadalink.APIHandler(g.Clone())
			in := writeGraph(t, g)
			persons := map[vadalink.NodeID]bool{}
			for _, p := range g.NodesWithLabel(vadalink.LabelPerson) {
				persons[p] = true
			}
			want := sorted(cg.control)
			var wantUBO []pair
			for _, p := range want {
				if persons[p[0]] {
					wantUBO = append(wantUBO, p)
				}
			}

			control := map[string][]pair{}
			ubo := map[string][]pair{}
			for _, p := range vadalink.AllControlPairs(g) {
				control["facade AllControlPairs"] = append(control["facade AllControlPairs"], pair{p.From, p.To})
			}
			var pairsBody struct {
				Pairs []struct{ From, To vadalink.NodeID }
			}
			answer(t, h, "GET", "/v1/control/pairs", "", &pairsBody)
			for _, p := range pairsBody.Pairs {
				control["/v1/control/pairs"] = append(control["/v1/control/pairs"], pair{p.From, p.To})
			}
			_, stdout, _ := cli("control", "-in", in)
			pairsBody.Pairs = nil
			if err := json.Unmarshal([]byte(stdout), &pairsBody); err != nil {
				t.Fatalf("vadalink control: %v in %q", err, stdout)
			}
			for _, p := range pairsBody.Pairs {
				control["vadalink control"] = append(control["vadalink control"], pair{p.From, p.To})
			}
			var queryBody struct {
				Answers []map[string]float64
			}
			answer(t, h, "POST", "/v1/query", `{"goal": "control(X, Y)"}`, &queryBody)
			for _, a := range queryBody.Answers {
				control["/v1/query control(X, Y)"] = append(control["/v1/query control(X, Y)"], pair{vadalink.NodeID(a["X"]), vadalink.NodeID(a["Y"])})
			}
			ends := augmented(t, g, "control", pg.LabelControl)
			for i := 0; i < len(ends); i += 2 {
				control["/v1/augment control"] = append(control["/v1/augment control"], pair{ends[i], ends[i+1]})
			}
			for _, x := range nodes {
				for _, y := range vadalink.Controls(g, x) {
					control["facade Controls"] = append(control["facade Controls"], pair{x, y})
				}
				var nodeBody struct {
					Controls []struct{ ID vadalink.NodeID }
				}
				answer(t, h, "GET", fmt.Sprintf("/v1/control?node=%d", x), "", &nodeBody)
				for _, c := range nodeBody.Controls {
					control["/v1/control?node="] = append(control["/v1/control?node="], pair{x, c.ID})
				}
				_, stdout, _ := cli("control", "-in", in, "-node", fmt.Sprint(x))
				nodeBody.Controls = nil
				if err := json.Unmarshal([]byte(stdout), &nodeBody); err != nil {
					t.Fatalf("vadalink control -node: %v in %q", err, stdout)
				}
				for _, c := range nodeBody.Controls {
					control["vadalink control -node"] = append(control["vadalink control -node"], pair{x, c.ID})
				}
				for _, p := range vadalink.UltimateControllers(g, x) {
					ubo["facade UltimateControllers"] = append(ubo["facade UltimateControllers"], pair{p, x})
				}
				var uboBody struct {
					UltimateControllers []struct{ ID vadalink.NodeID }
				}
				answer(t, h, "GET", fmt.Sprintf("/v1/ubo?node=%d", x), "", &uboBody)
				for _, p := range uboBody.UltimateControllers {
					ubo["/v1/ubo"] = append(ubo["/v1/ubo"], pair{p.ID, x})
				}
				for _, y := range nodes {
					if x == y {
						continue
					}
					for _, route := range []string{"/v1/control?node=%d&target=%d", "/v1/explain?from=%d&to=%d"} {
						var yes struct{ Controls bool }
						answer(t, h, "GET", fmt.Sprintf(route, x, y), "", &yes)
						if yes.Controls {
							control[route] = append(control[route], pair{x, y})
						}
					}
				}
			}
			// Every surface is named here, so one that answers nothing is
			// compared as the empty answer.
			for _, name := range []string{"/v1/augment control", "/v1/control/pairs", "/v1/control?node=",
				"/v1/control?node=%d&target=%d", "/v1/explain?from=%d&to=%d", "/v1/query control(X, Y)",
				"facade AllControlPairs", "facade Controls", "vadalink control", "vadalink control -node"} {
				if got := sorted(control[name]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("control from %s = %v, want %v", name, got, want)
				}
			}
			for _, name := range []string{"/v1/ubo", "facade UltimateControllers"} {
				if got := sorted(ubo[name]); fmt.Sprint(got) != fmt.Sprint(sorted(wantUBO)) {
					t.Errorf("ultimate controllers from %s = %v, want %v", name, got, sorted(wantUBO))
				}
			}

			links := map[string][]pair{}
			facadeLinks, err := vadalink.CloseLinks(g, 0.2)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range facadeLinks {
				links["facade CloseLinks"] = append(links["facade CloseLinks"], pair{l.A, l.B})
			}
			var linksBody struct {
				Links []struct{ A, B vadalink.NodeID }
			}
			answer(t, h, "GET", "/v1/closelinks", "", &linksBody)
			for _, l := range linksBody.Links {
				links["/v1/closelinks"] = append(links["/v1/closelinks"], pair{l.A, l.B})
			}
			_, stdout, _ = cli("closelink", "-in", in)
			linksBody.Links = nil
			if err := json.Unmarshal([]byte(stdout), &linksBody); err != nil {
				t.Fatalf("vadalink closelink: %v in %q", err, stdout)
			}
			for _, l := range linksBody.Links {
				links["vadalink closelink"] = append(links["vadalink closelink"], pair{l.A, l.B})
			}
			_, stdout, _ = cli("reason", "-in", in, "-task", "closelink")
			for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
				var x, y vadalink.NodeID
				if m := reasonedPair.FindStringSubmatch(line); m != nil {
					fmt.Sscan(m[1], &x)
					fmt.Sscan(m[2], &y)
					links["vadalink reason -task closelink"] = append(links["vadalink reason -task closelink"], canonical(x, y))
				}
			}
			queryBody.Answers = nil
			answer(t, h, "POST", "/v1/query", `{"goal": "closelink(X, Y)"}`, &queryBody)
			for _, a := range queryBody.Answers {
				links["/v1/query closelink(X, Y)"] = append(links["/v1/query closelink(X, Y)"], canonical(vadalink.NodeID(a["X"]), vadalink.NodeID(a["Y"])))
			}
			_, stdout, _ = cli("query", "-in", in, "-goal", "closelink(X, Y)")
			queryBody.Answers = nil
			if err := json.Unmarshal([]byte(stdout), &queryBody); err != nil {
				t.Fatalf("vadalink query: %v in %q", err, stdout)
			}
			for _, a := range queryBody.Answers {
				links["vadalink query closelink(X, Y)"] = append(links["vadalink query closelink(X, Y)"], canonical(vadalink.NodeID(a["X"]), vadalink.NodeID(a["Y"])))
			}
			ends = augmented(t, g, "closelink", pg.LabelCloseLink)
			for i := 0; i < len(ends); i += 2 {
				links["/v1/augment closelink"] = append(links["/v1/augment closelink"], canonical(ends[i], ends[i+1]))
			}
			for _, name := range []string{"/v1/augment closelink", "/v1/closelinks", "/v1/query closelink(X, Y)",
				"facade CloseLinks", "vadalink closelink", "vadalink reason -task closelink", "vadalink query closelink(X, Y)"} {
				if got := sorted(links[name]); fmt.Sprint(got) != fmt.Sprint(sorted(cg.links)) {
					t.Errorf("close links from %s = %v, want %v", name, got, sorted(cg.links))
				}
			}

			// Φ within the aggregate step ε = 1e-4 of one another, and within
			// 1e-3 of the hand-computed values.
			const eps = 1e-4
			queryBody.Answers = nil
			answer(t, h, "POST", "/v1/query", `{"goal": "accown(X, Y, S)"}`, &queryBody)
			goal := map[pair]float64{}
			for _, a := range queryBody.Answers {
				goal[pair{vadalink.NodeID(a["X"]), vadalink.NodeID(a["Y"])}] = a["S"]
			}
			_, stdout, _ = cli("query", "-in", in, "-goal", "accown(X, Y, S)")
			queryBody.Answers = nil
			if err := json.Unmarshal([]byte(stdout), &queryBody); err != nil {
				t.Fatalf("vadalink query: %v in %q", err, stdout)
			}
			queried := map[pair]float64{}
			for _, a := range queryBody.Answers {
				queried[pair{vadalink.NodeID(a["X"]), vadalink.NodeID(a["Y"])}] = a["S"]
			}
			r := vadalink.NewReasoner(g, vadalink.TaskCloseLink)
			if err := r.Run(); err != nil {
				t.Fatal(err)
			}
			reasoned := r.AccumulatedOwnership()
			for _, x := range nodes {
				for _, y := range nodes {
					if x == y {
						continue
					}
					p := pair{x, y}
					var acc struct{ Phi float64 }
					answer(t, h, "GET", fmt.Sprintf("/v1/accumulated?from=%d&to=%d", x, y), "", &acc)
					facade, err := vadalink.Accumulated(g, x, y)
					if err != nil {
						t.Fatal(err)
					}
					for path, phi := range map[string]float64{"/v1/accumulated": acc.Phi, "/v1/query accown": goal[p],
						"vadalink query accown": queried[p], "Reasoner": reasoned[p]} {
						if math.Abs(phi-facade) > eps {
							t.Errorf("Φ%v from %s = %v, facade %v", p, path, phi, facade)
						}
					}
					if want, ok := cg.phi[p]; ok && math.Abs(facade-want) > 1e-3 {
						t.Errorf("Φ%v = %v, want %v", p, facade, want)
					}
				}
			}
		})
	}
}
