package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"vadalink/internal/control"
	"vadalink/internal/datalog"
	"vadalink/internal/pg"
)

// The four point-question forms of the serving workloads.
const (
	formControls = iota // GET /v1/control?node=a
	formUBO             // GET /v1/ubo?node=a
	formPair            // GET /v1/control?node=a&target=b
	formQuery           // POST /v1/query {"goal":"control(a, Y)"}
	numForms
)

// question is one point question: the request that asks it and the goal atom
// the server answers it with (which the traced replay re-evaluates).
type question struct {
	form   int
	a, b   pg.NodeID
	method string
	url    string
	body   string
}

func (q *question) goal() datalog.Atom {
	x, y := datalog.Term(datalog.Int(int64(q.a))), datalog.Term(datalog.Variable("Y"))
	switch q.form {
	case formUBO:
		x, y = datalog.Variable("X"), datalog.Int(int64(q.a))
	case formPair:
		y = datalog.Int(int64(q.b))
	}
	return datalog.Atom{Pred: "control", Terms: []datalog.Term{x, y}}
}

// allQuestions enumerates every distinct question the graph supports — the
// three node-keyed forms over every eligible node and the pair form over
// every shareholding edge (so a good share of pairs answer true) — shuffled
// by r. No two entries share a cache key.
func allQuestions(g *pg.Graph, r *rand.Rand) []question {
	var qs []question
	for _, id := range g.Nodes() {
		qs = append(qs,
			question{form: formControls, a: id, method: "GET", url: fmt.Sprintf("/v1/control?node=%d", id)},
			question{form: formQuery, a: id, method: "POST", url: "/v1/query", body: fmt.Sprintf(`{"goal":"control(%d, Y)"}`, id)})
	}
	for _, id := range g.NodesWithLabel(pg.LabelCompany) {
		qs = append(qs, question{form: formUBO, a: id, method: "GET", url: fmt.Sprintf("/v1/ubo?node=%d", id)})
	}
	seen := map[[2]pg.NodeID]bool{}
	for _, id := range g.EdgesWithLabel(pg.LabelShareholding) {
		e := g.Edge(id)
		if k := [2]pg.NodeID{e.From, e.To}; !seen[k] {
			seen[k] = true
			qs = append(qs, question{form: formPair, a: e.From, b: e.To, method: "GET",
				url: fmt.Sprintf("/v1/control?node=%d&target=%d", e.From, e.To)})
		}
	}
	r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// stratified picks n questions from a shuffled pool, the same number of each
// form, interleaved so that rank i has form i mod 4. Under a Zipf draw the
// first few ranks carry most of the traffic: without this the seed would
// decide whether the hottest key is a cheap GET or a POST with a body to
// parse, and the run would measure that.
func stratified(pool []question, n int) []question {
	var byForm [numForms][]question
	for _, q := range pool {
		byForm[q.form] = append(byForm[q.form], q)
	}
	out := make([]question, 0, n)
	for i := 0; len(out) < n; i++ {
		form := byForm[i%numForms]
		if i/numForms >= len(form) {
			break // the graph is too small to fill n; callers check the length
		}
		out = append(out, form[i/numForms])
	}
	return out
}

// respWriter is a reusable in-process http.ResponseWriter: the harness calls
// Handler().ServeHTTP directly, no sockets.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRespWriter() *respWriter { return &respWriter{hdr: http.Header{}} }

func (w *respWriter) Header() http.Header { return w.hdr }
func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *respWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.body.Write(b)
}

func (w *respWriter) reset() {
	clear(w.hdr)
	w.code = 0
	w.body.Reset()
}

// serve sends one request through the handler and leaves the response in w.
func serve(h http.Handler, w *respWriter, method, url, body string) {
	w.reset()
	var req *http.Request
	var err error
	if body == "" {
		req, err = http.NewRequest(method, url, nil)
	} else {
		req, err = http.NewRequest(method, url, strings.NewReader(body))
	}
	if err != nil {
		panic(err) // a bug: the harness builds every URL itself
	}
	h.ServeHTTP(w, req)
}

var truncatedMark = []byte(`"truncated":true`)

// okResponse is the per-request success test: 200 and a complete answer.
func okResponse(w *respWriter) bool {
	return w.code == http.StatusOK && !bytes.Contains(w.body.Bytes(), truncatedMark)
}

// ask sends one point question under a ServeHTTP span tagged hit or miss and
// classifies the response; the answer stays in w.
func ask(h http.Handler, w *respWriter, q *question, rec *recorder, op int64, parent int) (lat time.Duration, hit bool, oc outcome) {
	s := rec.begin("reasonapi.ServeHTTP", op, parent)
	t0 := time.Now()
	serve(h, w, q.method, q.url, q.body)
	lat = time.Since(t0)
	hit = w.hdr.Get("X-Cache") == "hit"
	tag := "miss"
	if hit {
		tag = "hit"
	}
	rec.endTag(s, tag)
	switch {
	case w.code != http.StatusOK:
		oc = opNon200
	case bytes.Contains(w.body.Bytes(), truncatedMark):
		oc = opTruncated
	}
	return lat, hit, oc
}

// oracleLog counts and prints oracle disagreements.
type oracleLog struct{ mismatches int }

func (o *oracleLog) report(err error) {
	if err != nil {
		o.mismatches++
		fmt.Println("oracle:", err)
	}
}

// pointAnswer is the union of the four response shapes.
type pointAnswer struct {
	Seq      uint64          `json:"seq"`
	Controls json.RawMessage `json:"controls"` // list for formControls, bool for formPair
	UBOs     []struct {
		ID pg.NodeID `json:"id"`
	} `json:"ultimateControllers"`
	Answers []struct {
		Y pg.NodeID `json:"Y"`
	} `json:"answers"`
}

// checkAnswer compares one point answer with the imperative solvers on the
// view the answer claims to be exact for.
func checkAnswer(v pg.View, q *question, body []byte) error {
	var ans pointAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("%s: %w", q.url, err)
	}
	var got []pg.NodeID
	var want []pg.NodeID
	switch q.form {
	case formControls:
		var items []struct {
			ID pg.NodeID `json:"id"`
		}
		if err := json.Unmarshal(ans.Controls, &items); err != nil {
			return fmt.Errorf("%s: %w", q.url, err)
		}
		for _, it := range items {
			got = append(got, it.ID)
		}
		want = control.Controls(v, q.a)
	case formQuery:
		for _, it := range ans.Answers {
			got = append(got, it.Y)
		}
		want = control.Controls(v, q.a)
	case formUBO:
		for _, it := range ans.UBOs {
			got = append(got, it.ID)
		}
		want = control.UltimateControllers(v, q.a)
	case formPair:
		var yes bool
		if err := json.Unmarshal(ans.Controls, &yes); err != nil {
			return fmt.Errorf("%s: %w", q.url, err)
		}
		for _, id := range control.Controls(v, q.a) {
			if id == q.b {
				want = []pg.NodeID{q.b}
			}
		}
		if yes {
			got = []pg.NodeID{q.b}
		}
	}
	if !sameIDs(got, want) {
		return fmt.Errorf("%s: server says %v, imperative solver says %v", q.url, got, want)
	}
	return nil
}

func sameIDs(a, b []pg.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[pg.NodeID]bool, len(a))
	for _, id := range a {
		set[id] = true
	}
	for _, id := range b {
		if !set[id] {
			return false
		}
	}
	return true
}
