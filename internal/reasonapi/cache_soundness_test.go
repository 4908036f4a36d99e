package reasonapi

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"vadalink/internal/graphgen"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/replication"
)

// TestCacheSoundnessProperty is the differential property behind scoped
// eviction (DESIGN.md §13.3): over randomized generated graphs and the IVM
// harness's random commit streams — share adds (cycles included), removals,
// reweights, node churn — each closed by a commit that only adds a person
// with no edges, every point question a server answers from its cache after
// a commit must equal, apart from the seq stamp, what a cache-disabled server
// answers on the same graph. It runs through a
// standalone server (one commit hook call per journal) and a follower-mode
// one (one call per replicated frame). Flushing everything would pass the
// equality trivially, so the Italian streams — many small components, like
// the registry — must also keep some entries standing across relevant
// commits.
func TestCacheSoundnessProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("cache soundness harness is not short")
	}
	t.Run("standalone", func(t *testing.T) { cacheSoundness(t, false) })
	t.Run("follower", func(t *testing.T) { cacheSoundness(t, true) })
}

func cacheSoundness(t *testing.T, follower bool) {
	const streams, commits = 12, 5
	var italianKept, italianHits int
	for i := 0; i < streams; i++ {
		rng := rand.New(rand.NewSource(int64(9000 + i)))
		italian := i%3 == 2
		var base *pg.Graph
		if italian {
			base = graphgen.NewItalian(graphgen.ItalianConfig{
				Companies: 10 + rng.Intn(10),
				Persons:   6 + rng.Intn(6),
				Seed:      int64(i + 1),
			}).Graph
		} else {
			base = graphgen.Barabasi(8+rng.Intn(12), 1+rng.Intn(3), int64(i+1))
		}
		h := newSoundnessHarness(t, base, follower)
		asked := map[string]question{}
		for c := 0; c <= commits+1; c++ {
			name := fmt.Sprintf("stream %d (%d nodes) after commit %d", i, base.NumNodes(), c)
			switch {
			case c == commits+1:
				h.commit(func(o *pg.Overlay) { o.AddNode(pg.LabelPerson, pg.Properties{"name": "lone"}) })
			case c > 0:
				h.commit(func(o *pg.Overlay) { graphgen.RandomCommit(rng, o) })
			}
			hits := h.check(name, asked)
			if italian && c > 0 {
				italianHits += hits
			}
			if t.Failed() {
				t.Fatalf("%s: stopping after the first divergence", name)
			}
		}
		if italian {
			italianKept += int(h.s.qc.Stats().Kept)
		}
	}
	if italianKept == 0 || italianHits == 0 {
		t.Fatalf("Italian streams kept %d entries across relevant commits and served %d hits after commits; scoped eviction must keep some",
			italianKept, italianHits)
	}
}

// question is one point request: method, path and body.
type question struct{ method, path, body string }

// soundnessHarness drives one server under test and the commits it sees.
type soundnessHarness struct {
	t      *testing.T
	s      *Server
	h      http.Handler
	commit func(fn func(o *pg.Overlay))
}

func newSoundnessHarness(t *testing.T, base *pg.Graph, follower bool) *soundnessHarness {
	h := &soundnessHarness{t: t}
	if !follower {
		h.s = NewServerWith(base.Clone(), Config{})
		h.commit = func(fn func(o *pg.Overlay)) {
			if err := writeTo(h.s, fn); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		var st *persist.Store
		var fl *replication.Follower
		st, fl, h.s, _ = replicatedServer(t, base.Clone(), Config{MaxStaleness: time.Minute})
		waitFollowerSeq(t, fl, st.Seq())
		h.commit = func(fn func(o *pg.Overlay)) {
			g := st.Graph()
			o := pg.NewOverlay(g)
			fn(o)
			journal, _ := o.Journal()
			for _, m := range journal {
				if _, err := g.Replay(m); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			waitFollowerSeq(t, fl, st.Seq())
		}
	}
	h.h = h.s.Handler()
	return h
}

// check adds the current graph's point questions to asked, asks every one,
// and compares each cache hit with a cache-disabled server over a copy of
// the same graph. It returns the number of hits.
func (h *soundnessHarness) check(name string, asked map[string]question) int {
	flat, err := pg.Flatten(h.s.vs.Current().View())
	if err != nil {
		h.t.Fatal(err)
	}
	for _, q := range pointQuestions(flat) {
		asked[q.method+q.path+q.body] = q
	}
	keys := make([]string, 0, len(asked))
	for k := range asked {
		keys = append(keys, k)
	}
	sort.Strings(keys) // a failing stream replays in the same order
	var ref http.Handler
	hits := 0
	for _, k := range keys {
		q := asked[k]
		got := serveQuestion(h.h, q)
		if got.Header().Get("X-Cache") != "hit" {
			continue
		}
		hits++
		if ref == nil {
			ref = NewServerWith(flat, Config{QueryCacheBytes: -1}).Handler()
		}
		want := serveQuestion(ref, q)
		if g, w := withoutSeq(h.t, got), withoutSeq(h.t, want); want.Code != http.StatusOK || !reflect.DeepEqual(g, w) {
			h.t.Errorf("%s: %s %s %s: cache hit %v, cache-disabled server %d %v", name, q.method, q.path, q.body, g, want.Code, w)
		}
	}
	return hits
}

// pointQuestions lists the anchored point questions of a graph — control and
// query goals per node, UBO and reverse goals per company, and the pair forms
// per ownership edge — plus the unanchored ones, goals over the extensional
// company and person relations and over ccand among them: a commit adding a
// node with no edges moves those and nothing derived.
func pointQuestions(g *pg.Graph) []question {
	query := func(goal string) question {
		return question{"POST", "/v1/query", fmt.Sprintf(`{"goal": %q}`, goal)}
	}
	qs := []question{{"GET", "/v1/control/pairs", ""}, {"GET", "/v1/closelinks", ""},
		query("person(X, N, B, A, S)"), query("company(X, N, B, A, S)"), query("ccand(X, Y)")}
	goal := func(x, y string) question { return query(fmt.Sprintf("control(%s, %s)", x, y)) }
	for _, n := range g.Nodes() {
		qs = append(qs, question{"GET", fmt.Sprintf("/v1/control?node=%d", n), ""}, goal(fmt.Sprint(n), "Y"))
	}
	for _, n := range g.NodesWithLabel(pg.LabelCompany) {
		qs = append(qs, question{"GET", fmt.Sprintf("/v1/ubo?node=%d", n), ""}, goal("X", fmt.Sprint(n)))
	}
	for _, id := range g.EdgesWithLabel(pg.LabelShareholding) {
		e := g.Edge(id)
		qs = append(qs,
			question{"GET", fmt.Sprintf("/v1/control?node=%d&target=%d", e.From, e.To), ""},
			question{"GET", fmt.Sprintf("/v1/explain?from=%d&to=%d", e.From, e.To), ""},
			question{"GET", fmt.Sprintf("/v1/accumulated?from=%d&to=%d", e.From, e.To), ""},
			goal(fmt.Sprint(e.From), fmt.Sprint(e.To)))
	}
	return qs
}

func serveQuestion(h http.Handler, q question) *httptest.ResponseRecorder {
	req := httptest.NewRequest(q.method, q.path, strings.NewReader(q.body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func withoutSeq(t *testing.T, w *httptest.ResponseRecorder) map[string]any {
	var body map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("non-JSON body %q: %v", w.Body.String(), err)
	}
	delete(body, "seq")
	return body
}
