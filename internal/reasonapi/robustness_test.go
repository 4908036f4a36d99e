package reasonapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
)

// divergingProgram never reaches a fixpoint: every p(X) invents a fresh
// null Z which feeds back into p. Seeded from the own facts of the graph.
const divergingProgram = `own(X, Y, W) -> p(X).
p(X) -> q(X, Z).
q(X, Z) -> p(Z).`

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// TestReasonEndpointDeadlineTruncates is the headline acceptance test: a
// non-terminating program submitted over the API comes back as a JSON
// partial result naming the tripped limit, within (about) the configured
// 100ms budget instead of hanging the server.
func TestReasonEndpointDeadlineTruncates(t *testing.T) {
	g, _ := pg.Figure2()
	// More rounds than the chase runs before the deadline stops it.
	srv := httptest.NewServer(NewServerWith(g, Config{Timeout: 100 * time.Millisecond, MaxRounds: 1_000_000}).Handler())
	defer srv.Close()

	start := time.Now()
	resp, out := postJSON(t, srv.URL+"/v1/reason",
		fmt.Sprintf(`{"program": %q, "predicates": ["p"], "maxFactsPerPredicate": 5}`, divergingProgram))
	elapsed := time.Since(start)

	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body = %v", resp.StatusCode, out)
	}
	if out["truncated"] != true {
		t.Fatalf("response not marked truncated: %v", out)
	}
	if out["limit"] != "deadline" {
		t.Errorf("limit = %v, want deadline", out["limit"])
	}
	if _, ok := out["detail"].(string); !ok {
		t.Errorf("missing detail in %v", out)
	}
	if out["derived"] == nil || out["derived"].(float64) <= 0 {
		t.Errorf("no partial derivation reported: %v", out["derived"])
	}
	// 100ms budget + cooperative-check latency + test-host slack.
	if elapsed > 5*time.Second {
		t.Errorf("request took %v, the deadline did not stop the chase", elapsed)
	}
}

// TestReasonEndpointFactBudget: the per-request maxFacts tightens the
// server budget and names itself in the truncation metadata.
func TestReasonEndpointFactBudget(t *testing.T) {
	g, _ := pg.Figure2()
	srv := httptest.NewServer(NewServerWith(g, Config{}).Handler())
	defer srv.Close()

	resp, out := postJSON(t, srv.URL+"/v1/reason",
		fmt.Sprintf(`{"program": %q, "maxFacts": 200}`, divergingProgram))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body = %v", resp.StatusCode, out)
	}
	if out["truncated"] != true || out["limit"] != "max-facts" {
		t.Fatalf("want truncated via max-facts, got %v", out)
	}
	facts, ok := out["facts"].(map[string]any)
	if !ok || len(facts) == 0 {
		t.Errorf("no partial facts in %v", out)
	}
}

// TestReasonEndpointComplete: a terminating program reports no truncation.
func TestReasonEndpointComplete(t *testing.T) {
	g, _ := pg.Figure2()
	srv := httptest.NewServer(NewServer(g).Handler())
	defer srv.Close()

	resp, out := postJSON(t, srv.URL+"/v1/reason",
		`{"program": "own(X, Y, W) -> holds(X, Y)."}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, body = %v", resp.StatusCode, out)
	}
	if _, present := out["truncated"]; present {
		t.Errorf("complete run marked truncated: %v", out)
	}
	rows := out["facts"].(map[string]any)["holds"].([]any)
	if len(rows) == 0 {
		t.Error("no holds facts returned")
	}
}

func TestReasonEndpointBadProgram(t *testing.T) {
	g, _ := pg.Figure2()
	srv := httptest.NewServer(NewServer(g).Handler())
	defer srv.Close()
	resp, _ := postJSON(t, srv.URL+"/v1/reason", `{"program": "p(X ->"}`)
	if resp.StatusCode != 400 {
		t.Errorf("parse error: status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/reason", `{}`)
	if resp.StatusCode != 400 {
		t.Errorf("missing program: status = %d, want 400", resp.StatusCode)
	}
}

// TestHandlerPanicRecovery: an injected panic in a handler becomes a JSON
// 500 with a request ID, and the server keeps serving afterwards.
func TestHandlerPanicRecovery(t *testing.T) {
	srv, _ := testServer(t)
	t.Cleanup(faultinject.Reset)

	faultinject.Set(faultinject.SiteAPIHandler, func() { panic("injected crash") })
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Error     string `json:"error"`
		RequestID string `json:"requestID"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding panic response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Errorf("status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(out.Error, "injected crash") {
		t.Errorf("error = %q, want the panic value", out.Error)
	}
	if out.RequestID == "" {
		t.Error("no requestID in panic response")
	}
	if id := resp.Header.Get("X-Request-ID"); id != out.RequestID {
		t.Errorf("X-Request-ID header %q, envelope requestID %q", id, out.RequestID)
	}

	// The process survived: the next request succeeds.
	faultinject.Clear(faultinject.SiteAPIHandler)
	if code := getJSON(t, srv.URL+"/v1/stats", nil); code != 200 {
		t.Fatalf("server dead after panic: status = %d", code)
	}
}

// TestPanicLoggedThroughLogger: with Config.Logger set, a recovered panic is
// one error record in the structured log — a plaintext log.Printf line
// would corrupt a JSON log stream.
func TestPanicLoggedThroughLogger(t *testing.T) {
	var structured, plain bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&plain)
	t.Cleanup(func() { log.SetOutput(prev) })
	t.Cleanup(faultinject.Reset)

	g, _ := pg.Figure2()
	lg := slog.New(slog.NewJSONHandler(&structured, nil))
	srv := httptest.NewServer(NewServerWith(g, Config{Logger: lg}).Handler())
	defer srv.Close()
	faultinject.Set(faultinject.SiteAPIHandler, func() { panic("injected crash") })
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	srv.Close() // waits for the handler, so every record is written

	if plain.Len() != 0 {
		t.Errorf("panic logged through the standard logger: %q", plain.String())
	}
	var found bool
	for _, line := range strings.Split(strings.TrimSpace(structured.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON line in the JSON log: %q", line)
		}
		if rec["msg"] != "recovered panic" {
			continue
		}
		found = true
		if rec["level"] != "ERROR" || rec["id"] != resp.Header.Get("X-Request-ID") ||
			rec["method"] != "GET" || rec["path"] != "/v1/stats" || rec["panic"] != "injected crash" {
			t.Errorf("panic record = %v", rec)
		}
	}
	if !found {
		t.Errorf("no recovered-panic record in %q", structured.String())
	}
}

// TestServeGracefulDrain: cancelling Serve's context closes the listener but
// lets the in-flight request finish before the server exits.
func TestServeGracefulDrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inFlight := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inFlight)
		time.Sleep(300 * time.Millisecond)
		fmt.Fprint(w, "done")
	})

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(ctx, ln, mux, 5*time.Second) }()

	url := "http://" + ln.Addr().String()
	respc := make(chan string, 1)
	go func() {
		resp, err := http.Get(url + "/slow")
		if err != nil {
			respc <- "error: " + err.Error()
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		respc <- string(b)
	}()

	<-inFlight // request reached the handler
	cancel()   // SIGTERM equivalent: start draining

	if got := <-respc; got != "done" {
		t.Errorf("in-flight request = %q, want %q (dropped during drain?)", got, "done")
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	// The listener is closed: new connections are refused.
	c := &http.Client{Timeout: time.Second}
	if _, err := c.Get(url + "/slow"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestConcurrentReadsDuringAugment is the satellite concurrency test: read
// endpoints are hammered while /v1/augment mutates the graph, under -race.
// A second concurrent augment must get an immediate 503 with Retry-After.
// It holds wherever the graph lives: on a standalone server's version chain
// and on a replica-group leader's locked graph (which used to run the whole
// augmentation under the write lock, and told neither the cache nor the
// maintainer about it).
func TestConcurrentReadsDuringAugment(t *testing.T) {
	cfg := Config{Timeout: 30 * time.Second}
	for _, mode := range []struct {
		name  string
		start func(t *testing.T, g *pg.Graph) (*Server, *httptest.Server)
	}{
		{"standalone", func(t *testing.T, g *pg.Graph) (*Server, *httptest.Server) {
			s := NewServerWith(g, cfg)
			srv := httptest.NewServer(s.Handler())
			t.Cleanup(srv.Close)
			return s, srv
		}},
		{"replica-group leader", func(t *testing.T, g *pg.Graph) (*Server, *httptest.Server) {
			return leadingAPINode(t, g, cfg)
		}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 60, Companies: 20, Seed: 3})
			s, srv := mode.start(t, it.Graph)
			readsDuringAugment(t, s, srv, it.Graph.Nodes())
		})
	}
}

func readsDuringAugment(t *testing.T, s *Server, srv *httptest.Server, nodes []pg.NodeID) {
	t.Cleanup(faultinject.Reset)

	// Gate the first augmentation round so the busy window is deterministic,
	// then pad later rounds so reads genuinely overlap the mutation.
	gate := make(chan struct{})
	var started sync.Once
	startedc := make(chan struct{})
	faultinject.Set(faultinject.SiteAugmentRound, func() {
		started.Do(func() { close(startedc) })
		<-gate
		time.Sleep(2 * time.Millisecond)
	})

	// A caller-program answer any commit must flush: the probe for whether
	// the augmentation's journal reaches the cache.
	s.qc.Put("probe", qcache.ClassAny, 0, []byte("{}"))

	augDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(srv.URL+"/v1/augment", "application/json",
			strings.NewReader(`{"classes":["family"],"noCluster":true}`))
		if err != nil {
			augDone <- -1
			return
		}
		resp.Body.Close()
		augDone <- resp.StatusCode
	}()

	<-startedc // first augment is inside RunContext, holding the busy lock

	// Concurrent augment: immediate 503 + Retry-After, no queueing.
	resp, err := http.Post(srv.URL+"/v1/augment", "application/json",
		strings.NewReader(`{"classes":["family"],"noCluster":true}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("concurrent augment: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	// The MVCC contract: while the augment is parked inside its first round
	// (the gate is still closed), reads answer 200 from the pinned prior
	// version instead of queueing behind the writer. A bounded client makes
	// a regression fail fast instead of hanging the test.
	quick := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{
		"/v1/stats",
		"/v1/closelinks",
		"/v1/control?node=" + itoa(nodes[0]),
	} {
		resp, err := quick.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("read %s blocked behind the in-flight augment: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("read %s during augment: status %d, want 200", path, resp.StatusCode)
		}
	}
	// A counterfactual is a read too: it overlays the prior version and must
	// not wait for the writer either.
	wiresp, err := quick.Post(srv.URL+"/v1/whatif", "application/json",
		strings.NewReader(`{"ops":[{"op":"addNode","name":"Hypothetical"}]}`))
	if err != nil {
		t.Fatalf("what-if blocked behind the in-flight augment: %v", err)
	}
	io.Copy(io.Discard, wiresp.Body)
	wiresp.Body.Close()
	if wiresp.StatusCode != 200 {
		t.Errorf("what-if during augment: status %d, want 200", wiresp.StatusCode)
	}

	close(gate) // let the augmentation proceed while reads hammer it

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				node := nodes[(w*20+i)%len(nodes)]
				for _, path := range []string{
					"/v1/control?node=" + itoa(node),
					"/v1/closelinks",
					"/v1/stats",
				} {
					resp, err := http.Get(srv.URL + path)
					if err != nil {
						errs <- err.Error()
						continue
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errs <- fmt.Sprintf("%s: status %d", path, resp.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent read failed: %s", e)
	}

	if code := <-augDone; code != 200 {
		t.Errorf("gated augment finished with status %d, want 200", code)
	}

	// The commit was announced once, to both subscribers: the cache dropped
	// the caller-program entry, and the maintainer — seeded by the what-if
	// above — catches up on the (derived-irrelevant) journal at the next read
	// instead of re-chasing.
	if _, _, ok := s.qc.Get("probe"); ok {
		t.Error("the augmentation's journal never reached qcache.OnCommit")
	}
	if resp, raw := postJSON(t, srv.URL+"/v1/whatif", `{"ops":[{"op":"addNode","name":"Hypothetical"}]}`); resp.StatusCode != 200 {
		t.Fatalf("what-if after augment: status %d: %v", resp.StatusCode, raw)
	}
	if st := s.ivmM.Stats(); st.SkippedCommits == 0 || st.FullRebuilds != 1 {
		t.Errorf("the augmentation's journal never reached the maintainer: %+v", st)
	}
}

// TestRequestIDOnEveryResponse: the middleware stamps each response.
func TestRequestIDOnEveryResponse(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("missing X-Request-ID")
	}
}
