package reasonapi

// Guards on the cost of a cache hit: what the middleware and the point
// handlers allocate per hit, that a hit creates no deadline timer while a
// miss still runs under the full deadline, and that readQuery reads a query
// string exactly as url.ParseQuery does.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"vadalink/internal/pg"
)

// hitWriter is an in-process ResponseWriter reused across requests, so the
// allocations counted are the server's alone.
type hitWriter struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (w *hitWriter) Header() http.Header         { return w.h }
func (w *hitWriter) WriteHeader(code int)        { w.code = code }
func (w *hitWriter) Write(b []byte) (int, error) { return w.body.Write(b) }

func (w *hitWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body.Reset()
}

// TestHitAllocations pins what one cache hit allocates through Handler() in
// each of the four point forms. The budgets are the measured counts: the
// middleware's request ID, header value, statusWriter, request context and
// request copy, plus the cache key; POST /v1/query adds its JSON decoding and
// goal parsing. A hit that starts allocating again fails here.
func TestHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	g, b := pg.Figure2()
	h := NewServer(g).Handler()
	p2, c7 := itoa(b.ID("P2")), itoa(b.ID("C7"))
	for _, form := range []struct {
		name, method, url, body string
		budget                  float64
	}{
		{"control", "GET", "/v1/control?node=" + p2, "", 6},
		{"ubo", "GET", "/v1/ubo?node=" + c7, "", 6},
		{"pair", "GET", "/v1/control?node=" + p2 + "&target=" + c7, "", 6},
		{"query", "POST", "/v1/query", `{"goal": "control(` + p2 + `, Y)"}`, 32},
	} {
		t.Run(form.name, func(t *testing.T) {
			body := strings.NewReader(form.body)
			req := httptest.NewRequest(form.method, form.url, body)
			w := &hitWriter{h: http.Header{}}
			serve := func() {
				body.Reset(form.body)
				w.reset()
				h.ServeHTTP(w, req)
			}
			serve() // the miss that fills the cache
			serve()
			if w.code != http.StatusOK || w.h.Get("X-Cache") != "hit" {
				t.Fatalf("status %d, X-Cache %q, want a 200 hit: %s", w.code, w.h.Get("X-Cache"), w.body.Bytes())
			}
			if got := testing.AllocsPerRun(500, serve); got > form.budget {
				t.Errorf("a hit allocates %.0f times, budget %.0f", got, form.budget)
			}
		})
	}
}

// TestDeadlineArmedOnlyByMisses: a hit never arms its request deadline; a
// miss arms it with exactly t0 + Config.Timeout (or, with the deadline
// disabled, as a plain cancellable context). Kept past ServeHTTP, either
// context reads cancelled, as net/http's own request context does.
func TestDeadlineArmedOnlyByMisses(t *testing.T) {
	for _, timeout := range []time.Duration{time.Hour, -1} {
		t.Run(fmt.Sprint(timeout), func(t *testing.T) {
			g, b := pg.Figure2()
			s := NewServerWith(g, Config{Timeout: timeout})
			control := s.serveRoute(routeOf(t, "GET /v1/control"))
			var kept []*requestCtx
			h := s.govern(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				control(w, r)
				kept = append(kept, r.Context().(*requestCtx))
			}))
			url := "/v1/control?node=" + itoa(b.ID("P2"))
			var lo, hi time.Time
			for i, want := range []string{"miss", "hit"} {
				w := httptest.NewRecorder()
				if i == 0 {
					lo = time.Now()
				}
				h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
				if i == 0 {
					hi = time.Now()
				}
				if got := w.Header().Get("X-Cache"); w.Code != 200 || got != want {
					t.Fatalf("request %d: status %d, X-Cache %q, want 200 %s", i, w.Code, got, want)
				}
			}
			miss, hit := kept[0], kept[1]
			if hit.armed != cancelledCtx {
				t.Error("a cache hit armed its request deadline")
			}
			if miss.armed == cancelledCtx {
				t.Fatal("a miss ran its chase without arming the request deadline")
			}
			dl, ok := miss.armed.Deadline()
			if timeout > 0 && (!ok || dl.Before(lo.Add(timeout)) || dl.After(hi.Add(timeout))) {
				t.Errorf("miss deadline = %v (set %v), want t0 + %v within [%v, %v]", dl, ok, timeout, lo.Add(timeout), hi.Add(timeout))
			}
			if timeout < 0 && ok {
				t.Errorf("deadline %v set with the deadline disabled", dl)
			}
			for i, ctx := range kept {
				if err := ctx.Err(); !errors.Is(err, context.Canceled) {
					t.Errorf("request %d: context kept past ServeHTTP reads %v, want context.Canceled", i, err)
				}
				select {
				case <-ctx.Done():
				default:
					t.Errorf("request %d: Done not closed after ServeHTTP", i)
				}
				if id, _ := ctx.Value(ctxKeyRequestID).(string); id == "" {
					t.Errorf("request %d: request ID unreadable after ServeHTTP", i)
				}
			}
		})
	}
}

// TestRequestCtxConcurrentEnd: goroutines racing to arm and wait on a
// request context while the request ends all wake, and all read it
// cancelled, whichever side won the race.
func TestRequestCtxConcurrentEnd(t *testing.T) {
	for i := 0; i < 200; i++ {
		rc := &requestCtx{parent: context.Background(), id: "req-1", deadline: time.Now().Add(time.Hour)}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-rc.Done()
				if err := rc.Err(); !errors.Is(err, context.Canceled) {
					t.Errorf("woken with Err %v, want context.Canceled", err)
				}
			}()
		}
		rc.end()
		wg.Wait()
	}
}

// TestQueryMissStopsAtDeadline: a miss still runs under the request
// deadline. A diverging caller program answers 200, truncated at the
// deadline, and is not cached, so asking again misses again.
func TestQueryMissStopsAtDeadline(t *testing.T) {
	g, _ := pg.Figure2()
	// More rounds than the chase runs before the deadline stops it.
	srv := httptest.NewServer(NewServerWith(g, Config{Timeout: 100 * time.Millisecond, MaxRounds: 1_000_000}).Handler())
	defer srv.Close()
	body := fmt.Sprintf(`{"goal": "p(1)", "program": %q}`, divergingProgram)
	for i := 0; i < 2; i++ {
		start := time.Now()
		resp, out := postJSON(t, srv.URL+"/v1/query", body)
		elapsed := time.Since(start)
		if resp.StatusCode != 200 || out["truncated"] != true || out["limit"] != "deadline" {
			t.Fatalf("ask %d: status %d, body %v, want 200 truncated at the deadline", i, resp.StatusCode, out)
		}
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("ask %d: X-Cache %q, want miss (a truncated answer is never cached)", i, got)
		}
		if elapsed > 5*time.Second {
			t.Errorf("ask %d took %v, the deadline did not stop the chase", i, elapsed)
		}
	}
}

// FuzzQueryParam: readQuery, given a route that declares name, reads any
// query string as url.ParseQuery does: the value it reads is
// url.ParseQuery(raw).Get(name), and it refuses exactly the strings
// ParseQuery reports an error for (and whose bad pairs r.URL.Query() drops),
// those naming anything but name, and those giving name twice.
func FuzzQueryParam(f *testing.F) {
	for _, seed := range []struct{ raw, name string }{
		{"node=1&node=2", "node"},
		{"node=%31", "node"},
		{"node=1;x=2", "node"},
		{"a+b=1&node=3", "node"},
		{"a+b=1&node=3", "a b"},
		{"node=%zz&node=3", "node"},
		{"", "node"},
		{"node", "node"},
	} {
		f.Add(seed.raw, seed.name)
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		m, perr := url.ParseQuery(raw)
		refuse := perr != nil || len(m[name]) > 1
		for k := range m {
			refuse = refuse || k != name
		}
		var vals [maxParams]value
		err := readQuery(raw, []Param{{Name: name}}, &vals)
		if (err != nil) != refuse {
			t.Fatalf("readQuery(%q) declaring %q: err %v; url.ParseQuery: %v, err %v", raw, name, err, m, perr)
		}
		if err == nil && (vals[0].set != m.Has(name) || vals[0].raw != m.Get(name)) {
			t.Errorf("readQuery(%q) read %q = %+v, url.ParseQuery says %q", raw, name, vals[0], m.Get(name))
		}
	})
}
