// Package reasonapi exposes the reasoning services of Vada-Link over HTTP —
// the "reasoning API" through which enterprise applications interact with
// the knowledge graph in the Section 5 architecture.
//
// Endpoints (all JSON):
//
//	GET  /v1/stats                      — graph profile (§2 statistics)
//	GET  /v1/control?node=ID            — companies controlled by a node
//	GET  /v1/control/pairs              — all control pairs
//	GET  /v1/closelinks?t=0.2           — close-link pairs
//	GET  /v1/accumulated?from=ID&to=ID  — accumulated ownership Φ(from, to)
//	POST /v1/augment                    — run KG augmentation (family links)
//	POST /v1/reason                     — evaluate a Vadalog program (budgeted)
//	POST /v1/query                      — answer one goal atom demand-driven
//	POST /v1/whatif                     — counterfactual scenario over an overlay
//	GET  /v1/graph                      — the property graph as JSON
//	GET  /v1/explain?from=ID&to=ID      — derivation tree of a control decision
//	POST /v1/admin/snapshot             — force a durable snapshot (persistence)
//	GET  /v1/healthz                    — liveness probe (always 200)
//	GET  /v1/readyz                     — readiness probe (drain, WAL, replication)
//
// The server holds one graph, injected at construction; mutation happens
// only through /v1/augment, which returns 503 + Retry-After when a mutation
// is already in flight instead of queueing.
//
// The point endpoints (/v1/query, /v1/control, /v1/ubo, /v1/accumulated,
// /v1/explain, /v1/closelinks, /v1/control/pairs) answer through a
// byte-budgeted query-result cache: responses are stamped with the sequence
// number of the version they are exact for ("seq" in the body) plus an
// X-Cache: hit|miss header, and the IVM commit classifier decides which
// commits invalidate which entries — a commit evicts only the answers
// anchored inside its ownership reach, so write traffic elsewhere in the
// registry keeps hot point answers alive.
//
// There is one serving path in every mode: a store.Versioned chain of
// immutable versions. Every handler reads the current version, lock-free,
// and answers for its seq; /v1/augment runs on a copy-on-write transaction
// overlay while reads keep being served, then commits it as the next
// version — an in-flight augmentation never blocks a read, and a reader
// never observes a half-applied mutation. /v1/whatif layers a further
// private overlay on the read version, so counterfactuals touch neither the
// served graph nor the WAL. A standalone or static-leader server owns its
// chain; a follower or replica-group member serves its replication
// Follower's, on which frames publish once per drained burst.
//
// Every request runs under a wall-clock deadline (Config.Timeout) and the
// chase-backed endpoints under a resource Budget; when a limit trips, the
// response carries "truncated": true plus the tripped limit, so clients can
// tell a partial answer from a complete one. A panicking handler is
// converted into a JSON 500 with a request ID; the process survives.
package reasonapi

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/cluster"
	"vadalink/internal/core"
	"vadalink/internal/datalog"
	"vadalink/internal/embed"
	"vadalink/internal/faultinject"
	"vadalink/internal/graphstats"
	"vadalink/internal/ivm"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/relstore"
	"vadalink/internal/replication"
	"vadalink/internal/store"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

// DefaultTimeout is the per-request wall-clock budget when Config.Timeout
// is zero.
const DefaultTimeout = 30 * time.Second

// retryAfterSeconds is advertised in the Retry-After header (and the
// retryAfter field) of 503 responses.
const retryAfterSeconds = 5

// maxBodyBytes caps request bodies on the POST endpoints.
const maxBodyBytes = 1 << 20

// Config tunes the resource governance of the reasoning API.
type Config struct {
	// Timeout is the per-request wall-clock deadline. 0 means
	// DefaultTimeout; a negative value disables the deadline.
	Timeout time.Duration

	// Budget bounds every chase evaluation a request triggers (derived
	// facts, delta queue). The zero Budget imposes no fact limits — the
	// deadline is then the only guard.
	Budget datalog.Budget

	// MaxRounds caps the engine's semi-naive rounds per evaluation;
	// 0 keeps the engine default.
	MaxRounds int

	// QueryCacheBytes bounds the query-result cache behind the point
	// endpoints (/v1/query and the goal forms of the reasoning reads).
	// 0 means qcache.DefaultMaxBytes (64 MiB); negative disables the cache
	// entirely — every point query then recomputes.
	QueryCacheBytes int64

	// Pprof mounts net/http/pprof under /debug/pprof/ — opt-in, since the
	// profiling endpoints expose internals and cost CPU while sampling.
	Pprof bool

	// Logger receives one structured access-log record per request
	// (method, path, status, duration, request ID). nil disables access
	// logging.
	Logger *slog.Logger

	// Persist is the durable store backing the graph, when crash-safe
	// persistence is on. The server then syncs the WAL before acknowledging
	// a mutation (/v1/augment), serves POST /v1/admin/snapshot, and reports
	// recovery and persistence state in /v1/metrics. nil keeps the graph
	// memory-only.
	Persist *persist.Store

	// Follower puts the server in read-only replica mode: reads are served
	// from the follower's version chain (with replication lag and staleness
	// headers), writes are rejected with a typed redirect-to-leader error,
	// and reads staler than MaxStaleness get 503 + Retry-After. The server
	// hangs its commit observer on the chain at construction; callers only
	// need to Run the follower.
	Follower *replication.Follower

	// LeaderAPI is the leader's API base address ("host:port" or URL)
	// advertised in not_leader error envelopes so clients can redirect
	// their writes. Only meaningful with Follower.
	LeaderAPI string

	// MaxStaleness bounds how stale a follower read may be: when the
	// follower has not observed parity with the leader for longer than
	// this, reads answer 503 with code "stale_replica". 0 means 5s;
	// negative serves reads regardless of staleness. Only meaningful with
	// Follower.
	MaxStaleness time.Duration

	// Leader is the replication leader serving this store's WAL, when this
	// process is the replication leader. Used only for /v1/metrics and
	// /v1/readyz reporting; the leader serves its stream on its own
	// listener.
	Leader *replication.Leader

	// Node puts the server in self-healing replica-group mode: the node's
	// role decides dynamically whether this process serves writes. While
	// the node leads, /v1/augment is accepted and acknowledged only after
	// Node.Commit makes the facts durable on a majority at the current
	// epoch; while it follows, writes get 421 not_leader carrying the
	// CURRENT leader's API address (learned from the stream handshake, not
	// from static configuration), and reads are served with the staleness
	// gating of follower mode. Node supersedes Follower/Leader: the server
	// wires the node's own follower and leader halves, and any explicitly
	// set Follower is ignored. LeaderAPI remains the static fallback hint
	// for 421 envelopes when the group has no known leader yet.
	Node *replication.Node
}

func (c Config) maxStaleness() time.Duration {
	if c.MaxStaleness == 0 {
		return 5 * time.Second
	}
	return c.MaxStaleness
}

func (c Config) timeout() time.Duration {
	if c.Timeout == 0 {
		return DefaultTimeout
	}
	return c.Timeout
}

// Server serves the reasoning API over a company graph.
type Server struct {
	cfg Config

	// vs is the served version chain: every read takes its current
	// version, /v1/augment commits through it, and its commit hook reports
	// every publication to committed.
	vs *store.Versioned
	// resetFloor is one above the newest seq the chain had published before
	// its last Reset; only committed, under the chain's commit lock, uses it.
	resetFloor uint64

	// qc caches marshaled point-query responses keyed by goal and stamped
	// with the sequence they were computed at; invalidated from the commit
	// stream by each commit's reach (ivm.ReachOf). nil when
	// Config.QueryCacheBytes is negative.
	qc *qcache.Cache

	// ivmM maintains the /v1/whatif baseline incrementally across commits:
	// committed queues each journal, the next what-if drains them.
	ivmM *ivm.Maintainer

	// augMu serializes /v1/augment; TryLock turns contention into 503
	// instead of an unbounded queue of writers.
	augMu sync.Mutex

	// activeMut counts in-flight graph mutations (augment runs, admin
	// snapshots). Serve's drain blocks on it so the graph is quiescent
	// before the caller tears down shared state.
	activeMut atomic.Int64

	reqSeq atomic.Uint64

	// draining flips when shutdown begins; /v1/readyz then reports unready
	// so load balancers stop sending traffic before the listener closes.
	draining atomic.Bool

	// metrics is the per-endpoint counter registry; metricsOnce builds it on
	// the first Handler call. lastChase is the statistics report of the most
	// recent request-triggered chase, served in /v1/metrics.
	metrics     *serverMetrics
	metricsOnce sync.Once
	lastChase   atomic.Pointer[datalog.ChaseStats]
}

// NewServer wraps a graph with the default governance (30s request
// deadline, unlimited facts).
func NewServer(g *pg.Graph) *Server { return NewServerWith(g, Config{}) }

// NewServerWith wraps a graph with explicit resource governance. g is
// ignored when cfg.Follower or cfg.Node is set: the server then serves the
// follower's version chain, across snapshot bootstraps too, and callers
// pass nil.
func NewServerWith(g *pg.Graph, cfg Config) *Server {
	if nd := cfg.Node; nd != nil {
		// Replica-group mode serves the graph of the node's tailing half —
		// whatever the node's current role — and reports the leader half's
		// stream metrics. The store is the node's own, so durability
		// plumbing stays consistent too.
		cfg.Follower = nd.Follower()
		if cfg.Leader == nil {
			cfg.Leader = nd.Leader()
		}
		if cfg.Persist == nil {
			cfg.Persist = nd.Store()
		}
	}
	s := &Server{cfg: cfg}
	s.ivmM = ivm.New(whatif.DefaultThreshold, s.engineOptions()...)
	if cfg.QueryCacheBytes >= 0 {
		s.qc = qcache.New(cfg.QueryCacheBytes)
	}
	if fl := cfg.Follower; fl != nil {
		s.vs = fl.Chain()
	} else {
		s.vs = store.NewVersioned(g)
	}
	s.vs.SetCommitHook(s.committed)
	return s
}

// committed is the single subscription to the commit stream: the chain calls
// it once per published version — an /v1/augment commit or a burst of
// replicated frames alike — under its commit lock, before next is visible.
// The cache drops what the journal can have moved (its reach, classified by
// the IVM rules the maintainer also runs: an answer anchored outside it
// keeps standing), and the maintainer queues the journal for the next
// what-if. The reach walk is the only part that grows with the graph, and
// only with the commit's own cone. A nil journal is a follower's snapshot
// bootstrap, a jump no journal describes: everything derived from the old
// graph goes, and since readers may still be answering from its versions —
// at any seq up to Current's, the newest it reached — nothing computed below
// the floor above them is kept from then on.
func (s *Server) committed(next *store.Version, journal []pg.Mutation) {
	if journal == nil {
		s.resetFloor = max(s.resetFloor, s.vs.Current().Seq()+1)
		if s.qc != nil {
			s.qc.Flush(s.resetFloor)
		}
		s.ivmM.Reset(s.resetFloor)
		return
	}
	if s.qc != nil {
		s.qc.OnCommit(next.Seq(), ivm.ReachOf(next.View(), journal))
	}
	s.ivmM.Observe(next.Seq(), journal...)
}

// engineOptions is the budgeted engine configuration for request-triggered
// chases. Stats collection is on so /v1/reason and /v1/metrics can report
// what the chase did. The aggregate-convergence step
// (whatif.DefaultMinAggDelta, 1e-4) rides along so every chase the server
// runs — baselines, what-ifs, augmentations, ad-hoc programs, incremental
// maintenance — shares one ε: mixing steps would make seeded rows and
// re-derived rows disagree, and on cyclic ownership the engine's
// exact-convergence default (1e-9) makes the aggregate fixpoint exponential
// in −log(ε), turning sub-second chases into minutes.
func (s *Server) engineOptions() []datalog.Option {
	return []datalog.Option{
		datalog.WithMinAggDelta(whatif.DefaultMinAggDelta),
		datalog.WithBudget(s.cfg.Budget),
		datalog.WithMaxRounds(s.cfg.MaxRounds),
		datalog.WithStats(),
	}
}

// recordChase publishes a chase report as the "last chase" of /v1/metrics.
func (s *Server) recordChase(st *datalog.ChaseStats) {
	if st != nil {
		s.lastChase.Store(st)
	}
}

// Handler returns the HTTP handler with all routes mounted, wrapped in the
// governance middleware (request IDs, metrics, access logs, panic recovery,
// per-request deadline).
func (s *Server) Handler() http.Handler {
	routes := []struct {
		pattern string
		h       http.HandlerFunc
	}{
		{"GET /v1/stats", s.handleStats},
		{"GET /v1/control", s.handleControl},
		{"GET /v1/control/pairs", s.handleControlPairs},
		{"GET /v1/closelinks", s.handleCloseLinks},
		{"GET /v1/accumulated", s.handleAccumulated},
		{"POST /v1/augment", s.handleAugment},
		{"POST /v1/whatif", s.handleWhatif},
		{"POST /v1/reason", s.handleReason},
		{"POST /v1/query", s.handleQuery},
		{"GET /v1/graph", s.handleGraph},
		{"GET /v1/explain", s.handleExplain},
		{"GET /v1/ubo", s.handleUBO},
		{"GET /v1/neighborhood", s.handleNeighborhood},
		{"GET /v1/metrics", s.handleMetrics},
		{"POST /v1/admin/snapshot", s.handleAdminSnapshot},
		{"GET /v1/healthz", s.handleHealthz},
		{"GET /v1/readyz", s.handleReadyz},
	}
	s.metricsOnce.Do(func() {
		names := make([]string, len(routes))
		for i, rt := range routes {
			names[i] = rt.pattern
		}
		s.metrics = newServerMetrics(names)
	})
	mux := http.NewServeMux()
	for _, rt := range routes {
		h, m := rt.h, s.metrics.routes[rt.pattern]
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			// Hand the governance middleware the matched route's counters
			// (the mux pattern is not exposed on Go 1.22).
			if sw, ok := w.(*statusWriter); ok {
				sw.m = m
			}
			h(w, r)
		})
	}
	if s.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.govern(mux)
}

// ctxKeyRequestID carries the request ID through the request context so the
// error envelope can echo it from any handler depth.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// requestIDFrom returns the request's ID assigned by the governance
// middleware ("" outside it).
func requestIDFrom(r *http.Request) string {
	id, _ := r.Context().Value(ctxKeyRequestID).(string)
	return id
}

// requestCtx is the context the governance middleware hands a request's
// handlers: it carries the request ID and the deadline t0 + Config.Timeout,
// but creates the runtime timer behind that deadline only when something
// asks. The first call to Done, Err, Deadline or Value (for any key but the
// request ID) arms it: it derives the real context with
// context.WithDeadline. Every way of waiting on a context — a select on
// Done, polling Err, deriving a child, context.AfterFunc — goes through one
// of those methods, so every chase, what-if and quorum wait runs under
// exactly the deadline an eagerly armed context would give it. A cache hit
// asks none of them and creates no timer.
//
// end runs when the request finishes. It cancels the armed context, or, if
// nothing armed it, pins it to an already-cancelled one, so a context kept
// past ServeHTTP reads as cancelled either way, as net/http's own does.
type requestCtx struct {
	parent   context.Context
	id       string
	deadline time.Time // zero when Config.Timeout disables the deadline

	once   sync.Once
	armed  context.Context
	cancel context.CancelFunc
}

// cancelledCtx is what a requestCtx nothing armed reads as after its
// request ended.
var cancelledCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

func (c *requestCtx) ctx() context.Context {
	c.once.Do(func() {
		if c.deadline.IsZero() {
			c.armed, c.cancel = context.WithCancel(c.parent)
		} else {
			c.armed, c.cancel = context.WithDeadline(c.parent, c.deadline)
		}
	})
	return c.armed
}

func (c *requestCtx) end() {
	c.once.Do(func() { c.armed = cancelledCtx })
	if c.cancel != nil {
		c.cancel()
	}
}

func (c *requestCtx) Deadline() (time.Time, bool) { return c.ctx().Deadline() }
func (c *requestCtx) Done() <-chan struct{}       { return c.ctx().Done() }
func (c *requestCtx) Err() error                  { return c.ctx().Err() }

func (c *requestCtx) Value(key any) any {
	if key == ctxKeyRequestID {
		return c.id
	}
	return c.ctx().Value(key)
}

// Response header values assigned by canonical key, skipping Header.Set's
// canonicalisation and its per-call slice. They are shared and never
// modified: Set replaces a value, and Add appends to a full slice, which
// copies it.
var (
	jsonContentType = []string{"application/json"}
	cacheHit        = []string{"hit"}
	cacheMiss       = []string{"miss"}
)

// statusWriter tracks the response status for metrics and logs, lets the
// panic recovery know whether it can still emit a JSON error, and rewrites
// the mux's plaintext 404/405 fallbacks into the JSON error envelope.
type statusWriter struct {
	http.ResponseWriter
	wrote   bool
	status  int
	m       *endpointMetrics // the matched route's counters, nil when no route matched
	reqID   string
	swallow bool // dropping the plaintext body of a rewritten 404/405
}

func (w *statusWriter) WriteHeader(code int) {
	if w.wrote {
		w.ResponseWriter.WriteHeader(code)
		return
	}
	w.wrote = true
	w.status = code
	// A plaintext 404/405 at this point is the ServeMux fallback (or a stray
	// http.Error): rewrite it into the JSON envelope, dropping its body.
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		w.swallow = true
		msg, errCode := "not found", "not_found"
		if code == http.StatusMethodNotAllowed {
			msg, errCode = "method not allowed", "method_not_allowed"
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Del("X-Content-Type-Options")
		w.ResponseWriter.WriteHeader(code)
		_ = json.NewEncoder(w.ResponseWriter).Encode(map[string]any{
			"error": msg, "code": errCode, "requestID": w.reqID,
		})
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.swallow {
		return len(b), nil
	}
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// governedHandler is what Handler returns: the governed mux plus the drain
// coordination surface Serve type-asserts for.
type governedHandler struct {
	http.Handler
	s *Server
}

// AwaitMutations blocks until no graph mutation (augment run, admin
// snapshot) is in flight, bounded by the server's request deadline plus
// grace. Serve calls it after Shutdown so a timed-out drain cannot abandon a
// handler that is still writing the graph while the caller tears down shared
// state.
func (g *governedHandler) AwaitMutations(ctx context.Context) error {
	return g.s.awaitMutations(ctx)
}

// StartDrain marks the server as draining: /v1/readyz flips to 503 so load
// balancers pull the node before in-flight requests are cut off. Serve calls
// it the moment its context is cancelled, before Shutdown.
func (g *governedHandler) StartDrain() { g.s.draining.Store(true) }

func (s *Server) awaitMutations(ctx context.Context) error {
	bound := s.cfg.timeout()
	if bound <= 0 {
		bound = DefaultTimeout
	}
	// In-flight mutations run under the request deadline, so they finish
	// within it; the grace covers post-deadline unwinding and WAL sync.
	deadline := time.After(bound + 2*time.Second)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.activeMut.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline:
			return fmt.Errorf("reasonapi: shutdown abandoned %d in-flight mutation(s)", s.activeMut.Load())
		case <-tick.C:
		}
	}
}

// govern wraps the mux with the observability and resource-governance
// middleware:
//
//   - every request gets an X-Request-ID, echoed in error envelopes;
//   - per-route counters and latency histograms feed GET /v1/metrics;
//   - Config.Logger receives one structured access-log record per request;
//   - a panic in a handler becomes a JSON 500 carrying the request ID — the
//     process survives;
//   - the request context carries the configured wall-clock deadline, which
//     the chase-backed handlers propagate into the engine (armed on first
//     use; see requestCtx).
func (s *Server) govern(next http.Handler) http.Handler {
	timeout := s.cfg.timeout()
	return &governedHandler{s: s, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		var buf [24]byte
		id := string(strconv.AppendUint(append(buf[:0], "req-"...), s.reqSeq.Add(1), 10))
		sw := &statusWriter{ResponseWriter: w, reqID: id}
		sw.Header()["X-Request-Id"] = []string{id}
		rc := &requestCtx{parent: r.Context(), id: id}
		if timeout > 0 {
			rc.deadline = t0.Add(timeout)
		}
		defer rc.end()
		defer func() {
			if rec := recover(); rec != nil {
				if lg := s.cfg.Logger; lg != nil {
					lg.LogAttrs(context.Background(), slog.LevelError, "recovered panic",
						slog.String("id", id),
						slog.String("method", r.Method),
						slog.String("path", r.URL.Path),
						slog.Any("panic", rec),
					)
				} else {
					log.Printf("reasonapi: %s %s %s: recovered panic: %v", id, r.Method, r.URL.Path, rec)
				}
				if !sw.wrote {
					writeErr(sw, r, http.StatusInternalServerError, "internal", "internal error: %v", rec)
				} else {
					sw.status = http.StatusInternalServerError
				}
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			elapsed := time.Since(t0)
			m := sw.m
			if m == nil {
				m = &s.metrics.other
			}
			m.observe(status, elapsed)
			if lg := s.cfg.Logger; lg != nil {
				lg.LogAttrs(context.Background(), slog.LevelInfo, "request",
					slog.String("id", id),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Int("status", status),
					slog.Duration("duration", elapsed),
				)
			}
		}()
		// One request copy carries both the ID and the deadline (the
		// deferred recovery above reads r when it runs, so it sees it too).
		r = r.WithContext(rc)
		faultinject.Fire(faultinject.SiteAPIHandler)
		if s.cfg.Follower != nil && s.followerGate(sw, r) {
			return
		}
		next.ServeHTTP(sw, r)
	})}
}

// handleAdminSnapshot forces a durable snapshot + WAL rotation:
// POST /v1/admin/snapshot. It takes the same exclusive turn as /v1/augment,
// so a snapshot never captures a half-applied augmentation.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request) {
	ps := s.cfg.Persist
	if ps == nil {
		writeErr(w, r, http.StatusNotFound, "not_found", "persistence is not configured on this server")
		return
	}
	if !s.augMu.TryLock() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeErr(w, r, http.StatusServiceUnavailable, "busy", "a mutation is in progress; retry later")
		return
	}
	defer s.augMu.Unlock()
	s.activeMut.Add(1)
	defer s.activeMut.Add(-1)
	var info persist.SnapshotInfo
	err := s.vs.Exclusive(func() (err error) {
		info, err = ps.Snapshot()
		return err
	})
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "persist_failed", "snapshot failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleMetrics serves the per-endpoint counters and the last chase report:
// GET /v1/metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.metrics.snapshot(s.lastChase.Load())
	ist := s.ivmM.Stats()
	m.Incremental = &ist
	if ps := s.cfg.Persist; ps != nil {
		rec, st := ps.Recovery(), ps.Stats()
		m.Recovery, m.Persistence = &rec, &st
	}
	if fl := s.cfg.Follower; fl != nil {
		st := fl.Status()
		m.Replication = &st
	}
	if ld := s.cfg.Leader; ld != nil {
		st := ld.Status()
		m.ReplicationLeader = &st
	}
	if nd := s.cfg.Node; nd != nil {
		st := nd.Status()
		m.ReplicaGroup = &st
	}
	if s.qc != nil {
		st := s.qc.Stats()
		m.Cache = &st
	}
	writeJSON(w, http.StatusOK, m)
}

// interrupted reports whether err is a tripped limit — chase budget, request
// deadline or cancellation — rather than a genuine evaluation failure.
func interrupted(err error) bool {
	var be *datalog.BudgetExceededError
	return errors.As(err, &be) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// truncMeta classifies an interruption error into the JSON metadata of a
// partial response: {"truncated": true, "limit": ..., "detail": ...}.
// It returns nil for nil errors (complete responses).
func truncMeta(err error) map[string]any {
	if err == nil {
		return nil
	}
	var be *datalog.BudgetExceededError
	limit := ""
	switch {
	case errors.As(err, &be):
		limit = string(be.Limit)
	case errors.Is(err, context.DeadlineExceeded):
		limit = string(datalog.LimitDeadline)
	case errors.Is(err, context.Canceled):
		limit = string(datalog.LimitCancelled)
	default:
		limit = "error"
	}
	return map[string]any{"truncated": true, "limit": limit, "detail": err.Error()}
}

// handleUBO lists the ultimate beneficial owners of a company:
// GET /v1/ubo?node=ID. The reverse question ("who controls this company?")
// is where demand transformation pays most: the goal control(X, node) binds
// the second argument, so only node's reverse ownership cone is derived
// instead of running the control fixpoint from every person in the graph.
func (s *Server) handleUBO(w http.ResponseWriter, r *http.Request) {
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	node, err := parseNode(v, r.URL.RawQuery, "node")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.servePoint(w, r, seq, pointKey("ubo", node), qcache.Anchored(nil, &node), func() (map[string]any, error) {
		type item struct {
			ID   pg.NodeID `json:"id"`
			Name any       `json:"name,omitempty"`
		}
		res, err := s.evalGoal(r.Context(), v, vadalog.ControlProgram, nil, controlGoal(varX, datalog.Int(int64(node))))
		if err != nil {
			return nil, err
		}
		out := []item{}
		for _, id := range bindingIDs(res.Answers, varX) {
			if n := v.Node(id); n != nil && n.Label == pg.LabelPerson {
				out = append(out, item{ID: id, Name: n.Props["name"]})
			}
		}
		return map[string]any{"node": node, "ultimateControllers": out, "mode": res.Mode}, res.RunErr
	})
}

// handleNeighborhood returns the ego network of a node as graph JSON:
// GET /v1/neighborhood?node=ID&hops=2.
func (s *Server) handleNeighborhood(w http.ResponseWriter, r *http.Request) {
	v := s.vs.Current().View()
	node, err := parseNode(v, r.URL.RawQuery, "node")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	hops := 2
	if raw := queryParam(r.URL.RawQuery, "hops"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 || v > 10 {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "bad hops %q (want 0–10)", raw)
			return
		}
		hops = v
	}
	sub, _ := pg.NeighborhoodOf(v, node, hops)
	w.Header()["Content-Type"] = jsonContentType
	_ = sub.WriteJSON(w)
}

// handleExplain returns the derivation tree of a control decision — the §5
// explainability property over HTTP: GET /v1/explain?from=ID&to=ID.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	from, err := parseNode(v, r.URL.RawQuery, "from")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	to, err := parseNode(v, r.URL.RawQuery, "to")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.servePoint(w, r, seq, pointKey("explain", from, to), qcache.Anchored(&from, &to), func() (map[string]any, error) {
		// The explained pair is a fully bound goal: demand derives only the
		// cone connecting from to to, and the provenance of that cone is all
		// the tree needs. StripDemandMarkers removes the rewrite's magic and
		// bridge bookkeeping so the "why" reads exactly like the full chase's.
		goal := controlGoal(datalog.Int(int64(from)), datalog.Int(int64(to)))
		res, err := s.evalGoal(r.Context(), v, vadalog.ControlProgram, nil, goal, datalog.WithProvenance())
		if err != nil {
			return nil, err
		}
		// On a budget trip the partial derivations remain readable: the tree
		// is reported if the pair was already derived, marked truncated
		// otherwise.
		var tree []string
		f := datalog.Fact{Pred: "control", Args: []any{int64(from), int64(to)}}
		if res.Engine.Has(f) {
			tree = datalog.StripDemandMarkers(res.Engine.ExplainTree(f, 0))
		}
		return map[string]any{
			"from":     from,
			"to":       to,
			"controls": tree != nil,
			"why":      tree,
			"mode":     res.Mode,
		}, res.RunErr
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr emits the API's uniform JSON error envelope (see DESIGN.md §"HTTP
// error envelope"): {"error", "code", "requestID"}, plus "retryAfter"
// (seconds) when a Retry-After header is set on the response.
func writeErr(w http.ResponseWriter, r *http.Request, status int, code string, format string, args ...any) {
	body := map[string]any{
		"error":     fmt.Sprintf(format, args...),
		"code":      code,
		"requestID": requestIDFrom(r),
	}
	if ra := w.Header().Get("Retry-After"); ra != "" {
		if n, err := strconv.Atoi(ra); err == nil {
			body["retryAfter"] = n
		}
	}
	writeJSON(w, status, body)
}

// writeInterrupted answers a run that tripped a limit (see interrupted) with
// 503: the error envelope, a Retry-After header, and the limit that tripped
// (truncMeta). what names the run in the message.
func writeInterrupted(w http.ResponseWriter, r *http.Request, what string, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	resp := map[string]any{
		"error":      fmt.Sprintf("%s interrupted: %v", what, err),
		"code":       "interrupted",
		"requestID":  requestIDFrom(r),
		"retryAfter": retryAfterSeconds,
	}
	for k, v := range truncMeta(err) {
		resp[k] = v
	}
	writeJSON(w, http.StatusServiceUnavailable, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	v := s.vs.Current().View()
	writeJSON(w, http.StatusOK, graphstats.Compute(v))
}

// queryParam returns the first value of name in the raw query string, with
// the semantics of url.ParseQuery(raw).Get(name): pairs holding a ';' and
// pairs that fail to unescape are skipped. It builds no url.Values map, and
// url.QueryUnescape returns its input as-is when there is no '%' or '+' to
// decode.
func queryParam(raw, name string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != name {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// pointKey is the cache key of a point answer: its kind, then each node ID,
// colon-separated ("control:4:17").
func pointKey(kind string, ids ...pg.NodeID) string {
	b := make([]byte, 0, 64)
	b = append(b, kind...)
	for _, id := range ids {
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// parseNode reads the node ID of one query parameter and checks that the
// node exists in v.
func parseNode(v pg.View, query, param string) (pg.NodeID, error) {
	raw := queryParam(query, param)
	if raw == "" {
		return 0, fmt.Errorf("missing %q parameter", param)
	}
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %q parameter: %v", param, err)
	}
	if v.Node(pg.NodeID(id)) == nil {
		return 0, fmt.Errorf("unknown node %d", id)
	}
	return pg.NodeID(id), nil
}

// handleControl answers the control question in two demand-driven forms:
// GET /v1/control?node=ID lists the companies the node controls (forward
// demand), GET /v1/control?node=ID&target=ID answers the single pair as a
// boolean (fully bound demand — only the derivation cone connecting the two
// is explored). Both route through the goal engine and the result cache.
func (s *Server) handleControl(w http.ResponseWriter, r *http.Request) {
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	query := r.URL.RawQuery
	node, err := parseNode(v, query, "node")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	if queryParam(query, "target") != "" {
		target, err := parseNode(v, query, "target")
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		s.servePoint(w, r, seq, pointKey("control", node, target), qcache.Anchored(&node, &target), func() (map[string]any, error) {
			goal := controlGoal(datalog.Int(int64(node)), datalog.Int(int64(target)))
			res, err := s.evalGoal(r.Context(), v, vadalog.ControlProgram, nil, goal)
			if err != nil {
				return nil, err
			}
			return map[string]any{"node": node, "target": target, "controls": len(res.Answers) > 0, "mode": res.Mode}, res.RunErr
		})
		return
	}
	s.servePoint(w, r, seq, pointKey("control", node), qcache.Anchored(&node, nil), func() (map[string]any, error) {
		res, err := s.evalGoal(r.Context(), v, vadalog.ControlProgram, nil, controlGoal(datalog.Int(int64(node)), varY))
		if err != nil {
			return nil, err
		}
		type item struct {
			ID   pg.NodeID `json:"id"`
			Name any       `json:"name,omitempty"`
		}
		controlled := bindingIDs(res.Answers, varY)
		out := make([]item, 0, len(controlled))
		for _, id := range controlled {
			out = append(out, item{ID: id, Name: v.Node(id).Props["name"]})
		}
		return map[string]any{"node": node, "controls": out, "mode": res.Mode}, res.RunErr
	})
}

// handleControlPairs enumerates every control pair: GET /v1/control/pairs.
// It answers the unbound goal control(X, Y) through the same goal engine as
// every other control read, in the {"pairs": [{"from", "to"}, ...]}
// envelope sorted by (from, to); see API.md.
func (s *Server) handleControlPairs(w http.ResponseWriter, r *http.Request) {
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	s.servePoint(w, r, seq, "control/pairs", qcache.ClassDerived, func() (map[string]any, error) {
		res, err := s.evalGoal(r.Context(), v, vadalog.ControlProgram, nil, controlGoal(varX, varY))
		if err != nil {
			return nil, err
		}
		type pair struct {
			From pg.NodeID `json:"from"`
			To   pg.NodeID `json:"to"`
		}
		pairs := make([]pair, 0, len(res.Answers))
		for _, b := range res.Answers {
			from, ok1 := relstore.NodeID(b[varX])
			to, ok2 := relstore.NodeID(b[varY])
			if ok1 && ok2 {
				pairs = append(pairs, pair{from, to})
			}
		}
		slices.SortFunc(pairs, func(a, b pair) int {
			return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
		})
		return map[string]any{"pairs": pairs}, res.RunErr
	})
}

// handleCloseLinks lists the close links at threshold t: GET
// /v1/closelinks?t=. It reads the baseline of the pinned version the
// maintainer keeps (Algorithm 6's fixpoint, DESIGN.md §5), the state
// /v1/whatif reads, and names each pair by its first witness.
func (s *Server) handleCloseLinks(w http.ResponseWriter, r *http.Request) {
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	t := whatif.DefaultThreshold
	if raw := queryParam(r.URL.RawQuery, "t"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v <= 0 || v > 1 {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "bad threshold %q", raw)
			return
		}
		t = v
	}
	err := s.answerPoint(w, seq, "closelinks:"+strconv.FormatFloat(t, 'g', -1, 64), qcache.ClassDerived, func() (map[string]any, error) {
		bl, err := s.ivmM.BaselineAt(r.Context(), v, seq, t)
		if err != nil {
			return nil, err
		}
		return map[string]any{"threshold": t, "links": bl.Links(v)}, nil
	})
	switch {
	case err == nil:
	case interrupted(err):
		// A baseline is exact or absent: there is no partial list to serve.
		writeInterrupted(w, r, "close-link baseline", err)
	default:
		writeErr(w, r, http.StatusInternalServerError, "internal", "query failed: %v", err)
	}
}

// handleAccumulated answers Φ(from, to): GET /v1/accumulated?from=&to=. It
// asks the goal accown(from, to, S) of the close-link program through the
// goal engine, as POST /v1/query does; phi is 0 when there is no row.
func (s *Server) handleAccumulated(w http.ResponseWriter, r *http.Request) {
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	from, err := parseNode(v, r.URL.RawQuery, "from")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	to, err := parseNode(v, r.URL.RawQuery, "to")
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
		return
	}
	s.servePoint(w, r, seq, pointKey("accumulated", from, to), qcache.Anchored(&from, &to), func() (map[string]any, error) {
		goal := datalog.Atom{Pred: "accown", Terms: []datalog.Term{datalog.Int(int64(from)), datalog.Int(int64(to)), varS}}
		res, err := s.evalGoal(r.Context(), v, vadalog.CloseLinkProgram, nil, goal)
		if err != nil {
			return nil, err
		}
		phi := 0.0
		for _, b := range res.Answers {
			phi, _ = b[varS].(float64)
		}
		return map[string]any{"from": from, "to": to, "phi": phi}, res.RunErr
	})
}

// augmentRequest configures a POST /v1/augment run.
type augmentRequest struct {
	// Classes: any of "family", "control", "closelink". Empty means family.
	Classes []string `json:"classes"`
	// Clusters is the first-level k; 0 disables embedding clustering.
	Clusters int `json:"clusters"`
	// NoCluster forces the exhaustive single-block mode.
	NoCluster bool `json:"noCluster"`
}

func (s *Server) handleAugment(w http.ResponseWriter, r *http.Request) {
	var req augmentRequest
	if r.Body != nil {
		body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
		if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
			return
		}
	}
	if len(req.Classes) == 0 {
		req.Classes = []string{"family"}
	}
	for _, c := range req.Classes {
		if c != "family" && c != "control" && c != "closelink" {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "unknown link class %q", c)
			return
		}
	}
	// One mutation at a time: a second augment gets an immediate 503 with
	// Retry-After instead of queueing behind the first.
	if !s.augMu.TryLock() {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		writeErr(w, r, http.StatusServiceUnavailable, "busy", "augmentation already in progress; retry later")
		return
	}
	defer s.augMu.Unlock()
	s.activeMut.Add(1)
	// The run happens on a copy-on-write overlay: readers keep being served
	// the untouched graph for as long as it takes. Its journal is committed
	// even after an interrupted run, because completed rounds are monotone
	// and must persist. In replica-group mode a replicated frame can land
	// under the run only when the node lost the leader role; the commit
	// then conflicts and is answered as a stale epoch.
	txn := s.vs.Begin()
	res, err := s.augment(r.Context(), txn.Overlay(), req)
	if _, cerr := txn.Commit(); cerr != nil {
		s.activeMut.Add(-1)
		s.writeCommitErr(w, r, cerr)
		return
	}
	// Durability before acknowledgement: whatever the run added (even the
	// completed rounds of an interrupted run) must be in the WAL and synced
	// before any response promises it exists. In replica-group mode the bar
	// is higher — Node.Commit requires the facts fsynced on a majority at
	// the current epoch, so an acknowledged augmentation survives any
	// single-node failover.
	var syncErr error
	if nd := s.cfg.Node; nd != nil {
		syncErr = nd.Commit(r.Context())
	} else if s.cfg.Persist != nil {
		syncErr = s.cfg.Persist.Sync()
	}
	s.activeMut.Add(-1)
	if syncErr != nil {
		s.writeCommitErr(w, r, syncErr)
		return
	}
	if err != nil {
		if interrupted(err) {
			// Completed rounds persist (augmentation is monotone); a retry
			// resumes from where this run stopped.
			writeInterrupted(w, r, "augmentation", err)
			return
		}
		writeErr(w, r, http.StatusInternalServerError, "internal", "augmentation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"added":       res.Added,
		"rounds":      res.Rounds,
		"comparisons": res.Comparisons,
		"blocks":      res.Blocks,
		// The augmentation loop's run report (its cost breakdown plays the
		// role the chase stats play for /v1/reason).
		"stats": map[string]any{
			"rounds":      res.Rounds,
			"comparisons": res.Comparisons,
			"blocks":      res.Blocks,
			"embedMillis": res.EmbedTime.Milliseconds(),
			"matchMillis": res.MatchTime.Milliseconds(),
		},
	})
}

// augment runs the augmentation loop req asks for on o. The control class
// proposes the answers of the goal control(X, Y), as /v1/control/pairs does;
// the close-link class proposes from a baseline of o, so only it chases Φ.
// Both are derived under ctx before the loop runs: augmentation adds no
// shareholding edge, so they stay exact for every round.
func (s *Server) augment(ctx context.Context, o *pg.Overlay, req augmentRequest) (*core.Result, error) {
	cfg := core.Config{NoCluster: req.NoCluster, FirstLevelK: req.Clusters, Embed: embed.Config{Seed: 1}}
	if !req.NoCluster {
		cfg.Blocker = cluster.PersonBlocker{}
	}
	for _, c := range req.Classes {
		switch c {
		case "family":
			cfg.Candidates = append(cfg.Candidates, &core.FamilyCandidate{})
		case "control":
			res, err := s.evalGoal(ctx, o, vadalog.ControlProgram, nil, controlGoal(varX, varY))
			if err == nil {
				err = res.RunErr
			}
			if err != nil {
				return nil, err
			}
			control := map[pg.NodeID][]pg.NodeID{}
			for _, b := range res.Answers {
				x, _ := relstore.NodeID(b[varX])
				y, _ := relstore.NodeID(b[varY])
				control[x] = append(control[x], y)
			}
			cfg.Candidates = append(cfg.Candidates, core.ControlCandidate{Control: control})
		default:
			bl, err := whatif.ComputeBaseline(ctx, o, whatif.DefaultThreshold, s.engineOptions()...)
			if err != nil {
				return nil, err
			}
			cfg.Candidates = append(cfg.Candidates, core.CloseLinkCandidate{Baseline: bl})
		}
	}
	aug, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return aug.RunContext(ctx, o)
}

// whatifRequest describes a POST /v1/whatif counterfactual: a batch of
// hypothetical graph operations plus the close-link threshold to reason at.
type whatifRequest struct {
	// Ops are applied in order to a private overlay; see whatif.Op for the
	// vocabulary (addNode, addShare, setShare, removeEdge, removeNode).
	Ops []whatif.Op `json:"ops"`
	// Threshold is the close-link threshold; 0 means the paper's 20%.
	Threshold float64 `json:"threshold"`
}

// handleWhatif evaluates a counterfactual scenario: POST /v1/whatif. The ops
// apply to a copy-on-write overlay on the pinned read view, the chase runs
// over the composite, and the response reports how control and close-link
// would change. The published graph and the WAL are never touched — a
// what-if burst is invisible to every other client.
func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request) {
	var req whatifRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "a what-if scenario needs at least one op")
		return
	}
	threshold := req.Threshold
	if threshold == 0 {
		threshold = whatif.DefaultThreshold
	}
	if threshold < 0 || threshold > 1 {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "threshold must be in (0, 1], got %v", req.Threshold)
		return
	}

	// One version serves the whole chase: the baseline must describe exactly
	// the view the scenario is evaluated on. The maintainer answers from its
	// incrementally maintained state where it can and falls back to a full
	// chase where it cannot, so steady-state what-ifs skip the re-chase every
	// out-of-band write would otherwise force.
	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()
	var res *whatif.Result
	bl, err := s.ivmM.BaselineAt(r.Context(), v, seq, threshold)
	if err == nil {
		res, err = whatif.Evaluate(r.Context(), v, bl, req.Ops,
			whatif.Options{Threshold: threshold, Engine: s.engineOptions()})
	}
	if err != nil {
		var oe *whatif.OpError
		switch {
		case errors.As(err, &oe):
			writeErr(w, r, http.StatusBadRequest, "bad_op", "op %d: %v", oe.Index, oe.Err)
		case interrupted(err):
			// The counterfactual chase tripped a limit: nothing partial is
			// worth returning (a truncated diff would lie), so report 503
			// like an interrupted augment.
			writeInterrupted(w, r, "what-if", err)
		default:
			writeErr(w, r, http.StatusInternalServerError, "internal", "what-if failed: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"version":         seq,
		"threshold":       threshold,
		"created":         res.Created,
		"delta":           res.Delta,
		"affectedSources": res.AffectedSources,
		"control": map[string]any{
			"gained": pairObjects(res.ControlGained),
			"lost":   pairObjects(res.ControlLost),
		},
		"closeLinks": map[string]any{
			"gained": pairObjects(res.CloseLinkGained),
			"lost":   pairObjects(res.CloseLinkLost),
		},
	})
}

// pairObjects renders node pairs as {"x": id, "y": id} objects, never null.
func pairObjects(ps []whatif.Pair) []map[string]pg.NodeID {
	out := make([]map[string]pg.NodeID, 0, len(ps))
	for _, p := range ps {
		out = append(out, map[string]pg.NodeID{"x": p[0], "y": p[1]})
	}
	return out
}

// reasonRequest configures a POST /v1/reason evaluation: a Vadalog program
// evaluated over the company graph's relational facts, under the server's
// budget plus any tighter per-request limits.
type reasonRequest struct {
	// Program is the rule text (Vadalog subset syntax; see internal/datalog).
	Program string `json:"program"`
	// Predicates selects which derived predicates to return. Empty means
	// every head predicate of the program.
	Predicates []string `json:"predicates"`
	// MaxFacts tightens the server's fact budget for this request only
	// (it can lower the cap, never raise it).
	MaxFacts int `json:"maxFacts"`
	// MaxFactsPerPredicate caps the facts returned per predicate in the
	// response. 0 means 10000.
	MaxFactsPerPredicate int `json:"maxFactsPerPredicate"`
}

// handleReason evaluates an ad-hoc program. A non-terminating program does
// not hang the server: the chase stops at the request deadline (or fact
// budget) and the response reports the partial derivation with
// "truncated": true and the tripped limit.
func (s *Server) handleReason(w http.ResponseWriter, r *http.Request) {
	var req reasonRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	if req.Program == "" {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "missing program")
		return
	}
	prog, err := datalog.Parse(req.Program)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "parsing program: %v", err)
		return
	}
	opts := s.engineOptions()
	b := s.cfg.Budget
	if req.MaxFacts > 0 && (b.MaxFacts == 0 || req.MaxFacts < b.MaxFacts) {
		b.MaxFacts = req.MaxFacts
		opts = append(opts, datalog.WithBudget(b))
	}
	engine, err := datalog.NewEngine(prog, opts...)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "preparing engine: %v", err)
		return
	}

	// Extract the relational image of one pinned version, then chase it; the
	// answer is stamped with that version's seq.
	cur := s.vs.Current()
	engine.AssertAll(relstore.CompanyGraphFacts(cur.View()))

	runErr := engine.RunContext(r.Context())
	s.recordChase(engine.Stats())
	if runErr != nil && !interrupted(runErr) {
		// A genuine evaluation error (bad builtin, type error), not a
		// budget trip.
		writeErr(w, r, http.StatusUnprocessableEntity, "unprocessable", "evaluating program: %v", runErr)
		return
	}

	preds := req.Predicates
	if len(preds) == 0 {
		seen := map[string]bool{}
		for _, rule := range prog.Rules {
			for _, h := range rule.Head {
				if !seen[h.Pred] {
					seen[h.Pred] = true
					preds = append(preds, h.Pred)
				}
			}
		}
	}
	perPred := req.MaxFactsPerPredicate
	if perPred <= 0 {
		perPred = 10000
	}
	factsOut := make(map[string][][]any, len(preds))
	for _, p := range preds {
		fs := engine.FactsN(p, perPred)
		rows := make([][]any, 0, len(fs))
		for _, f := range fs {
			row := make([]any, len(f.Args))
			for i, a := range f.Args {
				row[i] = jsonValue(a)
			}
			rows = append(rows, row)
		}
		factsOut[p] = rows
	}
	resp := map[string]any{
		"facts":   factsOut,
		"rounds":  engine.Rounds(),
		"derived": engine.DerivedCount(),
		"seq":     cur.Seq(),
	}
	if st := engine.Stats(); st != nil {
		resp["stats"] = st
	}
	for k, v := range truncMeta(runErr) {
		resp[k] = v
	}
	writeJSON(w, http.StatusOK, resp)
}

// jsonValue converts a datalog term value into a JSON-encodable value;
// labeled nulls and Skolem terms render as their canonical strings.
func jsonValue(v any) any {
	switch x := v.(type) {
	case string, float64, bool, int64, int:
		return x
	case fmt.Stringer:
		return x.String()
	default:
		return fmt.Sprintf("%v", x)
	}
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	v := s.vs.Current().View()
	w.Header()["Content-Type"] = jsonContentType
	_ = pg.WriteJSONView(v, w)
}
