// Package reasonapi exposes the reasoning services of Vada-Link over HTTP —
// the "reasoning API" through which enterprise applications interact with
// the knowledge graph in the Section 5 architecture.
//
// Every route, with the query parameters it reads, is one entry of the route
// table (routes.go); API.md documents each (all JSON).
//
// The server holds one graph, injected at construction; mutation happens
// only through /v1/augment, which returns 503 + Retry-After when a mutation
// is already in flight instead of queueing.
//
// The point reads (the goal query, control, ubo, accumulated ownership,
// explanations, close links and the control pairs) answer through a
// byte-budgeted query-result cache: responses are stamped with the sequence
// number of the version they are exact for ("seq" in the body) plus an
// X-Cache: hit|miss header, and the IVM commit classifier decides which
// commits invalidate which entries — a commit evicts only the answers
// anchored inside its ownership reach (ivm.ReachOf), so write traffic
// elsewhere in the registry keeps hot point answers alive.
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
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
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
	// 0 keeps the engine default, datalog.DefaultMaxRounds.
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

func (c Config) maxStaleness() time.Duration { return cmp.Or(c.MaxStaleness, 5*time.Second) }

func (c Config) timeout() time.Duration { return cmp.Or(c.Timeout, DefaultTimeout) }

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

	// metrics is the per-route counter registry. lastChase is the
	// statistics report of the most recent request-triggered chase, served
	// with the metrics.
	metrics   *serverMetrics
	lastChase atomic.Pointer[datalog.ChaseStats]
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
	s := &Server{cfg: cfg, metrics: newServerMetrics()}
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
// what the chase did. The aggregate step is the engine's default
// (datalog.DefaultMinAggDelta), the one every chase runs at.
func (s *Server) engineOptions() []datalog.Option {
	return []datalog.Option{
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

// Handler returns the HTTP handler with every route of the table mounted,
// each in serveRoute, wrapped in the governance middleware (request IDs,
// metrics, access logs, panic recovery, per-request deadline).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i := range routes {
		mux.HandleFunc(routes[i].pattern, s.serveRoute(&routes[i]))
	}
	// What no route matches gets the error envelope: 405 on a path a route
	// serves under another method, 404 anywhere else.
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		status, code := http.StatusNotFound, "not_found"
		for _, rt := range routes {
			if _, path, _ := strings.Cut(rt.pattern, " "); path == r.URL.Path {
				status, code = http.StatusMethodNotAllowed, "method_not_allowed"
			}
		}
		writeErr(w, r, status, code, "%s", strings.ReplaceAll(code, "_", " "))
	})
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

// statusWriter tracks the response status for metrics and logs (200 until
// the handler writes another), and lets the panic recovery know whether it
// can still emit a JSON error.
type statusWriter struct {
	http.ResponseWriter
	wrote  bool
	status int
	m      *endpointMetrics // the matched route's counters, the catch-all's until a route matches
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote, w.status = true, code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
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
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK, m: &s.metrics.other}
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
			elapsed := time.Since(t0)
			sw.m.observe(sw.status, elapsed)
			if lg := s.cfg.Logger; lg != nil {
				lg.LogAttrs(context.Background(), slog.LevelInfo, "request",
					slog.String("id", id),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.Int("status", sw.status),
					slog.Duration("duration", elapsed),
				)
			}
		}()
		// One request copy carries both the ID and the deadline (the
		// deferred recovery above reads r when it runs, so it sees it too).
		r = r.WithContext(rc)
		faultinject.Fire(faultinject.SiteAPIHandler)
		next.ServeHTTP(sw, r)
	})}
}

// handleAdminSnapshot forces a durable snapshot + WAL rotation. It takes the
// same exclusive turn as an augmentation, so a snapshot never captures a
// half-applied one.
func (s *Server) handleAdminSnapshot(w http.ResponseWriter, r *http.Request, _ args) {
	ps := s.cfg.Persist
	if _, ok := s.decodeBody(w, r, &struct{}{}); !ok { // it reads no field
		return
	} else if ps == nil {
		writeErr(w, r, http.StatusNotFound, "not_found", "persistence is not configured on this server")
		return
	}
	if !s.augMu.TryLock() {
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

// handleMetrics serves the per-endpoint counters and the last chase report.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ args) {
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

// limitOf names the limit err tripped — a chase budget, the request
// deadline or cancellation — or is "" for a genuine evaluation failure.
func limitOf(err error) string {
	var be *datalog.BudgetExceededError
	switch {
	case errors.As(err, &be):
		return string(be.Limit)
	case errors.Is(err, context.DeadlineExceeded):
		return string(datalog.LimitDeadline)
	case errors.Is(err, context.Canceled):
		return string(datalog.LimitCancelled)
	}
	return ""
}

// interrupted reports whether err is a tripped limit (limitOf).
func interrupted(err error) bool { return limitOf(err) != "" }

// truncMeta is the JSON metadata of a partial response, {"truncated": true,
// "limit": ..., "detail": ...}, or nil for a nil error (a complete one).
func truncMeta(err error) map[string]any {
	if err == nil {
		return nil
	}
	return map[string]any{"truncated": true, "limit": cmp.Or(limitOf(err), "error"), "detail": err.Error()}
}

// handleUBO lists the ultimate beneficial owners of a company. The reverse
// question ("who controls this company?") is where demand transformation
// pays most: the goal control(X, node) binds the second argument, so only
// node's reverse ownership cone is derived instead of running the control
// fixpoint from every person in the graph.
func (s *Server) handleUBO(w http.ResponseWriter, r *http.Request, a args) {
	v, seq, node := a.cur.View(), a.cur.Seq(), a.vals[0].id
	s.servePoint(w, r, seq, pointKey("ubo", node), qcache.Anchored(nil, &node), func() (map[string]any, error) {
		res, err := s.evalGoal(r.Context(), v, vadalog.Control, controlGoal(varX, datalog.Int(int64(node))))
		if err != nil {
			return nil, err
		}
		out := named(v, bindingIDs(res.Answers, varX), pg.LabelPerson)
		return map[string]any{"node": node, "ultimateControllers": out, "mode": res.Mode}, res.RunErr
	})
}

// handleNeighborhood returns the ego network of a node as graph JSON.
func (s *Server) handleNeighborhood(w http.ResponseWriter, r *http.Request, a args) {
	sub, _ := pg.NeighborhoodOf(a.cur.View(), a.vals[0].id, int(a.vals[1].num))
	writeGraph(w, sub, a.cur.Seq())
}

// handleExplain returns the derivation tree of a control decision — the §5
// explainability property over HTTP.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, a args) {
	v, seq, from, to := a.cur.View(), a.cur.Seq(), a.vals[0].id, a.vals[1].id
	s.servePoint(w, r, seq, pointKey("explain", from, to), qcache.Anchored(&from, &to), func() (map[string]any, error) {
		// The explained pair is a fully bound goal: demand derives only the
		// cone connecting from to to, and the provenance of that cone is all
		// the tree needs. StripDemandMarkers removes the rewrite's magic and
		// import bookkeeping so the "why" reads exactly like the full chase's.
		goal := controlGoal(datalog.Int(int64(from)), datalog.Int(int64(to)))
		res, err := s.evalGoal(r.Context(), v, vadalog.Control, goal, datalog.WithProvenance())
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
// error envelope"): {"error", "code", "requestID"}. A 503 also sets the
// Retry-After header and mirrors it as "retryAfter" (seconds).
func writeErr(w http.ResponseWriter, r *http.Request, status int, code string, format string, args ...any) {
	writeEnvelope(w, r, status, code, fmt.Sprintf(format, args...), nil)
}

// writeEnvelope is writeErr with the message given and extra top-level
// fields.
func writeEnvelope(w http.ResponseWriter, r *http.Request, status int, code, msg string, extra map[string]any) {
	body := map[string]any{"error": msg, "code": code, "requestID": requestIDFrom(r)}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		body["retryAfter"] = retryAfterSeconds
	}
	maps.Copy(body, extra)
	writeJSON(w, status, body)
}

// writeFailed answers a run that failed and has nothing partial to serve.
// One that tripped a limit (see interrupted) gets 503: the error envelope, a
// Retry-After header, and the limit that tripped (truncMeta); any other gets
// 500. what names the run in the message.
func writeFailed(w http.ResponseWriter, r *http.Request, what string, err error) {
	if interrupted(err) {
		writeEnvelope(w, r, http.StatusServiceUnavailable, "interrupted", fmt.Sprintf("%s interrupted: %v", what, err), truncMeta(err))
	} else {
		writeErr(w, r, http.StatusInternalServerError, "internal", "%s failed: %v", what, err)
	}
}

// handleStats answers the §2 profile of the pinned version, stamped with its
// seq.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, a args) {
	writeJSON(w, http.StatusOK, struct {
		graphstats.Stats
		Seq uint64 `json:"seq"`
	}{graphstats.Compute(a.cur.View()), a.cur.Seq()})
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

// handleControl answers the control question in two demand-driven forms:
// the companies the node controls (forward demand), or, given a target, the
// single pair as a boolean (fully bound demand — only the derivation cone
// connecting the two is explored). Both route through the goal engine and
// the result cache.
func (s *Server) handleControl(w http.ResponseWriter, r *http.Request, a args) {
	v, seq, node := a.cur.View(), a.cur.Seq(), a.vals[0].id
	if a.vals[1].set {
		target := a.vals[1].id
		s.servePoint(w, r, seq, pointKey("control", node, target), qcache.Anchored(&node, &target), func() (map[string]any, error) {
			goal := controlGoal(datalog.Int(int64(node)), datalog.Int(int64(target)))
			res, err := s.evalGoal(r.Context(), v, vadalog.Control, goal)
			if err != nil {
				return nil, err
			}
			return map[string]any{"node": node, "target": target, "controls": len(res.Answers) > 0, "mode": res.Mode}, res.RunErr
		})
		return
	}
	s.servePoint(w, r, seq, pointKey("control", node), qcache.Anchored(&node, nil), func() (map[string]any, error) {
		res, err := s.evalGoal(r.Context(), v, vadalog.Control, controlGoal(datalog.Int(int64(node)), varY))
		if err != nil {
			return nil, err
		}
		out := named(v, bindingIDs(res.Answers, varY), "")
		return map[string]any{"node": node, "controls": out, "mode": res.Mode}, res.RunErr
	})
}

// namedNode is a node as the point answers list it: its ID and its string
// name property, omitted when it has none.
type namedNode struct {
	ID   pg.NodeID `json:"id"`
	Name string    `json:"name,omitempty"`
}

// named lists the nodes of ids in v with the given label (any, for ""),
// never null.
func named(v pg.View, ids []pg.NodeID, label pg.Label) []namedNode {
	out := []namedNode{}
	for _, id := range ids {
		if n := v.Node(id); n != nil && (label == "" || n.Label == label) {
			name, _ := n.Props.Str("name")
			out = append(out, namedNode{id, name})
		}
	}
	return out
}

// handleControlPairs enumerates every control pair. It answers the unbound
// goal control(X, Y) through the same goal engine as every other control
// read, in the {"pairs": [{"from", "to"}, ...]} envelope sorted by (from,
// to); see API.md.
func (s *Server) handleControlPairs(w http.ResponseWriter, r *http.Request, a args) {
	v, seq := a.cur.View(), a.cur.Seq()
	s.servePoint(w, r, seq, "control/pairs", qcache.ClassDerived, func() (map[string]any, error) {
		res, err := s.evalGoal(r.Context(), v, vadalog.Control, controlGoal(varX, varY))
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

// handleCloseLinks lists the close links at the requested threshold. It
// reads the baseline of the pinned version the maintainer keeps (Algorithm
// 6's fixpoint, DESIGN.md §5), the state a what-if reads, and names each
// pair by its first witness.
func (s *Server) handleCloseLinks(w http.ResponseWriter, r *http.Request, a args) {
	v, seq, t := a.cur.View(), a.cur.Seq(), a.vals[0].num
	err := s.answerPoint(w, seq, "closelinks:"+strconv.FormatFloat(t, 'g', -1, 64), qcache.ClassDerived, func() (map[string]any, error) {
		bl, err := s.ivmM.BaselineAt(r.Context(), v, seq, t)
		if err != nil {
			return nil, err
		}
		return map[string]any{"threshold": t, "links": bl.Links(v)}, nil
	})
	if err != nil { // a baseline is exact or absent: there is no partial list
		writeFailed(w, r, "close-link baseline", err)
	}
}

// handleAccumulated answers Φ(from, to). It asks the goal accown(from, to,
// S) of the close-link program through the goal engine, as a query does; phi
// is 0 when there is no row.
func (s *Server) handleAccumulated(w http.ResponseWriter, r *http.Request, a args) {
	v, seq, from, to := a.cur.View(), a.cur.Seq(), a.vals[0].id, a.vals[1].id
	s.servePoint(w, r, seq, pointKey("accumulated", from, to), qcache.Anchored(&from, &to), func() (map[string]any, error) {
		goal := datalog.Atom{Pred: "accown", Terms: []datalog.Term{datalog.Int(int64(from)), datalog.Int(int64(to)), varS}}
		res, err := s.evalGoal(r.Context(), v, vadalog.CloseLink, goal)
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

// augmentRequest configures an augmentation run.
type augmentRequest struct {
	// Classes: any of "family", "control", "closelink". Empty means family.
	Classes []string `json:"classes"`
	// Clusters is the first-level k; 0 disables embedding clustering.
	Clusters int `json:"clusters"`
	// NoCluster forces the exhaustive single-block mode.
	NoCluster bool `json:"noCluster"`
}

func (s *Server) handleAugment(w http.ResponseWriter, r *http.Request, _ args) {
	var req augmentRequest
	if _, ok := s.decodeBody(w, r, &req); !ok {
		return
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
	published, cerr := txn.Commit()
	if cerr != nil {
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
		// Completed rounds persist (augmentation is monotone): a retry of an
		// interrupted run resumes from where it stopped.
		writeFailed(w, r, "augmentation", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seq":         published.Seq(),
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
			res, err := s.evalGoal(ctx, o, vadalog.Control, controlGoal(varX, varY))
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

// whatifRequest describes a counterfactual: a batch of hypothetical graph
// operations plus the close-link threshold to reason at.
type whatifRequest struct {
	// Ops are applied in order to a private overlay; see whatif.Op for the
	// vocabulary (addNode, addShare, setShare, removeEdge, removeNode).
	Ops []whatif.Op `json:"ops"`
	// Threshold is the close-link threshold; 0 means the paper's 20%.
	Threshold float64 `json:"threshold"`
}

// handleWhatif evaluates a counterfactual scenario. The ops apply to a
// copy-on-write overlay on the pinned read view, the chase runs over the
// composite, and the response reports how control and close-link would
// change. The published graph and the WAL are never touched — a what-if
// burst is invisible to every other client.
func (s *Server) handleWhatif(w http.ResponseWriter, r *http.Request, a args) {
	var req whatifRequest
	if _, ok := s.decodeBody(w, r, &req); !ok {
		return
	}
	if len(req.Ops) == 0 {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "a what-if scenario needs at least one op")
		return
	}
	threshold := cmp.Or(req.Threshold, whatif.DefaultThreshold)
	if threshold < 0 || threshold > 1 {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "threshold must be in (0, 1], got %v", req.Threshold)
		return
	}

	// One version serves the whole chase: the baseline must describe exactly
	// the view the scenario is evaluated on. The maintainer answers from its
	// incrementally maintained state where it can and falls back to a full
	// chase where it cannot, so steady-state what-ifs skip the re-chase every
	// out-of-band write would otherwise force.
	v, seq := a.cur.View(), a.cur.Seq()
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
		default: // nothing partial is worth returning: a truncated diff would lie
			writeFailed(w, r, "what-if", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"seq":             seq,
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

// reasonRequest configures the evaluation of an ad-hoc program: a Vadalog
// program evaluated over the company graph's relational facts, under the
// server's budget plus any tighter per-request limits.
type reasonRequest struct {
	// Program is the rule text (Vadalog subset syntax; see internal/datalog).
	Program string `json:"program"`
	// Predicates selects which derived predicates to return. Empty means
	// every head predicate of the program.
	Predicates []string `json:"predicates"`
	factCap
	// MaxFactsPerPredicate caps the facts returned per predicate in the
	// response. 0 means 10000.
	MaxFactsPerPredicate int `json:"maxFactsPerPredicate"`
}

// handleReason evaluates an ad-hoc program. A non-terminating program does
// not hang the server: the chase stops at the request deadline (or fact
// budget) and the response reports the partial derivation with
// "truncated": true and the tripped limit.
func (s *Server) handleReason(w http.ResponseWriter, r *http.Request, a args) {
	var req reasonRequest
	tighter, ok := s.decodeBody(w, r, &req)
	if !ok {
		return
	}
	if req.Program == "" {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "missing program")
		return
	}
	p, err := vadalog.Compile(req.Program)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "program: %v", err)
		return
	}

	// Chase the relational image of the pinned version; the answer is
	// stamped with that version's seq.
	engine := p.Engine(a.cur.View(), append(s.engineOptions(), tighter...)...)
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
		for pred := range p.HeadPreds() {
			preds = append(preds, pred)
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
		"seq":     a.cur.Seq(),
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

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request, a args) {
	writeGraph(w, a.cur.View(), a.cur.Seq())
}

// writeGraph answers with the graph JSON of v (pg.WriteJSONView), stamped
// with seq, the version it reads, as one more top-level key: pg.ReadJSON
// still reads the body.
func writeGraph(w http.ResponseWriter, v pg.View, seq uint64) {
	var buf bytes.Buffer
	_ = pg.WriteJSONView(v, &buf)
	w.Header()["Content-Type"] = jsonContentType
	_, _ = fmt.Fprintf(w, `{"seq":%d,`, seq)
	_, _ = w.Write(buf.Bytes()[1:])
}
