package reasonapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/store"
	"vadalink/internal/whatif"
)

// A Param is one query parameter a route reads.
type Param struct {
	Name     string
	Required bool
	Usage    string // one line, for a client's help text
	kind     kind
	def      float64 // the number an optional fraction or hop count reads when not given
}

// kind is the domain of a parameter's value.
type kind int

const (
	nodeID   kind = iota // the ID of a node of the version the route answers from
	fraction             // a number in (0, 1]
	hopCount             // an integer in 0–10
)

// access is how a follower serves a route.
type access int

const (
	read  access = iota // from the replicated graph, within the staleness bound
	write               // not at all: 421 names the leader
	local               // as it is: the route describes this process
)

// maxParams bounds the parameters one route declares.
const maxParams = 2

// route is one entry of the table.
type route struct {
	pattern string
	handle  func(*Server, http.ResponseWriter, *http.Request, args)
	params  []Param
	access  access
}

// routes is the API: every route declares here, once, its pattern, its
// handler, the query parameters it reads and how a follower serves it. The
// mux, the per-route metrics, the query parser, the follower gate, the
// vadalink CLI (through Params) and API.md's route headings all read it; an
// input a route does not declare is refused with 400 before its handler runs.
var routes = []route{
	{pattern: "GET /v1/stats", handle: (*Server).handleStats},
	{pattern: "GET /v1/graph", handle: (*Server).handleGraph},
	{pattern: "GET /v1/neighborhood", handle: (*Server).handleNeighborhood, params: []Param{
		{Name: "node", kind: nodeID, Required: true, Usage: "center node ID"},
		{Name: "hops", kind: hopCount, def: 2, Usage: "radius in hops, 0–10 (default 2)"},
	}},
	{pattern: "GET /v1/control", handle: (*Server).handleControl, params: []Param{
		{Name: "node", kind: nodeID, Required: true, Usage: "controller node ID (CLI: without it, every control pair)"},
		{Name: "target", kind: nodeID, Usage: "controlled node ID: answer whether node controls it"},
	}},
	{pattern: "GET /v1/control/pairs", handle: (*Server).handleControlPairs},
	{pattern: "GET /v1/closelinks", handle: (*Server).handleCloseLinks, params: []Param{
		{Name: "t", kind: fraction, def: whatif.DefaultThreshold, Usage: "close-link threshold in (0, 1] (default 0.2)"},
	}},
	{pattern: "GET /v1/accumulated", handle: (*Server).handleAccumulated, params: []Param{
		{Name: "from", kind: nodeID, Required: true, Usage: "owner node ID"},
		{Name: "to", kind: nodeID, Required: true, Usage: "owned node ID"},
	}},
	{pattern: "GET /v1/ubo", handle: (*Server).handleUBO, params: []Param{
		{Name: "node", kind: nodeID, Required: true, Usage: "company node ID (CLI: without it, the orphan companies)"},
	}},
	{pattern: "GET /v1/explain", handle: (*Server).handleExplain, params: []Param{
		{Name: "from", kind: nodeID, Required: true, Usage: "controller node ID"},
		{Name: "to", kind: nodeID, Required: true, Usage: "controlled node ID"},
	}},
	{pattern: "POST /v1/reason", handle: (*Server).handleReason},
	{pattern: "POST /v1/query", handle: (*Server).handleQuery},
	{pattern: "POST /v1/augment", handle: (*Server).handleAugment, access: write},
	{pattern: "POST /v1/whatif", handle: (*Server).handleWhatif},
	{pattern: "GET /v1/metrics", handle: (*Server).handleMetrics, access: local},
	{pattern: "POST /v1/admin/snapshot", handle: (*Server).handleAdminSnapshot, access: write},
	{pattern: "GET /v1/healthz", handle: (*Server).handleHealthz, access: local},
	{pattern: "GET /v1/readyz", handle: (*Server).handleReadyz, access: local},
}

// Params returns the query parameters of the route with the given pattern,
// in declaration order, and whether the table has that route: the table's
// face for clients that build requests, the vadalink CLI among them.
func Params(pattern string) ([]Param, bool) {
	i := slices.IndexFunc(routes, func(rt route) bool { return rt.pattern == pattern })
	if i < 0 {
		return nil, false
	}
	return slices.Clone(routes[i].params), true
}

// args is what the route wrapper hands a handler: the version the request
// answers from, pinned once, and the values of the route's parameters in
// declaration order.
type args struct {
	cur  *store.Version
	vals [maxParams]value
}

// value is one parameter of a request: whether it was given, as given, and
// parsed by its kind.
type value struct {
	set bool
	raw string
	id  pg.NodeID // nodeID
	num float64   // fraction, hopCount
}

// serveRoute is the wrapper every route runs in. It hands the governance
// middleware the route's counters, lets a follower refuse the route, pins
// the version, and answers 400 naming the first input the route does not
// accept; only then does the handler run.
func (s *Server) serveRoute(rt *route) http.HandlerFunc {
	m := s.metrics.routes[rt.pattern]
	return func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.m = m
		}
		if s.cfg.Follower != nil && s.followerGate(w, r, rt.access) {
			return
		}
		a := args{cur: s.vs.Current()}
		err := readQuery(r.URL.RawQuery, rt.params, &a.vals)
		for i := 0; err == nil && i < len(rt.params); i++ {
			err = rt.params[i].parse(&a.vals[i], a.cur)
		}
		if err != nil {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		rt.handle(s, w, r, a)
	}
}

// readQuery reads a raw query string into vals, the values of params in
// declaration order, as url.ParseQuery reads it, with no map built. Where
// ParseQuery would skip a pair (a ';' in it, an escape that does not decode)
// it fails, and so it does on a name params does not declare and on a name
// given twice.
func readQuery(raw string, params []Param, vals *[maxParams]value) error {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err == nil {
			v, err = url.QueryUnescape(v)
		}
		if err != nil || strings.Contains(pair, ";") {
			return fmt.Errorf("malformed query pair %q", pair)
		}
		i := slices.IndexFunc(params, func(p Param) bool { return p.Name == k })
		switch {
		case i < 0:
			return fmt.Errorf("undeclared parameter %q", k)
		case vals[i].set:
			return fmt.Errorf("parameter %q given twice", k)
		}
		vals[i] = value{set: true, raw: v}
	}
	return nil
}

// parse checks a given value against p's domain and fills in its parsed
// form; a node ID must name a node of cur. An absent value reads p's default
// unless p is required.
func (p Param) parse(v *value, cur *store.Version) error {
	if !v.set && p.Required {
		return fmt.Errorf("missing %q parameter", p.Name)
	} else if !v.set {
		v.num = p.def
		return nil
	}
	ok := false
	switch p.kind {
	case nodeID:
		id, err := strconv.ParseInt(v.raw, 10, 64)
		if ok = err == nil; ok && cur.View().Node(pg.NodeID(id)) == nil {
			return fmt.Errorf("unknown node %d", id)
		}
		v.id = pg.NodeID(id)
	case fraction:
		var err error
		v.num, err = strconv.ParseFloat(v.raw, 64)
		ok = err == nil && v.num > 0 && v.num <= 1 // NaN and ±Inf fail
	case hopCount:
		n, err := strconv.Atoi(v.raw)
		ok, v.num = err == nil && n >= 0 && n <= 10, float64(n)
	}
	if !ok {
		return fmt.Errorf("bad %q parameter %q: want %s", p.Name, v.raw,
			[...]string{nodeID: "a node ID", fraction: "a fraction in (0, 1]", hopCount: "a hop count 0–10"}[p.kind])
	}
	return nil
}

// factCap is the body field of the routes whose chases one request may bound
// tighter than the server does.
type factCap struct {
	// MaxFacts lowers the server's fact budget for this request; it never
	// raises it.
	MaxFacts int `json:"maxFacts"`
}

func (c factCap) maxFacts() int { return c.MaxFacts }

// decodeBody reads a POST route's JSON body into dst: at most maxBodyBytes,
// one JSON value, no field dst does not declare, an empty body leaving dst
// as it is; it reports false when it refused the body, having answered 400.
// When dst embeds factCap and asks for fewer facts than the server's budget
// allows, it returns the engine option that lowers the budget to that.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, dst any) (tighter []datalog.Option, ok bool) {
	if r.Body != nil {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		err := dec.Decode(dst)
		if _, next := dec.Token(); err == nil && next != io.EOF {
			err = errors.New("data after the JSON value")
		}
		if err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, r, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
			return nil, false
		}
	}
	c, capped := dst.(interface{ maxFacts() int })
	if b := s.cfg.Budget; capped && c.maxFacts() > 0 && (b.MaxFacts == 0 || c.maxFacts() < b.MaxFacts) {
		b.MaxFacts = c.maxFacts()
		tighter = []datalog.Option{datalog.WithBudget(b)}
	}
	return tighter, true
}
