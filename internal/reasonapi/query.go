package reasonapi

// The demand-driven query surface: POST /v1/query answers one goal atom
// ("control(4, Y)") by magic-sets evaluation of the defining program, and
// the point forms of the reasoning endpoints route through the same
// machinery. Responses are cached in a byte-budgeted, seq-stamped result
// cache (internal/qcache) keyed on the goal and the version the answer was
// computed at; each commit invalidates the entries its ownership reach can
// have moved (ivm.ReachOf).
// Every response answered here carries the sequence number of the version it
// is exact for ("seq" in the body) and an X-Cache: hit|miss header.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// servePoint answers one point query through the result cache: on a hit the
// marshaled payload is replayed as-is (its embedded "seq" names the version
// it was computed at, which may trail the current one across commits that
// cannot reach the answer); on a miss, build runs once — concurrent misses
// on the same key share the computation — and the payload is stored unless
// the build was truncated or a commit overtook the pinned version.
//
// build returns the response body (which servePoint stamps with "seq") plus
// the chase error, if any: a non-nil body with a non-nil error is a partial
// (budget-truncated) answer, served with 200 and the truncMeta fields but
// never cached; a nil body is a hard failure, answered as a 500.
func (s *Server) servePoint(w http.ResponseWriter, r *http.Request, seq uint64, key string, class qcache.Class, build func() (map[string]any, error)) {
	if err := s.answerPoint(w, seq, key, class, build); err != nil {
		writeErr(w, r, http.StatusInternalServerError, "internal", "query failed: %v", err)
	}
}

// answerPoint is servePoint without the verdict on a hard failure: it
// returns build's error, having written nothing, for callers that answer
// that case differently.
func (s *Server) answerPoint(w http.ResponseWriter, seq uint64, key string, class qcache.Class, build func() (map[string]any, error)) error {
	compute := func() ([]byte, error) {
		body, err := build()
		if body == nil {
			if err == nil {
				err = errors.New("empty response")
			}
			return nil, err
		}
		for k, v := range truncMeta(err) {
			body[k] = v
		}
		body["seq"] = seq
		payload, merr := json.Marshal(body)
		if merr != nil {
			return nil, merr
		}
		// End in a newline as writeJSON's encoder does, once, before qcache
		// stores the payload: a hit writes the cached bytes as they are.
		return append(payload, '\n'), err
	}
	var (
		payload []byte
		hit     bool
		err     error
	)
	if s.qc != nil {
		payload, _, hit, err = s.qc.Do(key, class, seq, compute)
	} else {
		payload, err = compute()
	}
	if payload == nil {
		return err
	}
	cache := cacheMiss
	if hit {
		cache = cacheHit
	}
	h := w.Header()
	h["X-Cache"] = cache
	h["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
	return nil
}

// queryRequest is the body of POST /v1/query: a goal atom, optionally with
// the program defining it (the built-in control / close-link programs answer
// their own predicates when the program is omitted).
type queryRequest struct {
	// Goal is the atom to answer, e.g. "control(4, Y)" — constants demand
	// only the relevant derivation cone; variables are answered positions.
	Goal string `json:"goal"`
	// Program is the defining rule text. Empty selects the built-in program
	// of the goal predicate (control, ccand, accown, closelink, clcand,
	// company, person, own).
	Program string `json:"program"`
	// MaxFacts tightens the server's fact budget for this request only.
	MaxFacts int `json:"maxFacts"`
}

// handleQuery answers one goal atom demand-driven: POST /v1/query. The goal
// is rewritten with magic sets when its bound arguments admit it ("mode":
// "magic"); otherwise the full program is evaluated and the goal answered
// against the result ("mode": "full") — same answers, more derivation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "bad request body: %v", err)
		return
	}
	if req.Goal == "" {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "missing goal")
		return
	}
	goal, err := datalog.ParseGoal(req.Goal)
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "bad goal: %v", err)
		return
	}
	progSrc, class := req.Program, qcache.ClassAny
	var prog *datalog.Program // the caller's program, parsed once
	if progSrc == "" {
		var ok bool
		if progSrc, ok = vadalog.ProgramForGoal(goal.Pred); !ok {
			writeErr(w, r, http.StatusBadRequest, "bad_request",
				"no built-in program defines %q; supply one in \"program\"", goal.Pred)
			return
		}
		class = goalClass(goal)
	} else if prog, err = datalog.Parse(progSrc); err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_request", "parsing program: %v", err)
		return
	}

	cur := s.vs.Current()
	v, seq := cur.View(), cur.Seq()

	err = s.answerPoint(w, seq, queryKey(goal, progSrc, req.MaxFacts), class, func() (map[string]any, error) {
		var tighter []datalog.Option
		if b := s.cfg.Budget; req.MaxFacts > 0 && (b.MaxFacts == 0 || req.MaxFacts < b.MaxFacts) {
			b.MaxFacts = req.MaxFacts
			tighter = append(tighter, datalog.WithBudget(b))
		}
		res, err := s.evalGoal(r.Context(), v, progSrc, prog, goal, tighter...)
		if err != nil {
			return nil, err
		}
		return map[string]any{
			"goal":    goal.String(),
			"mode":    res.Mode,
			"answers": answerRows(res.Answers),
			"count":   len(res.Answers),
		}, res.RunErr
	})
	if err != nil {
		writeErr(w, r, http.StatusUnprocessableEntity, "unprocessable", "evaluating goal: %v", err)
	}
}

// evalGoal is the one goal engine behind every goal-backed read:
// /v1/control (both forms), /v1/control/pairs, /v1/ubo, /v1/explain,
// /v1/accumulated and /v1/query. It answers goal under progSrc over v by
// vadalog.EvalGoal, or under prog by vadalog.EvalParsedGoal when the
// caller's program text progSrc was parsed already (nil for a shipped
// program). The server's engine options come first, then extra. The chase is published as /v1/metrics' lastChase.
// A tripped limit leaves the partial answers in res with res.RunErr set; any
// other failure, of the chase included, is err.
//
// The built-in control program reads the relational image (relstore), which
// aggregates every shareholding edge by weight, so every control route counts
// every share, whatever its right (DESIGN.md §5).
func (s *Server) evalGoal(ctx context.Context, v pg.View, progSrc string, prog *datalog.Program, goal datalog.Atom, extra ...datalog.Option) (*vadalog.GoalResult, error) {
	opts := append(s.engineOptions(), extra...)
	var res *vadalog.GoalResult
	var err error
	if prog != nil {
		res, err = vadalog.EvalParsedGoal(ctx, v, prog, goal, opts...)
	} else {
		res, err = vadalog.EvalGoal(ctx, v, progSrc, goal, opts...)
	}
	if err != nil {
		return nil, err
	}
	s.recordChase(res.Engine.Stats())
	if res.RunErr != nil && !interrupted(res.RunErr) {
		return nil, res.RunErr
	}
	return res, nil
}

// The variables of the goals the point endpoints ask.
var varX, varY, varS = datalog.Variable("X"), datalog.Variable("Y"), datalog.Variable("S")

// controlGoal is the atom control(x, y) of the built-in control program.
func controlGoal(x, y datalog.Term) datalog.Atom {
	return datalog.Atom{Pred: "control", Terms: []datalog.Term{x, y}}
}

// bindingIDs projects one variable of each binding to a sorted node-ID set.
func bindingIDs(bs []datalog.Binding, v datalog.Variable) []pg.NodeID {
	seen := map[pg.NodeID]bool{}
	var out []pg.NodeID
	for _, b := range bs {
		n, ok := relstore.NodeID(b[v])
		if !ok {
			continue
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// answerRows renders goal bindings as JSON objects keyed by variable name,
// in a deterministic order so identical queries marshal identically.
func answerRows(bs []datalog.Binding) []map[string]any {
	rows := make([]map[string]any, 0, len(bs))
	keys := make([]string, 0, len(bs))
	for _, b := range bs {
		row := make(map[string]any, len(b))
		k := ""
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		for _, v := range vars {
			row[v] = jsonValue(b[datalog.Variable(v)])
			k += fmt.Sprintf("%s=%v;", v, b[datalog.Variable(v)])
		}
		rows = append(rows, row)
		keys = append(keys, k)
	}
	sort.Sort(&rowSorter{keys: keys, rows: rows})
	return rows
}

type rowSorter struct {
	keys []string
	rows []map[string]any
}

func (s *rowSorter) Len() int           { return len(s.keys) }
func (s *rowSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
}

// goalClass is the cache class of a goal over the built-in programs: a
// control goal is anchored at the nodes it binds (control(x, Y) at source x,
// control(X, y) at target y, both for a pair); any other predicate, or a
// position bound to something other than a node ID, stays unanchored.
func goalClass(goal datalog.Atom) qcache.Class {
	if goal.Pred != "control" || len(goal.Terms) != 2 {
		return qcache.ClassDerived
	}
	var ends [2]*pg.NodeID
	for i, t := range goal.Terms {
		switch t := t.(type) {
		case datalog.Variable:
		case datalog.Constant:
			id, ok := t.Value.(int64)
			if !ok {
				return qcache.ClassDerived
			}
			n := pg.NodeID(id)
			ends[i] = &n
		default:
			return qcache.ClassDerived
		}
	}
	return qcache.Anchored(ends[0], ends[1])
}

// queryKey builds the cache key of one /v1/query evaluation. The program
// text — the built-in one when the caller sent none — is folded to its FNV
// hash so an arbitrary caller program cannot blow the key budget; the goal
// stays readable for debugging.
func queryKey(goal datalog.Atom, progSrc string, maxFacts int) string {
	h, ok := builtinProgramHashes[progSrc]
	if !ok {
		h = programHash(progSrc)
	}
	b := make([]byte, 0, 96)
	b = append(b, "query:"...)
	b = append(b, goal.String()...)
	b = append(b, ':')
	b = strconv.AppendUint(b, h, 16)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(maxFacts), 10)
	return string(b)
}

func programHash(src string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(src))
	return h.Sum64()
}

// builtinProgramHashes holds the programHash of each built-in program,
// computed once: a query over one of them — the common case — runs FNV over
// no program text per request.
var builtinProgramHashes = map[string]uint64{
	vadalog.ControlProgram:   programHash(vadalog.ControlProgram),
	vadalog.CloseLinkProgram: programHash(vadalog.CloseLinkProgram),
}
