package reasonapi

// The demand-driven query surface: the goal query answers one goal atom
// ("control(4, Y)") by magic-sets evaluation of the defining program, and
// the point reads route through the same machinery and the same cache (see
// the package doc).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"

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

// queryRequest is the body of a goal query: a goal atom, optionally with the
// program defining it (the built-in control / close-link programs answer
// their own predicates when the program is omitted).
type queryRequest struct {
	// Goal is the atom to answer, e.g. "control(4, Y)" — constants demand
	// only the relevant derivation cone; variables are answered positions.
	Goal string `json:"goal"`
	// Program is the defining rule text. Empty selects the built-in program
	// of the goal predicate (control, ccand, accown, closelink, clcand,
	// company, person, own).
	Program string `json:"program"`
	factCap
}

// handleQuery answers one goal atom demand-driven. The goal is rewritten
// with magic sets when its bound arguments admit it ("mode": "magic");
// otherwise the full program is evaluated and the goal answered against the
// result ("mode": "full") — same answers, more derivation.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, a args) {
	var req queryRequest
	tighter, ok := s.decodeBody(w, r, &req)
	if !ok {
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
	var p *vadalog.Program
	class := qcache.ClassAny
	if req.Program == "" {
		if p, ok = vadalog.ForGoal(goal.Pred); !ok {
			writeErr(w, r, http.StatusBadRequest, "bad_request",
				"no built-in program defines %q; supply one in \"program\"", goal.Pred)
			return
		}
		class = goalClass(goal)
	} else if p, err = vadalog.Compile(req.Program); err != nil {
		// A program that does not parse, or that the engine refuses, is the
		// caller's fault.
		writeErr(w, r, http.StatusBadRequest, "bad_request", "program: %v", err)
		return
	}

	v, seq := a.cur.View(), a.cur.Seq()
	err = s.answerPoint(w, seq, queryKey(goal, p, req.MaxFacts), class, func() (map[string]any, error) {
		res, err := s.evalGoal(r.Context(), v, p, goal, tighter...)
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

// evalGoal is the one goal engine behind every goal-backed read. It answers
// goal under p over v, the server's engine options first, then extra. The
// chase is published as the metrics' lastChase. A tripped limit leaves the
// partial answers in res with res.RunErr set; any other failure, of the
// chase included, is err.
//
// The built-in control program reads the relational image (relstore), which
// aggregates every shareholding edge by weight, so every control route counts
// every share, whatever its right (DESIGN.md §5).
func (s *Server) evalGoal(ctx context.Context, v pg.View, p *vadalog.Program, goal datalog.Atom, extra ...datalog.Option) (*vadalog.GoalResult, error) {
	res, err := p.Goal(ctx, v, goal, append(s.engineOptions(), extra...)...)
	if err != nil {
		return nil, err
	}
	s.recordChase(res.Stats)
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
	var out []pg.NodeID
	for _, b := range bs {
		if n, ok := relstore.NodeID(b[v]); ok {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// answerRows renders goal bindings as JSON objects keyed by variable name,
// in a deterministic order so identical queries marshal identically: by the
// bindings' "V=value;" renderings, variables in name order.
func answerRows(bs []datalog.Binding) []map[string]any {
	type keyed struct {
		key string
		row map[string]any
	}
	rows := make([]keyed, 0, len(bs))
	for _, b := range bs {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, string(v))
		}
		slices.Sort(vars)
		r := keyed{row: make(map[string]any, len(b))}
		for _, v := range vars {
			r.row[v] = jsonValue(b[datalog.Variable(v)])
			r.key += fmt.Sprintf("%s=%v;", v, b[datalog.Variable(v)])
		}
		rows = append(rows, r)
	}
	slices.SortFunc(rows, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]map[string]any, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return out
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

// queryKey builds the cache key of one goal query. The program — the
// built-in one when the caller sent none — is named by its text's FNV hash
// (vadalog.Program.Hash), so an arbitrary caller program cannot blow the key
// budget; the goal stays readable for debugging.
func queryKey(goal datalog.Atom, p *vadalog.Program, maxFacts int) string {
	b := make([]byte, 0, 96)
	b = append(b, "query:"...)
	b = append(b, goal.String()...)
	b = append(b, ':')
	b = strconv.AppendUint(b, p.Hash(), 16)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(maxFacts), 10)
	return string(b)
}
