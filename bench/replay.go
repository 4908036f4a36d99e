package main

import (
	"context"
	"sync"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

// The harness cannot see inside Handler(): the traced run therefore replays
// a sample of ops through the same layer pipeline the server composes
// (vadalog.EvalGoal, which servePoint's build functions all reach), once
// call by call under spans and once as a black box. The two must take about
// the same time — replay.fidelity_ratio — or the pipeline below no longer
// mirrors the program and its per-layer split means nothing.

// serverEngineOptions mirrors reasonapi.Server.engineOptions for a default
// Config: the serving convergence step, no budget, statistics on.
func serverEngineOptions() []datalog.Option {
	return []datalog.Option{datalog.WithMinAggDelta(whatif.DefaultMinAggDelta), datalog.WithStats()}
}

// chaseAgg accumulates the engine reports and span ratios of replayed ops.
type chaseAgg struct {
	mu        sync.Mutex
	n         int
	facts     int64
	derived   int64
	dups      int64
	hits      int64
	scans     int64
	builds    int64
	rounds    int64
	idxBytes  int64
	topShare  float64
	util      float64
	fidelity  []float64 // composed spans / black-box span, per replay
	serveRate []float64 // black-box span / ServeHTTP span, per replay
}

func (a *chaseAgg) add(st *datalog.ChaseStats, facts int) {
	if st == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n++
	a.facts += int64(facts)
	a.derived += int64(st.Derived)
	a.dups += int64(st.Duplicates)
	a.hits += st.IndexHits
	a.scans += st.IndexScans
	a.builds += st.IndexBuilds
	a.rounds += int64(st.Rounds)
	a.idxBytes += st.IndexBytes
	a.util += st.Utilization
	var total, top int64
	for _, r := range st.Rules {
		total += r.EvalNanos
		if r.EvalNanos > top {
			top = r.EvalNanos
		}
	}
	a.topShare += ratio(float64(top), float64(total))
}

func (a *chaseAgg) ratios(fidelity, serve float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if fidelity > 0 {
		a.fidelity = append(a.fidelity, fidelity)
	}
	if serve > 0 {
		a.serveRate = append(a.serveRate, serve)
	}
}

// emit writes the datalog.* counters (means per replayed op) and the replay
// ratios.
func (a *chaseAgg) emit(vals values) {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := float64(a.n)
	vals.set("relstore.facts_per_call", ratio(float64(a.facts), n), a.n)
	vals.set("datalog.derived_per_op", ratio(float64(a.derived), n), a.n)
	vals.set("datalog.duplicates_per_op", ratio(float64(a.dups), n), a.n)
	vals.set("datalog.useful_ratio", ratio(float64(a.derived), float64(a.derived+a.dups)), a.n)
	vals.set("datalog.index_hit_ratio", ratio(float64(a.hits), float64(a.hits+a.scans)), a.n)
	vals.set("datalog.index_builds_per_op", ratio(float64(a.builds), n), a.n)
	vals.set("datalog.index_mb", ratio(float64(a.idxBytes)/1e6, n), a.n)
	vals.set("datalog.rounds_per_op", ratio(float64(a.rounds), n), a.n)
	vals.set("datalog.top_rule_share", ratio(a.topShare, n), a.n)
	vals.set("datalog.pool_utilization", ratio(a.util, n), a.n)
	vals.p50("replay.fidelity_ratio", a.fidelity)
	vals.p50("replay.serve_ratio", a.serveRate)
}

// emitChaseSpans turns the composed pipeline's spans into the per-layer
// timings every chase-backed workload shares.
func emitChaseSpans(vals values, tr *trace) {
	vals.p50("relstore.extract_ms_p50", tr.durations("relstore.CompanyGraphFacts", ""))
	vals.p50("datalog.rewrite_ms_p50", tr.durations("datalog.NewGoalEngine", ""))
	vals.p50("datalog.load_ms_p50", tr.durations("datalog.AssertAll", ""))
	vals.p50("datalog.chase_ms_p50", tr.selfTimes("datalog.RunContext"))
}

// replayChase evaluates prog over v the way vadalog.EvalGoal and
// vadalog.Reasoner do, one span per layer call: parse, engine construction
// (the magic rewrite when goal is set), fact extraction, EDB load, chase,
// answer lookup. It returns the time the composed calls took.
func replayChase(rec *recorder, op int64, parent int, v pg.View, progSrc string, goal *datalog.Atom, opts []datalog.Option, agg *chaseAgg) time.Duration {
	t0 := time.Now()
	s := rec.begin("datalog.Parse", op, parent)
	prog, err := datalog.Parse(progSrc)
	rec.end(s)
	if err != nil {
		panic(err) // a bug: the shipped programs parse
	}
	var e *datalog.Engine
	if goal != nil {
		s = rec.begin("datalog.NewGoalEngine", op, parent)
		e, err = datalog.NewGoalEngine(prog, *goal, opts...)
	} else {
		s = rec.begin("datalog.NewEngine", op, parent)
		e, err = datalog.NewEngine(prog, opts...)
	}
	rec.end(s)
	if err != nil {
		panic(err) // a bug: every replayed goal is demandable
	}
	s = rec.begin("relstore.CompanyGraphFacts", op, parent)
	facts := relstore.CompanyGraphFacts(v)
	rec.end(s)
	s = rec.begin("datalog.AssertAll", op, parent)
	e.AssertAll(facts)
	rec.end(s)
	s = rec.begin("datalog.RunContext", op, parent)
	err = e.RunContext(context.Background())
	rec.end(s)
	if err != nil {
		panic(err) // no budget is set, so the chase cannot be cut short
	}
	if goal != nil {
		s = rec.begin("datalog.Query", op, parent)
		e.Query(*goal)
		rec.end(s)
	}
	agg.add(e.Stats(), len(facts))
	return time.Since(t0)
}

// replayGoal replays one point miss under parent: the composed pipeline,
// then vadalog.EvalGoal as a black box. served is how long the real
// ServeHTTP took for the same question.
func replayGoal(rec *recorder, op int64, parent int, v pg.View, goal datalog.Atom, served time.Duration, agg *chaseAgg) {
	composed := replayChase(rec, op, parent, v, vadalog.ControlProgram, &goal, serverEngineOptions(), agg)
	t0 := time.Now()
	s := rec.begin("vadalog.EvalGoal", op, parent)
	_, err := vadalog.EvalGoal(context.Background(), v, vadalog.ControlProgram, goal, serverEngineOptions()...)
	rec.end(s)
	if err != nil {
		panic(err)
	}
	black := time.Since(t0)
	agg.ratios(ratio(float64(composed), float64(black)), ratio(float64(black), float64(served)))
}
