package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/reasonapi"
	"vadalink/internal/vadalog"
)

// hotKeys is the working set of point-hot: far below the cache budget, so
// after warm-up every request is a hit.
const hotKeys = 256

// replayEvery is the 1-in-k sampling of traced ops that get replayed layer
// by layer (and of untraced ops kept for the end-of-run oracle).
const replayEvery = 8

// maxOracleSamples bounds the answers kept per client for the imperative
// cross-check after the timed phase (UltimateControllers scans every
// person, ~10 ms at 15k nodes).
const maxOracleSamples = 48

// answered is one sampled response, kept until the oracle runs.
type answered struct {
	q    int // index into the workload's question list
	body []byte
}

// pointWL is the leader-mode point-question workload in its two extremes:
// hot (a small repeating key set) and cold (no key ever repeats).
type pointWL struct {
	cfg config
	hot bool

	g       *pg.Graph
	h       http.Handler
	qs      []question
	first   [][]byte     // hot: the first answer to each question
	next    atomic.Int64 // cold: the next never-asked question
	buildMS float64
	cache0  qcache.Stats // server cache counters after warm-up

	standalone *qcache.Cache // harness-held, for reasonapi.hit_overhead
	agg        chaseAgg
	samples    []answered
	phases     int
}

func newPointHot(cfg config) workload  { return &pointWL{cfg: cfg, hot: true} }
func newPointCold(cfg config) workload { return &pointWL{cfg: cfg} }

func (p *pointWL) setup() error {
	c := p.cfg.size(10000)
	if p.hot {
		c = p.cfg.size(1000)
	}
	t0 := time.Now()
	it := generate(c, c/2, p.cfg.seed, 0)
	p.buildMS = ms(time.Since(t0))
	p.g = it.Graph
	p.h = reasonapi.NewServerWith(p.g, reasonapi.Config{}).Handler()
	p.qs = allQuestions(p.g, rand.New(rand.NewSource(p.cfg.seed)))
	p.standalone = qcache.New(0)

	warm := 16
	if p.hot {
		p.qs = stratified(p.qs, hotKeys)
		warm = len(p.qs)
		p.first = make([][]byte, len(p.qs))
	}
	if warm > len(p.qs) {
		return fmt.Errorf("graph of %d companies supports only %d questions", c, len(p.qs))
	}
	// Warm-up: every hot key once (filling the cache), a handful of cold
	// keys (first-use allocations), split over the clients.
	var wg sync.WaitGroup
	errs := make([]error, nproc)
	for cl := 0; cl < nproc; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			w := newRespWriter()
			for i := cl; i < warm; i += nproc {
				q := &p.qs[i]
				serve(p.h, w, q.method, q.url, q.body)
				if !okResponse(w) {
					errs[cl] = fmt.Errorf("warm-up %s: status %d: %s", q.url, w.code, w.body.Bytes())
					return
				}
				if p.hot {
					p.first[i] = append([]byte(nil), w.body.Bytes()...)
				}
			}
		}(cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	p.next.Store(int64(warm))
	m, err := serverMetrics(p.h)
	if err != nil {
		return err
	}
	p.cache0 = *m.Cache
	return nil
}

// serverMetrics reads GET /v1/metrics, the counters the layers export.
func serverMetrics(h http.Handler) (*reasonapi.Metrics, error) {
	w := newRespWriter()
	serve(h, w, "GET", "/v1/metrics", "")
	var m reasonapi.Metrics
	if err := json.Unmarshal(w.body.Bytes(), &m); err != nil || m.Cache == nil {
		return nil, fmt.Errorf("GET /v1/metrics: status %d, cache block missing (%v)", w.code, err)
	}
	return &m, nil
}

func (p *pointWL) phase(d time.Duration, traced bool) load {
	p.phases++
	writers := make([]*respWriter, nproc)
	zipfs := make([]*rand.Zipf, nproc)
	kept := make([][]answered, nproc)
	for c := range writers {
		writers[c] = newRespWriter()
		r := rand.New(rand.NewSource(p.cfg.seed*1000 + int64(p.phases*nproc+c)))
		zipfs[c] = rand.NewZipf(r, 1.1, 1, uint64(len(p.qs)-1))
	}
	ld := closedLoop(nproc, d, traced, func(c, i int, rec *recorder) (time.Duration, outcome) {
		var k int
		if p.hot {
			k = int(zipfs[c].Uint64())
		} else if k = int(p.next.Add(1) - 1); k >= len(p.qs) {
			panic("point-cold ran out of never-asked questions; the graph is too small for this phase")
		}
		q, w := &p.qs[k], writers[c]
		sampled := i%replayEvery == 0
		op := int64(c)<<40 | int64(i)
		root := -1
		if sampled {
			root = rec.begin("op", op, -1)
		}
		lat, hit, oc := ask(p.h, w, q, rec, op, root)
		if oc == opOK && p.hot && !bytes.Equal(w.body.Bytes(), p.first[k]) {
			oc = opWrong // a hit must replay the first answer byte for byte
		}
		if sampled && oc == opOK {
			if !p.hot && len(kept[c]) < maxOracleSamples {
				kept[c] = append(kept[c], answered{k, append([]byte(nil), w.body.Bytes()...)})
			}
			if rec != nil {
				if hit {
					p.replayHit(rec, op, root, q, w.body.Bytes())
				} else {
					replayGoal(rec, op, root, p.g, q.goal(), lat, &p.agg)
				}
			}
		}
		rec.end(root)
		return lat, oc
	})
	for _, k := range kept {
		p.samples = append(p.samples, k...)
	}
	return ld
}

// replayHit times a hit on a standalone qcache holding the same payload:
// what the cache alone costs, without the HTTP middleware around it.
func (p *pointWL) replayHit(rec *recorder, op int64, parent int, q *question, payload []byte) {
	key := q.url + q.body
	if _, _, ok := p.standalone.Get(key); !ok {
		p.standalone.Put(key, qcache.ClassDerived, 0, append([]byte(nil), payload...))
	}
	s := rec.begin("qcache.Do", op, parent)
	_, _, hit, err := p.standalone.Do(key, qcache.ClassDerived, 0, func() ([]byte, error) { return payload, nil })
	rec.end(s)
	if err != nil || !hit {
		panic("standalone qcache missed a key it was just given")
	}
}

func (p *pointWL) finish(vals values, tr *trace) (int, error) {
	var log oracleLog
	// Leader mode and no writes: every answer is exact for the one graph.
	for i, body := range p.first {
		log.report(checkAnswer(p.g, &p.qs[i], body))
	}
	for _, s := range p.samples {
		log.report(checkAnswer(p.g, &p.qs[s.q], s.body))
	}
	if !p.cfg.trace {
		return log.mismatches, nil
	}

	m, err := serverMetrics(p.h)
	if err != nil {
		return 0, err
	}
	hits, misses := float64(m.Cache.Hits-p.cache0.Hits), float64(m.Cache.Misses-p.cache0.Misses)
	vals.set("qcache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	vals.set("qcache.evictions", float64(m.Cache.Evictions-p.cache0.Evictions), 1)
	vals.set("qcache.entries", float64(m.Cache.Entries), 1)
	vals.set("qcache.bytes_mb", float64(m.Cache.Bytes)/1e6, 1)
	vals.set("graphgen.build_ms", p.buildMS, 1)

	served := tr.durations("reasonapi.ServeHTTP", "")
	vals.p50("reasonapi.request_ms_p50", served)
	do := tr.durations("qcache.Do", "")
	vals.set("qcache.do_hit_us_p50", median(do)*1e3, len(do))
	if hitSpans := tr.durations("reasonapi.ServeHTTP", "hit"); len(do) > 0 {
		vals.set("reasonapi.hit_overhead_us_p50", (median(hitSpans)-median(do))*1e3, len(hitSpans))
	}
	eval := tr.durations("vadalog.EvalGoal", "")
	vals.p50("vadalog.evalgoal_ms_p50", eval)
	if len(eval) > 0 {
		// Misses of replayed ops only: the same questions on both sides.
		var missed []float64
		for _, s := range tr.spans {
			if s.Name == "reasonapi.ServeHTTP" && s.Tag == "miss" && s.Parent != 0 {
				missed = append(missed, float64(s.End-s.Start)/1e6)
			}
		}
		vals.set("reasonapi.miss_overhead_ms_p50", median(missed)-median(eval), len(missed))

		// The exact demand saving: what the goal chase derived against what
		// the full chase derives on the same graph.
		var full chaseAgg
		replayChase(nil, 0, -1, p.g, vadalog.ControlProgram, nil, serverEngineOptions(), &full)
		goalDerived := ratio(float64(p.agg.derived), float64(p.agg.n))
		vals.set("datalog.demand_ratio", ratio(goalDerived, float64(full.derived)), p.agg.n)
	}
	emitChaseSpans(vals, tr)
	p.agg.emit(vals)
	return log.mismatches, nil
}

func (p *pointWL) teardown() {}
