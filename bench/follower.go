package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"vadalink/internal/control"
	"vadalink/internal/datalog"
	"vadalink/internal/ivm"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/qcache"
	"vadalink/internal/reasonapi"
	"vadalink/internal/relstore"
	"vadalink/internal/replication"
	"vadalink/internal/store"
	"vadalink/internal/whatif"
)

// walSyncEvery is the WAL group-commit interval of both stores: the default
// of `vadalink serve -fsync`.
const walSyncEvery = 2 * time.Millisecond

// recoverRepeats is how many times follower-churn re-opens the follower's
// store for recover_s.
const recoverRepeats = 5

// followerWL is the reads-beside-writes harness: a durable leader store
// ships its WAL over loopback to a follower that a follower-mode reasonapi
// server reads from — the only public path on which shareholding writes and
// HTTP reads coexist. One closed-loop client reads (point questions on
// follower-churn, what-if scenarios on whatif-sweep) while one open-loop
// writer commits weight changes on the leader on a fixed schedule.
type followerWL struct {
	cfg    config
	whatif bool
	rate   float64 // commits per second on the leader

	dir     string
	base    *pg.Graph // the generated graph, never mutated: endpoints, weights, next IDs
	leader  *persist.Store
	ld      *replication.Leader
	fl      *replication.Follower
	h       http.Handler
	cancel  context.CancelFunc
	done    sync.WaitGroup // leader Serve + follower Run
	baseSeq int64          // leader seq right after the import
	shares  []pg.EdgeID    // the shareholding edges, generation order

	// The harness's own copy of the committed history: one immutable view
	// per leader seq, so an answer stamped "seq" can be checked on exactly
	// the view it claims, and (traced) a maintainer fed the same commits.
	vs       *store.Versioned
	versions []*store.Version
	maint    *ivm.Maintainer

	qs       []question
	cache0   qcache.Stats // server cache counters after warm-up
	persist0 persist.Stats
	phases   int

	buildMS, bootstrapMS, baselineS float64
	lag, applyWait                  []float64 // ms, one per commit
	affected                        []float64
	commits                         int
	samples                         []answered
	scenarios                       []scenario
	agg                             chaseAgg
	chaseMS, cones                  []float64 // per replayed what-if
	stopped                         bool
}

// scenario is one sampled what-if: the ops sent, the answer received and the
// follower sequence number it was evaluated at. Follower-mode /v1/whatif
// stamps "version": 0, so the harness brackets the request with
// Follower.Seq() and keeps only samples during which no frame was applied.
type scenario struct {
	ops  []whatif.Op
	body []byte
	seq  int64
}

func newFollowerChurn(cfg config) workload {
	return &followerWL{cfg: cfg, rate: 8}
}

func newWhatifSweep(cfg config) workload {
	return &followerWL{cfg: cfg, whatif: true, rate: 2}
}

func (f *followerWL) setup() (err error) {
	if f.dir, err = os.MkdirTemp(f.cfg.outDir, f.cfg.workload+"-"); err != nil {
		return err
	}
	t0 := time.Now()
	var g *pg.Graph
	if f.whatif {
		g = matchedRegistry(max(f.cfg.size(1024)/registryGroup, 1), f.cfg.seed)
	} else {
		c := f.cfg.size(2000)
		g = generate(c, c/2, f.cfg.seed, 0).Graph
	}
	f.buildMS = ms(time.Since(t0))
	// The store adopts g and the writer mutates it; the harness keeps its
	// own copies to read from.
	f.base = g.Clone()
	f.shares = f.base.EdgesWithLabel(pg.LabelShareholding)
	if len(f.shares) == 0 {
		return errors.New("generated graph has no shareholdings to mutate")
	}
	f.vs = store.NewVersioned(g.Clone())
	f.versions = []*store.Version{f.vs.Current()}

	if f.leader, err = persist.Open(filepath.Join(f.dir, "leader"), persist.Options{SyncEvery: walSyncEvery}); err != nil {
		return err
	}
	if err = f.leader.Import(g); err != nil {
		return err
	}
	f.baseSeq = f.leader.Seq()
	f.ld = replication.NewLeader(f.leader, replication.LeaderOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		if err := f.ld.Serve(ctx, ln); err != nil {
			fmt.Fprintln(os.Stderr, "leader stream:", err)
		}
	}()
	if f.fl, err = replication.OpenFollower(filepath.Join(f.dir, "follower"), replication.FollowerOptions{
		Leader: ln.Addr().String(), SyncEvery: walSyncEvery,
	}); err != nil {
		return err
	}
	// Staleness gating stays at its 5 s default: a read refused as stale is
	// a failed op, which is what a caller would see.
	f.h = reasonapi.NewServerWith(nil, reasonapi.Config{Follower: f.fl}).Handler()
	t0 = time.Now()
	f.done.Add(1)
	go func() {
		defer f.done.Done()
		_ = f.fl.Run(ctx) // returns ctx.Err() only
	}()
	if err := f.awaitParity(10 * time.Second); err != nil {
		return err
	}
	f.bootstrapMS = ms(time.Since(t0))

	r := rand.New(rand.NewSource(f.cfg.seed))
	w := newRespWriter()
	if f.whatif {
		// The first what-if pays the full baseline chase; it is warm-up.
		t0 = time.Now()
		ops := f.scenarioOps(r)
		serve(f.h, w, "POST", "/v1/whatif", whatifBody(ops))
		f.baselineS = time.Since(t0).Seconds()
		if w.code != http.StatusOK {
			return fmt.Errorf("warm-up what-if: status %d: %s", w.code, w.body.Bytes())
		}
	} else {
		f.qs = stratified(allQuestions(f.base, r), 2*hotKeys)
		for i := 0; i < 16 && i < len(f.qs); i++ {
			q := &f.qs[i]
			serve(f.h, w, q.method, q.url, q.body)
			if !okResponse(w) {
				return fmt.Errorf("warm-up %s: status %d: %s", q.url, w.code, w.body.Bytes())
			}
		}
	}
	m, err := serverMetrics(f.h)
	if err != nil {
		return err
	}
	f.cache0 = *m.Cache
	f.persist0 = f.leader.Stats()
	return nil
}

// awaitParity waits until the follower has applied everything the leader
// holds and has seen the leader confirm it (before that, the server refuses
// reads as stale).
func (f *followerWL) awaitParity(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for f.fl.Seq() < f.leader.Seq() || !f.fl.Status().EverSynced {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d, leader at %d: %+v", f.fl.Seq(), f.leader.Seq(), f.fl.Status())
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// scenarioOps draws one counterfactual: 50% re-weight a stake, 25% drop one,
// 25% a foreign acquirer buys part of an existing stake. Every weight stays
// at or below the generated one, so the incoming-shares invariant holds
// whatever the writer has committed meanwhile.
func (f *followerWL) scenarioOps(r *rand.Rand) []whatif.Op {
	e := f.shares[r.Intn(len(f.shares))]
	w, _ := f.base.Edge(e).Weight()
	switch p := r.Float64(); {
	case p < 0.5:
		return []whatif.Op{{Op: "setShare", Edge: e, W: w * (0.1 + 0.8*r.Float64())}}
	case p < 0.75:
		return []whatif.Op{{Op: "removeEdge", Edge: e}}
	default:
		x := 0.2 + 0.7*r.Float64()
		to := f.base.Edge(e).To
		buyer := f.base.NextNodeID() // the writer never adds nodes
		return []whatif.Op{
			{Op: "addNode", Name: "ForeignAcquirer"},
			{Op: "setShare", Edge: e, W: w * (1 - x)},
			{Op: "addShare", From: buyer, To: to, W: w * x},
		}
	}
}

func whatifBody(ops []whatif.Op) string {
	b, err := json.Marshal(map[string]any{"ops": ops})
	if err != nil {
		panic(err)
	}
	return string(b)
}

func (f *followerWL) phase(d time.Duration, traced bool) load {
	f.phases++
	if traced && f.maint == nil {
		// Seeding costs one full baseline chase; only the traced run pays.
		f.maint = ivm.New(whatif.DefaultThreshold, serverEngineOptions()...)
		cur := f.vs.Current()
		if err := f.maint.Init(context.Background(), cur.View(), cur.Seq()); err != nil {
			panic(err)
		}
	}
	stop := make(chan struct{})
	var wr writerStats
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	var wrec *recorder
	if traced {
		wrec = newRecorder(t0)
	}
	go func() {
		defer wg.Done()
		wr = f.writer(t0, stop, wrec)
	}()

	r := rand.New(rand.NewSource(f.cfg.seed*1000 + int64(f.phases)))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(max(len(f.qs), 2)-1))
	w := newRespWriter()
	ld := closedLoop(1, d, traced, func(_, i int, rec *recorder) (time.Duration, outcome) {
		sampled := i%replayEvery == 0
		op := int64(i)
		root := -1
		if sampled {
			root = rec.begin("op", op, -1)
		}
		defer rec.end(root)
		if f.whatif {
			return f.whatifOp(r, w, rec, op, root, sampled)
		}
		return f.pointOp(int(zipf.Uint64()), w, rec, op, root, sampled)
	})
	close(stop)
	wg.Wait()
	ld.late, ld.period = wr.late, time.Duration(float64(time.Second)/f.rate)
	if wrec != nil {
		ld.recs = append(ld.recs, wrec)
	}
	if traced {
		f.lag, f.applyWait, f.commits = wr.lag, wr.applyWait, len(wr.lag)
	}
	return ld
}

func (f *followerWL) pointOp(k int, w *respWriter, rec *recorder, op int64, root int, sampled bool) (time.Duration, outcome) {
	q := &f.qs[k]
	lat, hit, oc := ask(f.h, w, q, rec, op, root)
	if sampled && oc == opOK {
		if len(f.samples) < 4*maxOracleSamples {
			f.samples = append(f.samples, answered{k, append([]byte(nil), w.body.Bytes()...)})
		}
		if rec != nil && !hit {
			replayGoal(rec, op, root, f.vs.Current().View(), q.goal(), lat, &f.agg)
		}
	}
	return lat, oc
}

func (f *followerWL) whatifOp(r *rand.Rand, w *respWriter, rec *recorder, op int64, root int, sampled bool) (time.Duration, outcome) {
	ops := f.scenarioOps(r)
	body := whatifBody(ops)
	seq := f.fl.Seq()
	s := rec.begin("reasonapi.ServeHTTP", op, root)
	t0 := time.Now()
	serve(f.h, w, "POST", "/v1/whatif", body)
	lat := time.Since(t0)
	rec.endTag(s, ops[0].Op)
	if w.code != http.StatusOK {
		return lat, opNon200
	}
	if sampled {
		if len(f.scenarios) < 4*maxOracleSamples && f.fl.Seq() == seq {
			f.scenarios = append(f.scenarios, scenario{ops, append([]byte(nil), w.body.Bytes()...), seq})
		}
		if rec != nil {
			f.replayWhatif(rec, op, root, ops, lat)
		}
	}
	return lat, opOK
}

// replayWhatif re-evaluates one scenario on the harness's own view and
// maintained baseline: the overlay ops and the affected cone under their own
// spans, then whatif.Evaluate as a black box with an engine hook that clocks
// the scoped chase inside it.
func (f *followerWL) replayWhatif(rec *recorder, op int64, root int, ops []whatif.Op, served time.Duration) {
	cur := f.vs.Current()
	bl := f.maint.Baseline(cur.Seq(), whatif.DefaultThreshold)
	if bl == nil {
		return // the writer is mid-commit: the maintainer trails the view
	}
	v := cur.View()
	o := pg.NewOverlay(v)
	s := rec.begin("whatif.Apply", op, root)
	_, changed, err := whatif.Apply(o, ops)
	rec.end(s)
	if err != nil {
		panic(err) // the server accepted the same ops
	}
	s = rec.begin("whatif.ReverseReachable", op, root)
	cone := whatif.ReverseReachable(changed, v, o)
	rec.end(s)
	f.cones = append(f.cones, float64(len(cone)))
	s = rec.begin("relstore.CompanyGraphFacts", op, root)
	facts := relstore.CompanyGraphFacts(o)
	rec.end(s)

	var chase time.Duration
	var st datalog.ChaseStats
	perRule := map[string]int64{}
	hook := datalog.Hook{
		RuleDone: func(rule string, _ int, derived, dups int, elapsed time.Duration) {
			st.Derived += derived
			st.Duplicates += dups
			perRule[rule] += int64(elapsed)
		},
		RoundDone: func(_, _, _ int, elapsed time.Duration) {
			st.Rounds++
			chase += elapsed
		},
	}
	t0 := time.Now()
	s = rec.begin("whatif.Evaluate", op, root)
	_, err = whatif.Evaluate(context.Background(), v, bl, ops, whatif.Options{
		Engine: append(serverEngineOptions(), datalog.WithHook(hook)),
	})
	rec.end(s)
	if err != nil {
		panic(err)
	}
	black := time.Since(t0)
	for rule, ns := range perRule {
		st.Rules = append(st.Rules, datalog.RuleStats{Rule: rule, EvalNanos: ns})
	}
	st.Utilization = 1
	f.agg.add(&st, len(facts))
	f.agg.ratios(0, ratio(float64(black), float64(served)))
	f.chaseMS = append(f.chaseMS, ms(chase))
}

// writerStats is what the open-loop writer measured.
type writerStats struct {
	late      []time.Duration
	lag       []float64 // ms from a commit's due time to follower parity
	applyWait []float64 // ms from the leader's fsync to follower parity
}

// writer commits one weight change on the leader every 1/rate seconds until
// stop closes. A commit is timed from when it was due, not from when the
// writer got to it, so a stall is charged to every commit it delayed.
func (f *followerWL) writer(t0 time.Time, stop <-chan struct{}, rec *recorder) writerStats {
	var st writerStats
	r := rand.New(rand.NewSource(f.cfg.seed*7919 + int64(f.phases)))
	period := time.Duration(float64(time.Second) / f.rate)
	g := f.leader.Graph()
	for k := 1; ; k++ {
		due := t0.Add(time.Duration(k) * period)
		select {
		case <-stop:
			return st
		case <-time.After(time.Until(due)):
		}
		st.late = append(st.late, time.Since(due))
		op := int64(1)<<50 | int64(k)

		// Halve a stake, or restore a halved one: never above the generated
		// weight, so no company ever has more than 100% of itself owned.
		e := f.shares[r.Intn(len(f.shares))]
		w, _ := f.base.Edge(e).Weight()
		if cur, _ := g.Edge(e).Weight(); cur == w {
			w /= 2
		}
		s := rec.begin("persist.append", op, -1)
		err := g.SetEdgeWeight(e, w)
		rec.end(s)
		if err == nil {
			s = rec.begin("persist.Sync", op, -1)
			err = f.leader.Sync()
			rec.end(s)
		}
		if err != nil {
			panic(fmt.Sprintf("leader commit failed: %v", err))
		}
		// From here to the mirrored commit below there is no early exit: a
		// reader may already hold an answer stamped with the new seq.
		synced := time.Now()
		if err := f.awaitParity(10 * time.Second); err != nil {
			panic(err)
		}
		st.lag = append(st.lag, ms(time.Since(due)))
		st.applyWait = append(st.applyWait, ms(time.Since(synced)))

		// Mirror the commit into the harness's version chain.
		s = rec.begin("store.Commit", op, -1)
		txn := f.vs.Begin()
		if err := txn.Overlay().SetEdgeWeight(e, w); err != nil {
			panic(err)
		}
		journal, jerr := txn.Overlay().Journal()
		next, err := txn.Commit()
		rec.end(s)
		if err != nil || jerr != nil {
			panic(fmt.Sprintf("harness commit failed: %v %v", err, jerr))
		}
		f.versions = append(f.versions, next)
		if f.maint != nil {
			s = rec.begin("ivm.Apply", op, -1)
			err := f.maint.Apply(context.Background(), next.View(), next.Seq()-1, next.Seq(), journal)
			rec.end(s)
			if err != nil {
				panic(fmt.Sprintf("harness maintainer failed: %v", err))
			}
			f.affected = append(f.affected, float64(f.maint.Stats().LastAffectedSources))
		}
	}
}

// viewAt returns the harness's view of leader sequence number seq.
func (f *followerWL) viewAt(seq uint64) (pg.View, error) {
	i := int64(seq) - f.baseSeq
	if i < 0 || i >= int64(len(f.versions)) {
		return nil, fmt.Errorf("answer stamped seq %d, history covers [%d, %d]", seq, f.baseSeq, f.baseSeq+int64(len(f.versions))-1)
	}
	return f.versions[i].View(), nil
}

// digest hashes a graph's canonical JSON.
func digest(v pg.View) (string, error) {
	h := sha256.New()
	if err := pg.WriteJSONView(v, h); err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func (f *followerWL) finish(vals values, tr *trace) (int, error) {
	var log oracleLog
	for _, s := range f.samples {
		var stamp struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(s.body, &stamp); err != nil {
			log.report(err)
			continue
		}
		v, err := f.viewAt(stamp.Seq)
		if err != nil {
			log.report(err)
			continue
		}
		log.report(checkAnswer(v, &f.qs[s.q], s.body))
	}
	var flatten []float64
	for _, sc := range f.scenarios {
		d, err := f.checkScenario(sc)
		log.report(err)
		flatten = append(flatten, d)
	}
	m, err := serverMetrics(f.h)
	if err != nil {
		return 0, err
	}
	if f.whatif && m.Incremental != nil && (m.Incremental.FullRebuilds != 1 || m.Incremental.Invalidations != 0) {
		log.report(fmt.Errorf("server maintainer rebuilt %d times and was invalidated %d times; want 1 and 0",
			m.Incremental.FullRebuilds, m.Incremental.Invalidations))
	}
	end, err := f.endState(&log)
	if err != nil {
		return 0, err
	}
	if f.cfg.trace {
		if err := f.emit(vals, tr, m, end, flatten); err != nil {
			return 0, err
		}
	}
	return log.mismatches, nil
}

// endState is what the replication pair looked like when it was stopped, and
// what re-opening the follower's store found.
type endState struct {
	follower replication.FollowerStatus
	leader   replication.LeaderStatus
	wal      persist.Stats // the leader store's
	edges    int
	opens    []float64 // seconds per persist.Open of the follower directory
	recovery persist.RecoveryInfo
}

// endState checks that the follower holds exactly the leader's graph at
// parity, stops the pair, and checks that the follower's store recovers that
// graph on every re-open (five for recover_s on follower-churn, one
// elsewhere).
func (f *followerWL) endState(log *oracleLog) (*endState, error) {
	if err := f.awaitParity(10 * time.Second); err != nil {
		return nil, err
	}
	want, err := digest(f.leader.Graph())
	if err != nil {
		return nil, err
	}
	got, err := digest(f.fl.Graph())
	if err != nil {
		return nil, err
	}
	if got != want {
		log.report(errors.New("follower graph digest differs from the leader's at parity"))
	}
	end := &endState{follower: f.fl.Status(), leader: f.ld.Status(), wal: f.leader.Stats(), edges: f.fl.Graph().NumEdges()}
	f.stop()
	repeats := 1
	if !f.whatif {
		repeats = recoverRepeats
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		st, err := persist.Open(filepath.Join(f.dir, "follower"), persist.Options{SyncEvery: walSyncEvery})
		if err != nil {
			return nil, fmt.Errorf("re-opening the follower store: %w", err)
		}
		end.opens = append(end.opens, time.Since(t0).Seconds())
		end.recovery = st.Recovery()
		reopened, derr := digest(st.Graph())
		if cerr := st.Close(); derr != nil || cerr != nil {
			return nil, fmt.Errorf("re-opened follower store: %v %v", derr, cerr)
		}
		if reopened != want {
			log.report(fmt.Errorf("follower store recovered a different graph on re-open %d", i+1))
		}
	}
	return end, nil
}

// emit records the per-layer values of a traced run.
func (f *followerWL) emit(vals values, tr *trace, m *reasonapi.Metrics, end *endState, flatten []float64) error {
	if !f.whatif {
		vals.set("recover_s", median(end.opens), len(end.opens))
	}
	vals.set("persist.open_ms", median(end.opens)*1e3, len(end.opens))
	vals.set("persist.records_replayed", float64(end.recovery.RecordsReplayed), 1)
	var snapBytes, diskBytes int64
	entries, err := os.ReadDir(filepath.Join(f.dir, "follower"))
	if err != nil {
		return err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return err
		}
		diskBytes += info.Size()
		if filepath.Ext(e.Name()) == ".vsnap" && info.Size() > snapBytes {
			snapBytes = info.Size()
		}
	}
	vals.set("persist.snapshot_mb", float64(snapBytes)/1e6, 1)
	vals.set("persist.disk_bytes_per_edge", ratio(float64(diskBytes), float64(end.edges)), end.edges)

	commits := float64(len(f.versions) - 1)
	vals.set("persist.wal_bytes_per_commit", ratio(float64(end.wal.WALBytes-f.persist0.WALBytes), commits), int(commits))
	vals.set("persist.syncs_per_commit", ratio(float64(end.wal.WALSyncs-f.persist0.WALSyncs), commits), int(commits))
	vals.set("persist.append_us_p50", median(tr.durations("persist.append", ""))*1e3, f.commits)
	vals.p50("persist.sync_ms_p50", tr.durations("persist.Sync", ""))
	vals.set("store.commit_us_p50", median(tr.durations("store.Commit", ""))*1e3, f.commits)

	vals.p50("repl_lag_p50_ms", f.lag)
	vals.p50("replication.apply_wait_ms_p50", f.applyWait)
	vals.set("replication.frames_applied", float64(end.follower.FramesApplied), 1)
	vals.set("replication.frames_shipped", float64(end.leader.FramesShipped), 1)
	vals.set("replication.bad_frames", float64(end.follower.BadFrames), 1)
	vals.set("replication.reconnects", float64(end.follower.Reconnects), 1)
	vals.set("replication.bootstraps", float64(end.follower.Bootstraps), 1)
	vals.set("replication.bootstrap_ms", f.bootstrapMS, 1)

	vals.p50("ivm.apply_ms_p50", tr.durations("ivm.Apply", ""))
	vals.p50("ivm.affected_sources_p50", f.affected)
	ist := f.maint.Stats()
	vals.set("ivm.incremental_commits", float64(ist.IncrementalCommits), 1)
	vals.set("ivm.full_rebuilds", float64(ist.FullRebuilds), 1)
	vals.set("ivm.invalidations", float64(ist.Invalidations), 1)

	hits := float64(m.Cache.Hits - f.cache0.Hits)
	misses := float64(m.Cache.Misses - f.cache0.Misses)
	vals.set("qcache.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	vals.set("qcache.invalidations_per_commit", ratio(float64(m.Cache.Invalidations-f.cache0.Invalidations), commits), int(commits))
	vals.set("qcache.evictions", float64(m.Cache.Evictions-f.cache0.Evictions), 1)
	vals.set("qcache.entries", float64(m.Cache.Entries), 1)
	vals.set("qcache.bytes_mb", float64(m.Cache.Bytes)/1e6, 1)
	vals.set("graphgen.build_ms", f.buildMS, 1)
	vals.p50("reasonapi.request_ms_p50", tr.durations("reasonapi.ServeHTTP", ""))

	if !f.whatif {
		vals.p50("vadalog.evalgoal_ms_p50", tr.durations("vadalog.EvalGoal", ""))
		emitChaseSpans(vals, tr)
		f.agg.emit(vals)
		return nil
	}
	vals.set("whatif.baseline_s", f.baselineS, 1)
	vals.p50("whatif.evaluate_ms_p50", tr.durations("whatif.Evaluate", ""))
	vals.set("whatif.apply_us_p50", median(tr.durations("whatif.Apply", ""))*1e3, len(f.chaseMS))
	vals.p50("whatif.cone_nodes_p50", f.cones)
	vals.p50("pg.overlay_flatten_ms", flatten)
	vals.p50("relstore.extract_ms_p50", tr.durations("relstore.CompanyGraphFacts", ""))
	f.agg.emit(vals)
	vals.p50("datalog.chase_ms_p50", f.chaseMS)
	return nil
}

// checkScenario re-derives a what-if's control diff with the imperative
// solver on the flattened overlay, on the view the answer is stamped with.
// It returns how long the flatten took.
func (f *followerWL) checkScenario(sc scenario) (flattenMS float64, err error) {
	var ans struct {
		Control struct {
			Gained []struct{ X, Y pg.NodeID } `json:"gained"`
			Lost   []struct{ X, Y pg.NodeID } `json:"lost"`
		} `json:"control"`
	}
	if err := json.Unmarshal(sc.body, &ans); err != nil {
		return 0, err
	}
	base, err := f.viewAt(uint64(sc.seq))
	if err != nil {
		return 0, err
	}
	o := pg.NewOverlay(base)
	if _, _, err := whatif.Apply(o, sc.ops); err != nil {
		return 0, err
	}
	t0 := time.Now()
	flat, err := pg.Flatten(o)
	flattenMS = ms(time.Since(t0))
	if err != nil {
		return 0, err
	}
	before := map[control.Pair]bool{}
	for _, p := range control.AllPairs(base) {
		before[p] = true
	}
	var gained, lost []string
	for _, p := range control.AllPairs(flat) {
		if !before[p] {
			gained = append(gained, fmt.Sprintf("%d>%d", p.From, p.To))
		}
		delete(before, p)
	}
	for p := range before {
		lost = append(lost, fmt.Sprintf("%d>%d", p.From, p.To))
	}
	var gotGained, gotLost []string
	for _, p := range ans.Control.Gained {
		gotGained = append(gotGained, fmt.Sprintf("%d>%d", p.X, p.Y))
	}
	for _, p := range ans.Control.Lost {
		gotLost = append(gotLost, fmt.Sprintf("%d>%d", p.X, p.Y))
	}
	for _, l := range [][]string{gained, lost, gotGained, gotLost} {
		sort.Strings(l)
	}
	if fmt.Sprint(gained) != fmt.Sprint(gotGained) || fmt.Sprint(lost) != fmt.Sprint(gotLost) {
		return flattenMS, fmt.Errorf("what-if %s at seq %d: server says +%v -%v, imperative solver says +%v -%v",
			whatifBody(sc.ops), sc.seq, gotGained, gotLost, gained, lost)
	}
	return flattenMS, nil
}

// stop ends the replication pair and closes both stores.
func (f *followerWL) stop() {
	if f.stopped || f.cancel == nil {
		return
	}
	f.stopped = true
	f.cancel()
	f.done.Wait()
	if f.fl != nil {
		if err := f.fl.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "closing follower store:", err)
		}
	}
	if err := f.leader.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "closing leader store:", err)
	}
}

func (f *followerWL) teardown() {
	f.stop()
	if f.leader != nil && f.cancel == nil {
		f.leader.Close() // setup failed before the stream started
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}
