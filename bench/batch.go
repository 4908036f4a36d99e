package main

import (
	"fmt"
	"time"

	"vadalink"
	"vadalink/internal/closelink"
	"vadalink/internal/cluster"
	"vadalink/internal/control"
	"vadalink/internal/datalog"
	"vadalink/internal/embed"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

// batchWL runs sequential library jobs, no serving layer: materialize (the
// full control + close-link chase) or augment (the ML pipeline). Every job
// gets its own graph, generated from the run seed and the job number: chase
// time varies ~2x from graph to graph at one size, so a run that timed one
// graph would measure the seed, not the code.
type batchWL struct {
	cfg     config
	augment bool
	jobs    int // jobs started so far, warm-up included
	salt    int // materialize: registry groups drawn so far
	// kept holds the warm-up jobs' results reachable, so heap_live_mb — taken
	// after set-up — is the footprint of the warm-up jobs' results rather
	// than of an empty process.
	kept []any

	buildMS, cloneMS, allPairsMS, closeLinksMS []float64
	agg                                        chaseAgg

	// augment only
	truth, recovered, comparisons, rounds int64
	matchNS                               int64
}

func newMaterialize(cfg config) workload { return &batchWL{cfg: cfg} }
func newAugment(cfg config) workload     { return &batchWL{cfg: cfg, augment: true} }

// nextGraph generates the graph of the next job: one Italian graph with its
// planted family truth for augment, a registry (graphs.go) for materialize.
func (b *batchWL) nextGraph() (*pg.Graph, []graphgen.GroundLink) {
	b.jobs++
	t0 := time.Now()
	defer func() { b.buildMS = append(b.buildMS, ms(time.Since(t0))) }()
	if b.augment {
		it := generate(b.cfg.size(250), b.cfg.size(500), b.cfg.seed, b.jobs)
		return it.Graph, it.Truth
	}
	g, parts := registry(b.cfg.size(256), b.cfg.seed, b.salt)
	b.salt += parts
	return g, nil
}

// warmJobs is how many untimed jobs set-up runs: first-use allocations and
// heap growth happen there, not in the first sample, and the retained
// results make heap_live_mb less dependent on any one graph. A materialize
// job is a tenth of an augment job, and four of them made a set-up of 0.15 s
// that spread 0.3 from seed to seed, so it runs three times as many.
func (b *batchWL) warmJobs() int {
	if b.augment {
		return 4
	}
	return 12
}

func (b *batchWL) setup() error {
	for i := 0; i < b.warmJobs(); i++ {
		if _, oc := b.job(nil, 0, false); oc != opOK {
			return fmt.Errorf("warm-up job %d failed its oracle", i+1)
		}
	}
	return nil
}

func (b *batchWL) phase(d time.Duration, traced bool) load {
	return closedLoop(1, d, traced, func(_, i int, rec *recorder) (time.Duration, outcome) {
		return b.job(rec, int64(i), traced && i%2 == 0)
	})
}

func (b *batchWL) job(rec *recorder, op int64, replay bool) (time.Duration, outcome) {
	if b.augment {
		return b.augmentJob(rec, op, replay)
	}
	return b.materializeJob(rec, op, replay)
}

func (b *batchWL) materializeJob(rec *recorder, op int64, replay bool) (time.Duration, outcome) {
	g, _ := b.nextGraph()
	root := rec.begin("op", op, -1)
	defer rec.end(root)

	opts := []datalog.Option{datalog.WithParallel(nproc), datalog.WithMinAggDelta(whatif.DefaultMinAggDelta)}
	r := vadalink.NewReasoner(g, vadalink.TaskControl|vadalink.TaskCloseLink)
	r.EngineOptions = opts
	s := rec.begin("vadalog.Reasoner.Run", op, root)
	t0 := time.Now()
	err := r.Run()
	lat := time.Since(t0)
	rec.end(s)
	if err != nil {
		fmt.Println("materialize:", err)
		return lat, opNon200
	}
	if b.jobs <= b.warmJobs() {
		b.kept = append(b.kept, r)
	}
	oc := opOK
	if err := b.checkMaterialized(rec, op, root, g, r); err != nil {
		fmt.Println("oracle:", err)
		oc = opWrong
	}
	if replay {
		// The engine report comes from the replay: the timed run above stays
		// free of statistics collection, traced or not.
		composed := replayChase(rec, op, root, g, vadalog.ControlProgram+"\n"+vadalog.CloseLinkProgram, nil,
			append(opts, datalog.WithStats()), &b.agg)
		b.agg.ratios(ratio(float64(composed), float64(lat)), 0)
	}
	return lat, oc
}

// closeLinkSlack brackets the close-link threshold for the oracle: the chase
// converges to within MinAggDelta per contributor, so a pair whose
// accumulated ownership sits that close to 20% may fall on either side.
const closeLinkSlack = 1e-3

// checkMaterialized compares the chase with the imperative solvers: control
// pairs must equal control.AllPairs; close links must contain every pair the
// simple-path solver finds safely above the threshold and, on an acyclic
// graph, nothing it does not find safely below (on ownership cycles the
// program sums the geometric series where the solver stops at simple paths,
// by design, so there it may find more).
func (b *batchWL) checkMaterialized(rec *recorder, op int64, root int, g *pg.Graph, r *vadalink.Reasoner) error {
	s := rec.begin("control.AllPairs", op, root)
	t0 := time.Now()
	want := control.AllPairs(g)
	b.allPairsMS = append(b.allPairsMS, ms(time.Since(t0)))
	rec.end(s)
	got := map[[2]pg.NodeID]bool{}
	for _, p := range r.ControlPairs() {
		got[p] = true
	}
	for _, p := range want {
		if !got[[2]pg.NodeID{p.From, p.To}] {
			return fmt.Errorf("graph %d: control pair %d>%d missing from the chase", b.jobs, p.From, p.To)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("graph %d: chase derived %d control pairs, imperative solver %d", b.jobs, len(got), len(want))
	}

	canon := func(a, c pg.NodeID) [2]pg.NodeID {
		if a > c {
			a, c = c, a
		}
		return [2]pg.NodeID{a, c}
	}
	links := map[[2]pg.NodeID]bool{}
	for _, p := range r.CloseLinkPairs() {
		links[canon(p[0], p[1])] = true
	}
	s = rec.begin("closelink.CloseLinks", op, root)
	t0 = time.Now()
	sure := closelink.CloseLinks(g, closelink.DefaultThreshold+closeLinkSlack, closelink.Options{})
	b.closeLinksMS = append(b.closeLinksMS, ms(time.Since(t0)))
	rec.end(s)
	for _, l := range sure {
		if !links[canon(l.Pair.A, l.Pair.B)] {
			return fmt.Errorf("graph %d: close link %d~%d missing from the chase", b.jobs, l.Pair.A, l.Pair.B)
		}
	}
	if len(cyclicCore(g)) > 0 {
		return nil
	}
	possible := map[[2]pg.NodeID]bool{}
	for _, l := range closelink.CloseLinks(g, closelink.DefaultThreshold-closeLinkSlack, closelink.Options{}) {
		possible[canon(l.Pair.A, l.Pair.B)] = true
	}
	for p := range links {
		if !possible[p] {
			return fmt.Errorf("graph %d: chase derived close link %d~%d, the simple-path solver finds none on this acyclic graph", b.jobs, p[0], p[1])
		}
	}
	return nil
}

// augmentK is the first-level cluster count of the augment workload.
const augmentK = 8

func (b *batchWL) augmentJob(rec *recorder, op int64, replay bool) (time.Duration, outcome) {
	base, truth := b.nextGraph()
	root := rec.begin("op", op, -1)
	defer rec.end(root)
	s := rec.begin("pg.Clone", op, root)
	t0 := time.Now()
	g := base.Clone()
	b.cloneMS = append(b.cloneMS, ms(time.Since(t0)))
	rec.end(s)

	cfg := vadalink.AugmentConfig{
		FirstLevelK: augmentK,
		Embed:       vadalink.EmbedConfig{Seed: b.cfg.seed},
		Blocker:     vadalink.PersonBlocker{},
		Candidates:  []vadalink.Candidate{&vadalink.FamilyCandidate{}},
	}
	s = rec.begin("core.Augment", op, root)
	t0 = time.Now()
	res, err := vadalink.Augment(g, cfg)
	lat := time.Since(t0)
	rec.end(s)
	if err != nil {
		fmt.Println("augment:", err)
		return lat, opNon200
	}
	if b.jobs <= b.warmJobs() {
		b.kept = append(b.kept, g)
	}
	b.comparisons += res.Comparisons
	b.rounds += int64(res.Rounds)
	b.matchNS += int64(res.MatchTime)

	// Oracle: every predicted edge joins two persons, and the planted
	// families are the recall ground truth.
	oc := opOK
	for _, e := range res.AddedEdges {
		if g.Node(e.From).Label != pg.LabelPerson || g.Node(e.To).Label != pg.LabelPerson {
			fmt.Printf("oracle: graph %d: predicted %s edge %d>%d is not between persons\n", b.jobs, e.Label, e.From, e.To)
			oc = opWrong
		}
	}
	for _, gt := range truth {
		b.truth++
		for _, l := range []pg.Label{pg.LabelPartnerOf, pg.LabelSiblingOf, pg.LabelParentOf} {
			if g.HasEdge(l, gt.X, gt.Y) || g.HasEdge(l, gt.Y, gt.X) {
				b.recovered++
				break
			}
		}
	}
	if len(res.AddedEdges) == 0 {
		fmt.Printf("oracle: graph %d: augmentation predicted nothing\n", b.jobs)
		oc = opWrong
	}

	if replay {
		// The first-level pipeline core.Augment composes, call by call.
		s = rec.begin("embed.Learn", op, root)
		emb, err := embed.Learn(base, cfg.Embed)
		rec.end(s)
		if err != nil {
			panic(err)
		}
		vecs := make(map[pg.NodeID][]float64, base.NumNodes())
		for _, id := range base.Nodes() {
			if v := emb.Vector(id); v != nil {
				vecs[id] = v
			}
		}
		s = rec.begin("cluster.KMeans", op, root)
		km, err := cluster.KMeans(vecs, augmentK, cfg.Embed.Seed+1, 0)
		rec.end(s)
		if err != nil {
			panic(err)
		}
		groups := make([][]pg.NodeID, km.K)
		for _, id := range base.Nodes() {
			if c, ok := km.Assignment[id]; ok {
				groups[c] = append(groups[c], id)
			}
		}
		s = rec.begin("cluster.Partition", op, root)
		for _, grp := range groups {
			cluster.Partition(base, grp, cfg.Blocker)
		}
		rec.end(s)
	}
	return lat, oc
}

func (b *batchWL) finish(vals values, tr *trace) (int, error) {
	if !b.cfg.trace {
		return 0, nil
	}
	vals.p50("graphgen.build_ms", b.buildMS)
	if b.augment {
		vals.set("link_recall", ratio(float64(b.recovered), float64(b.truth)), int(b.truth))
		vals.p50("pg.clone_ms", b.cloneMS)
		runs := tr.durations("core.Augment", "")
		vals.set("core.run_s", median(runs)/1e3, len(runs))
		learn := tr.durations("embed.Learn", "")
		vals.set("embed.learn_s", median(learn)/1e3, len(learn))
		vals.p50("cluster.kmeans_ms", tr.durations("cluster.KMeans", ""))
		vals.p50("cluster.partition_ms", tr.durations("cluster.Partition", ""))
		vals.set("family.classify_us_per_pair", ratio(float64(b.matchNS)/1e3, float64(b.comparisons)), int(b.comparisons))
		vals.set("core.comparisons", ratio(float64(b.comparisons), float64(b.jobs)), b.jobs)
		vals.set("core.rounds", ratio(float64(b.rounds), float64(b.jobs)), b.jobs)
		return 0, nil
	}
	runs := tr.durations("vadalog.Reasoner.Run", "")
	vals.set("vadalog.reasoner_run_s", median(runs)/1e3, len(runs))
	vals.p50("control.allpairs_ms", b.allPairsMS)
	vals.p50("closelink.closelinks_ms", b.closeLinksMS)
	emitChaseSpans(vals, tr)
	b.agg.emit(vals)
	return 0, nil
}

func (b *batchWL) teardown() {}
