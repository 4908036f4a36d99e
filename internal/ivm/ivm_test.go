package ivm

import (
	"context"
	"errors"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/store"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

// driver wires a Maintainer onto a Versioned store: Init from version 0,
// commit hook feeds every journal — eagerly through Apply, or, when lazy, the
// way the serving layer does: Observe queues it and the next maintained()
// read drains it through BaselineAt.
type driver struct {
	t    *testing.T
	vs   *store.Versioned
	m    *Maintainer
	lazy bool
	// applyErrs records maintenance errors; the incremental path is allowed
	// to fail (callers fall back to full recompute) but tests that expect it
	// to work assert this stays empty.
	applyErrs []error
}

func newDriver(t *testing.T, g *pg.Graph, threshold float64) *driver {
	return newDriverFed(t, g, threshold, false)
}

func newDriverFed(t *testing.T, g *pg.Graph, threshold float64, lazy bool) *driver {
	t.Helper()
	d := &driver{t: t, vs: store.NewVersioned(g), m: New(threshold), lazy: lazy}
	cur := d.vs.Current()
	if err := d.m.Init(context.Background(), cur.View(), cur.Seq()); err != nil {
		t.Fatalf("Init: %v", err)
	}
	prev := cur.Seq()
	d.vs.SetCommitHook(func(next *store.Version, journal []pg.Mutation) {
		from := prev
		prev = next.Seq()
		if lazy {
			d.m.Observe(next.Seq(), journal...)
			return
		}
		if err := d.m.Apply(context.Background(), next.View(), from, next.Seq(), journal); err != nil {
			d.applyErrs = append(d.applyErrs, err)
		}
	})
	return d
}

// commit applies fn to a fresh transaction overlay and commits it.
func (d *driver) commit(fn func(o *pg.Overlay)) *store.Version {
	d.t.Helper()
	txn := d.vs.Begin()
	fn(txn.Overlay())
	v, err := txn.Commit()
	if err != nil {
		d.t.Fatalf("commit: %v", err)
	}
	return v
}

// maintained returns the maintained baseline for the current version,
// failing the test if the maintainer lost it.
func (d *driver) maintained() *whatif.Baseline {
	d.t.Helper()
	cur := d.vs.Current()
	if d.lazy {
		bl, err := d.m.BaselineAt(context.Background(), cur.View(), cur.Seq(), d.m.threshold)
		if err != nil {
			d.t.Fatalf("BaselineAt seq %d: %v", cur.Seq(), err)
		}
		return bl
	}
	bl := d.m.Baseline(cur.Seq(), d.m.threshold)
	if bl == nil {
		d.t.Fatalf("maintainer has no baseline at seq %d (errors: %v)", cur.Seq(), d.applyErrs)
	}
	return bl
}

// oracle recomputes the full baseline of the current version from scratch.
func (d *driver) oracle() *whatif.Baseline {
	d.t.Helper()
	return d.oracleAt(d.vs.Current())
}

// programOracle chases vadalog.ControlProgram + vadalog.CloseLinkProgramT(t)
// over v from scratch. Its close-link pairs are formed by rules over every
// accown row the chase derives, not by counting witnesses of final rows, so
// the oracle shares none of the code it judges; each pair counts once.
func programOracle(t *testing.T, v pg.View, threshold float64) *whatif.Baseline {
	t.Helper()
	prog := datalog.MustParse(vadalog.ControlProgram + vadalog.CloseLinkProgramT(threshold))
	e, err := datalog.NewEngine(prog, datalog.WithMinAggDelta(whatif.DefaultMinAggDelta))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(v))
	if err := e.Run(); err != nil {
		t.Fatalf("oracle chase: %v", err)
	}
	bl := &whatif.Baseline{
		Threshold: threshold,
		Control:   map[pg.NodeID][]pg.NodeID{},
		CloseLink: map[whatif.Pair]int32{},
		Accown:    map[pg.NodeID][]datalog.Fact{},
	}
	for _, f := range e.Facts("control") {
		p := pairOf(f)
		bl.Control[p[0]] = append(bl.Control[p[0]], p[1])
	}
	for _, row := range bl.Control {
		slices.Sort(row)
	}
	for _, f := range e.Facts("closelink") {
		bl.CloseLink[canonical(pairOf(f))] = 1
	}
	for _, f := range e.Facts("accown") {
		src := pairOf(f)[0]
		bl.Accown[src] = append(bl.Accown[src], f)
	}
	return bl
}

func checkAgainstOracle(t *testing.T, name string, got, want *whatif.Baseline) {
	t.Helper()
	diffPairSets(t, name+": control", controlSet(t, got.Control), controlSet(t, want.Control))
	diffPairSets(t, name+": closelink", closeLinkSet(got), closeLinkSet(want))
	// Accown agreement as strong sets at the threshold — the relation the
	// derived pairs are defined over (raw totals may differ by the chase's
	// bounded aggregate error, pair sets may not).
	gotStrong := strongSet(got)
	wantStrong := strongSet(want)
	diffPairSets(t, name+": strong accown", gotStrong, wantStrong)
}

// controlSet flattens a by-source control relation to its pair set, failing
// on a row that is empty, unsorted or repeats a target.
func controlSet(t *testing.T, m map[pg.NodeID][]pg.NodeID) map[whatif.Pair]bool {
	t.Helper()
	out := map[whatif.Pair]bool{}
	for x, row := range m {
		for i, y := range row {
			if i > 0 && row[i-1] >= y {
				t.Errorf("control row of %d is %v, want sorted, no repeats", x, row)
			}
			out[whatif.Pair{x, y}] = true
		}
		if len(row) == 0 {
			t.Errorf("control row of %d is empty", x)
		}
	}
	return out
}

// controls reports whether bl holds control(x, y).
func controls(bl *whatif.Baseline, x, y pg.NodeID) bool { return slices.Contains(bl.Control[x], y) }

func closeLinkSet(bl *whatif.Baseline) map[whatif.Pair]bool {
	out := map[whatif.Pair]bool{}
	for p := range bl.CloseLink {
		out[p] = true
	}
	return out
}

func strongSet(bl *whatif.Baseline) map[whatif.Pair]bool {
	out := map[whatif.Pair]bool{}
	for _, rows := range bl.Accown {
		for _, f := range rows {
			if f.Args[2].(float64) >= bl.Threshold {
				out[pairOf(f)] = true
			}
		}
	}
	return out
}

// pairOf reads the first two arguments of a fact as a node pair.
func pairOf(f datalog.Fact) whatif.Pair {
	return whatif.Pair{pg.NodeID(f.Args[0].(int64)), pg.NodeID(f.Args[1].(int64))}
}

func canonical(p whatif.Pair) whatif.Pair {
	if p[1] < p[0] {
		return whatif.Pair{p[1], p[0]}
	}
	return p
}

func sortedPairs(m map[whatif.Pair]bool) []whatif.Pair {
	out := make([]whatif.Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return out[i][0] < out[j][0] || (out[i][0] == out[j][0] && out[i][1] < out[j][1])
	})
	return out
}

func diffPairSets(t *testing.T, what string, got, want map[whatif.Pair]bool) {
	t.Helper()
	if len(got) == len(want) {
		same := true
		for p := range want {
			if !got[p] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	t.Errorf("%s mismatch:\n  got  %v\n  want %v", what, sortedPairs(got), sortedPairs(want))
}

// chainGraph builds a, b, c companies with a owning 60% of b.
func chainGraph() (*pg.Graph, [3]pg.NodeID) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	g.MustAddEdge(pg.LabelShareholding, a, b, pg.Properties{pg.WeightProp: 0.6})
	return g, [3]pg.NodeID{a, b, c}
}

func TestIncrementalEdgeAdd(t *testing.T) {
	g, ids := chainGraph()
	a, b, c := ids[0], ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)

	if bl := d.maintained(); !controls(bl, a, b) {
		t.Fatalf("seeded baseline misses control(a,b): %v", bl.Control)
	}

	// b buys 60% of c: control propagates down the chain (a controls b's
	// stake), accown(a,c) = 0.36 crosses the close-link threshold.
	d.commit(func(o *pg.Overlay) {
		if _, err := o.AddShare(b, c, 0.6); err != nil {
			t.Fatal(err)
		}
	})
	if len(d.applyErrs) > 0 {
		t.Fatalf("incremental apply failed: %v", d.applyErrs)
	}
	bl := d.maintained()
	for _, p := range []whatif.Pair{{a, b}, {b, c}, {a, c}} {
		if !controls(bl, p[0], p[1]) {
			t.Errorf("maintained control misses %v: %v", p, bl.Control)
		}
	}
	for _, p := range []whatif.Pair{{a, b}, {b, c}, {a, c}} {
		if bl.CloseLink[canonical(p)] == 0 {
			t.Errorf("maintained closelink misses %v: %v", p, bl.CloseLink)
		}
	}
	checkAgainstOracle(t, "after add", bl, d.oracle())

	st := d.m.Stats()
	if st.IncrementalCommits != 1 || !st.Valid {
		t.Errorf("stats = %+v, want 1 incremental commit, valid", st)
	}
	if st.ControlChanged == 0 || st.CloseLinkChanged == 0 {
		t.Errorf("stats did not record derived changes: %+v", st)
	}
}

func TestIncrementalEdgeRemoveAndReweight(t *testing.T) {
	g, ids := chainGraph()
	a, b, c := ids[0], ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)

	var bc pg.EdgeID
	d.commit(func(o *pg.Overlay) {
		var err error
		if bc, err = o.AddShare(b, c, 0.6); err != nil {
			t.Fatal(err)
		}
	})

	// Reweight below the control threshold but above the close-link one.
	d.commit(func(o *pg.Overlay) {
		if err := o.SetEdgeWeight(bc, 0.3); err != nil {
			t.Fatal(err)
		}
	})
	if len(d.applyErrs) > 0 {
		t.Fatalf("incremental apply failed: %v", d.applyErrs)
	}
	bl := d.maintained()
	if controls(bl, b, c) || controls(bl, a, c) {
		t.Errorf("control survived reweight to 0.3: %v", bl.Control)
	}
	if bl.CloseLink[canonical(whatif.Pair{b, c})] == 0 {
		t.Errorf("closelink(b,c) lost despite 0.3 >= %v: %v", bl.Threshold, bl.CloseLink)
	}
	checkAgainstOracle(t, "after reweight", bl, d.oracle())

	// Remove the edge entirely: everything below b disappears.
	d.commit(func(o *pg.Overlay) {
		if !o.RemoveEdge(bc) {
			t.Fatal("RemoveEdge returned false")
		}
	})
	if len(d.applyErrs) > 0 {
		t.Fatalf("incremental apply failed: %v", d.applyErrs)
	}
	bl = d.maintained()
	if bl.CloseLink[canonical(whatif.Pair{b, c})] > 0 {
		t.Errorf("closelink(b,c) survived edge removal: %v", bl.CloseLink)
	}
	checkAgainstOracle(t, "after remove", bl, d.oracle())
}

func TestIncrementalNodeRemove(t *testing.T) {
	g, ids := chainGraph()
	b, c := ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)
	d.commit(func(o *pg.Overlay) {
		if _, err := o.AddShare(b, c, 0.6); err != nil {
			t.Fatal(err)
		}
	})

	// Removing b takes its incident edges with it; a's whole cone collapses.
	d.commit(func(o *pg.Overlay) {
		if !o.RemoveNode(b) {
			t.Fatal("RemoveNode returned false")
		}
	})
	if len(d.applyErrs) > 0 {
		t.Fatalf("incremental apply failed: %v", d.applyErrs)
	}
	bl := d.maintained()
	if len(bl.Control) != 0 || len(bl.CloseLink) != 0 {
		t.Errorf("derived state survived removing the middle node: control=%v closelink=%v",
			bl.Control, bl.CloseLink)
	}
	checkAgainstOracle(t, "after node remove", bl, d.oracle())
}

func TestIrrelevantCommitSkips(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)

	// A person node with a family edge cannot move the ownership relations.
	d.commit(func(o *pg.Overlay) {
		p1 := o.AddNode(pg.LabelPerson, pg.Properties{"name": "P1"})
		p2 := o.AddNode(pg.LabelPerson, pg.Properties{"name": "P2"})
		o.MustAddEdge(pg.LabelPartnerOf, p1, p2, nil)
	})
	if len(d.applyErrs) > 0 {
		t.Fatalf("apply failed: %v", d.applyErrs)
	}
	st := d.m.Stats()
	if st.SkippedCommits != 1 || st.IncrementalCommits != 0 {
		t.Errorf("stats = %+v, want exactly one skipped commit", st)
	}
	// The skip still advances the maintained sequence.
	if d.maintained() == nil {
		t.Fatal("baseline lost after skipped commit")
	}
}

func TestBaselineMismatches(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	seq := d.vs.Current().Seq()

	if d.m.Baseline(seq+1, d.m.threshold) != nil {
		t.Error("Baseline returned state for a future sequence")
	}
	if d.m.Baseline(seq, d.m.threshold+0.1) != nil {
		t.Error("Baseline returned state for a different threshold")
	}
	if d.m.Baseline(seq, 0) == nil && d.m.threshold == whatif.DefaultThreshold {
		t.Error("Baseline(seq, 0) should resolve 0 to the default threshold")
	}
}

func TestSeedRejectsThresholdMismatch(t *testing.T) {
	g, _ := chainGraph()
	ctx := context.Background()
	bl, err := whatif.ComputeBaseline(ctx, g, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	m := New(whatif.DefaultThreshold)
	if err := m.seed(0, bl); err == nil {
		t.Fatal("Seed accepted a baseline at a different threshold")
	}
}

func TestResetAndReseed(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	ctx := context.Background()
	cur := d.vs.Current()

	d.m.Reset(0)
	if d.m.Baseline(cur.Seq(), d.m.threshold) != nil {
		t.Fatal("Baseline served after Reset")
	}
	if err := d.m.Apply(ctx, cur.View(), cur.Seq(), cur.Seq()+1, nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Apply on invalid maintainer = %v, want ErrInvalid", err)
	}
	st := d.m.Stats()
	if st.Invalidations != 1 || st.Valid {
		t.Errorf("stats = %+v, want one invalidation, invalid", st)
	}

	if err := d.m.Init(ctx, cur.View(), cur.Seq()); err != nil {
		t.Fatalf("re-Init: %v", err)
	}
	if d.m.Baseline(cur.Seq(), d.m.threshold) == nil {
		t.Fatal("Baseline missing after re-Init")
	}
}

func TestMalformedJournalInvalidates(t *testing.T) {
	g, _ := chainGraph()
	d := newDriver(t, g, whatif.DefaultThreshold)
	cur := d.vs.Current()
	err := d.m.Apply(context.Background(), cur.View(), cur.Seq(), cur.Seq()+1,
		[]pg.Mutation{{Kind: pg.MutAddEdge}}) // edge mutation without an edge
	if err == nil {
		t.Fatal("Apply accepted a malformed mutation")
	}
	if d.m.Baseline(cur.Seq(), d.m.threshold) != nil {
		t.Fatal("Baseline survived a malformed journal")
	}
}

func TestJournalGapInvalidates(t *testing.T) {
	g, ids := chainGraph()
	b, c := ids[1], ids[2]
	d := newDriver(t, g, whatif.DefaultThreshold)
	cur := d.vs.Current()
	// A journal claiming to start two sequences ahead means a commit was
	// missed; applying it would silently diverge, so the maintainer refuses.
	o := pg.NewOverlay(cur.View())
	if _, err := o.AddShare(b, c, 0.6); err != nil {
		t.Fatal(err)
	}
	journal, err := o.Journal()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.m.Apply(context.Background(), o, cur.Seq()+1, cur.Seq()+2, journal); err == nil {
		t.Fatal("Apply accepted a journal with a sequence gap")
	}
	if d.m.Baseline(cur.Seq(), d.m.threshold) != nil {
		t.Fatal("Baseline survived a journal gap")
	}
	if st := d.m.Stats(); st.Invalidations != 1 {
		t.Errorf("stats = %+v, want one invalidation", st)
	}
}

// oracleAt recomputes the full baseline of one version from scratch.
func (d *driver) oracleAt(ver *store.Version) *whatif.Baseline {
	d.t.Helper()
	return programOracle(d.t, ver.View(), d.m.threshold)
}

// baselineAt asks the lazy maintainer for the baseline of one pinned version.
func (d *driver) baselineAt(ver *store.Version, threshold float64) *whatif.Baseline {
	d.t.Helper()
	bl, err := d.m.BaselineAt(context.Background(), ver.View(), ver.Seq(), threshold)
	if err != nil {
		d.t.Fatalf("BaselineAt seq %d: %v", ver.Seq(), err)
	}
	return bl
}

// TestLazyDrainStopsAtThePin: a reader pinned behind the newest commit is
// answered for ITS view — journals past its pin stay queued — a later reader
// drains the rest incrementally, and a reader behind the maintained state
// gets a full chase that does not drag the maintainer backwards.
func TestLazyDrainStopsAtThePin(t *testing.T) {
	g, ids := chainGraph()
	a, b, c := ids[0], ids[1], ids[2]
	d := newDriverFed(t, g, whatif.DefaultThreshold, true)
	v1 := d.commit(func(o *pg.Overlay) { o.AddShare(b, c, 0.6) })
	v2 := d.commit(func(o *pg.Overlay) { o.AddShare(a, c, 0.1) })
	v3 := d.commit(func(o *pg.Overlay) { o.RemoveEdge(o.EdgesWithLabel(pg.LabelShareholding)[0]) })
	if st := d.m.Stats(); st.IncrementalCommits+st.SkippedCommits != 0 {
		t.Fatalf("Observe ran maintenance at commit time: %+v", st)
	}

	checkAgainstOracle(t, "reader at v1", d.baselineAt(v1, 0), d.oracleAt(v1))
	if st := d.m.Stats(); st.IncrementalCommits != 1 || st.Seq != v1.Seq() {
		t.Fatalf("after the v1 reader: %+v, want exactly v1's journal drained", st)
	}
	checkAgainstOracle(t, "reader at v3", d.baselineAt(v3, 0), d.oracleAt(v3))
	checkAgainstOracle(t, "reader behind, at v2", d.baselineAt(v2, 0), d.oracleAt(v2))
	st := d.m.Stats()
	if st.FullRebuilds != 1 || st.Invalidations != 0 || st.Seq != v3.Seq() || !st.Valid {
		t.Fatalf("stats = %+v, want the one Init rebuild, no invalidation, still at v3", st)
	}
	if d.m.Baseline(v3.Seq(), 0) == nil {
		t.Fatal("the reader behind regressed the maintained state")
	}
}

// TestOtherThresholdIsCachedPerVersion: a threshold the maintainer does not
// maintain is chased once per version, not once per call.
func TestOtherThresholdIsCachedPerVersion(t *testing.T) {
	g, ids := chainGraph()
	d := newDriverFed(t, g, whatif.DefaultThreshold, true)
	v0 := d.vs.Current()
	first := d.baselineAt(v0, 0.35)
	if first.Threshold != 0.35 {
		t.Fatalf("baseline threshold = %v, want 0.35", first.Threshold)
	}
	if again := d.baselineAt(v0, 0.35); again != first {
		t.Fatal("second BaselineAt at the same (seq, threshold) re-chased")
	}
	v1 := d.commit(func(o *pg.Overlay) { o.AddShare(ids[1], ids[2], 0.6) })
	if next := d.baselineAt(v1, 0.35); next == first {
		t.Fatal("cached baseline served across a commit")
	}
	d.m.Reset(0)
	if d.m.other.Load() != nil {
		t.Fatal("Reset kept the other-threshold cache")
	}
	if st := d.m.Stats(); st.FullRebuilds != 1 {
		t.Fatalf("other-threshold chases touched the maintained state: %+v", st)
	}
}

// TestUnseededMaintainerDropsJournals: Observe is free until something is
// seeded, a seed older than a dropped journal is refused (it could never
// catch up), and the first BaselineAt seeds.
func TestUnseededMaintainerDropsJournals(t *testing.T) {
	g, ids := chainGraph()
	ctx := context.Background()
	vs := store.NewVersioned(g)
	m := New(0)
	vs.SetCommitHook(func(next *store.Version, journal []pg.Mutation) { m.Observe(next.Seq(), journal...) })
	v0 := vs.Current()
	stale, err := whatif.ComputeBaseline(ctx, v0.View(), 0)
	if err != nil {
		t.Fatal(err)
	}
	txn := vs.Begin()
	if _, err := txn.Overlay().AddShare(ids[1], ids[2], 0.6); err != nil {
		t.Fatal(err)
	}
	v1, err := txn.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.queue) != 0 {
		t.Fatal("Observe queued a journal with nothing seeded")
	}
	if err := m.seed(v0.Seq(), stale); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Valid || st.FullRebuilds != 0 {
		t.Fatalf("a seed behind a dropped journal was accepted: %+v", st)
	}
	bl, err := m.BaselineAt(ctx, v1.View(), v1.Seq(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); !st.Valid || st.FullRebuilds != 1 || st.Seq != v1.Seq() {
		t.Fatalf("first BaselineAt did not seed: %+v", st)
	}
	if !controls(bl, ids[1], ids[2]) {
		t.Fatalf("seeded baseline misses control(b, c): %v", bl.Control)
	}

	// A Reset forgets the dropped journal too — after a follower bootstrap
	// the sequence may restart below it — but not the replaced graph:
	// readers may still hold its versions, at any seq below the floor Reset
	// is given, so seeds from there are refused and seeds at the floor land.
	floor := v1.Seq() + 1
	m.Reset(floor)
	m.Observe(floor + 5)
	m.Reset(floor)
	for _, seq := range []uint64{v0.Seq(), v1.Seq()} {
		if err := m.seed(seq, stale); err != nil {
			t.Fatal(err)
		}
		if st := m.Stats(); st.Valid {
			t.Fatalf("a seed at %d below the floor %d was accepted: %+v", seq, floor, st)
		}
	}
	if err := m.seed(floor, stale); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); !st.Valid || st.Seq != floor {
		t.Fatalf("a seed at the floor after Reset was refused: %+v", st)
	}
}

// TestJournalBehindThePinReseeds: a version is pinnable a moment before its
// commit hook delivers the journal. The maintainer must not advance to that
// pin on the journals it has — it chases in full and re-seeds — and the late
// journal, already reflected, is skipped by the next drain.
func TestJournalBehindThePinReseeds(t *testing.T) {
	g, ids := chainGraph()
	d := newDriverFed(t, g, whatif.DefaultThreshold, true)
	var late [][]pg.Mutation
	d.vs.SetCommitHook(func(_ *store.Version, journal []pg.Mutation) { late = append(late, journal) })
	v1 := d.commit(func(o *pg.Overlay) { o.AddShare(ids[1], ids[2], 0.6) })

	checkAgainstOracle(t, "reader ahead of the journal", d.baselineAt(v1, 0), d.oracleAt(v1))
	if st := d.m.Stats(); st.FullRebuilds != 2 || st.IncrementalCommits != 0 {
		t.Fatalf("stats = %+v, want a second full rebuild and nothing incremental", st)
	}
	d.m.Observe(v1.Seq(), late[0]...)
	v2 := d.commit(func(o *pg.Overlay) { o.AddShare(ids[0], ids[2], 0.1) })
	d.m.Observe(v2.Seq(), late[1]...)
	checkAgainstOracle(t, "reader at v2", d.baselineAt(v2, 0), d.oracleAt(v2))
	if st := d.m.Stats(); st.FullRebuilds != 2 || st.IncrementalCommits != 1 {
		t.Fatalf("stats = %+v, want v2 maintained incrementally on top of the re-seed", st)
	}
}

// TestObserveBacklogInvalidates: past queueCap mutations a rebuild on the
// next read beats replaying the backlog, so the backlog is dropped.
func TestObserveBacklogInvalidates(t *testing.T) {
	g, _ := chainGraph()
	d := newDriverFed(t, g, whatif.DefaultThreshold, true)
	d.m.Observe(1, make([]pg.Mutation, queueCap)...)
	if st := d.m.Stats(); !st.Valid || st.Invalidations != 0 {
		t.Fatalf("a backlog at the cap invalidated: %+v", st)
	}
	d.m.Observe(2, pg.Mutation{})
	if st := d.m.Stats(); st.Valid || st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want the overflow to invalidate", st)
	}
	if d.m.queue != nil || d.m.pending != 0 {
		t.Fatal("invalidation kept the backlog")
	}
}

// TestInvalidationFencesDiscardedJournals: an invalidation throws the queued
// journals away, so a reader pinned behind them must not re-seed the
// maintainer at its own sequence — the next drain would apply only the newer
// journals and silently skip the discarded commits.
func TestInvalidationFencesDiscardedJournals(t *testing.T) {
	for _, tc := range []struct {
		name     string
		overflow bool // v2's journal overflows queueCap; else v2's drain is cancelled
	}{
		{"failed drain", false},
		{"backlog overflow", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, ids := chainGraph()
			a, c := ids[0], ids[2]
			dd := g.AddNode(pg.LabelCompany, pg.Properties{"name": "D"})
			e := g.AddNode(pg.LabelCompany, pg.Properties{"name": "E"})
			d := newDriverFed(t, g, whatif.DefaultThreshold, true)
			v0 := d.vs.Current()
			d.vs.SetCommitHook(func(next *store.Version, journal []pg.Mutation) {
				if tc.overflow && next.Seq() == v0.Seq()+2 { // v2: one record per commit
					journal = append(make([]pg.Mutation, queueCap), journal...)
				}
				d.m.Observe(next.Seq(), journal...)
			})
			v1 := d.commit(func(o *pg.Overlay) { o.AddShare(a, c, 0.1) })
			v2 := d.commit(func(o *pg.Overlay) { o.AddShare(dd, e, 0.7) })
			if !tc.overflow {
				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := d.m.BaselineAt(cancelled, v2.View(), v2.Seq(), 0); err == nil {
					t.Fatal("BaselineAt answered under a cancelled context")
				}
			}
			if st := d.m.Stats(); st.Valid || st.Invalidations != 1 {
				t.Fatalf("stats = %+v, want one invalidation", st)
			}

			checkAgainstOracle(t, "reader behind, at v1", d.baselineAt(v1, 0), d.oracleAt(v1))
			if st := d.m.Stats(); st.Valid {
				t.Fatalf("a seed behind the discarded v2 journal was accepted: %+v", st)
			}
			v3 := d.commit(func(o *pg.Overlay) { o.AddShare(a, c, 0.2) })
			got := d.baselineAt(v3, 0)
			if !controls(got, dd, e) {
				t.Fatalf("baseline at v3 lost v2's control(D, E): %v", got.Control)
			}
			checkAgainstOracle(t, "reader at v3", got, d.oracleAt(v3))
			if st := d.m.Stats(); !st.Valid || st.Seq != v3.Seq() || st.IncrementalCommits != 0 || st.FullRebuilds != 2 {
				t.Fatalf("stats = %+v, want a re-seed at v3 and nothing incremental", st)
			}
		})
	}
}

// TestObserveDoesNotWaitForADrain: a reader's drain chases under the
// maintainer's lock, and the version chain calls Observe under its commit
// lock, so Observe must not share the drain's lock — else a slow what-if
// would stall every commit and replicated frame behind it. A drain parked
// mid-chase leaves Observe free to queue, and the queued journal is then
// maintained like any other.
func TestObserveDoesNotWaitForADrain(t *testing.T) {
	g, ids := chainGraph()
	a, b, c := ids[0], ids[1], ids[2]
	var park atomic.Bool
	parked, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	defer releaseOnce.Do(func() { close(release) })
	d := &driver{t: t, vs: store.NewVersioned(g), lazy: true, m: New(whatif.DefaultThreshold,
		datalog.WithHook(datalog.Hook{RuleStart: func(string, int) {
			if park.CompareAndSwap(true, false) {
				close(parked)
				<-release
			}
		}}))}
	v0 := d.vs.Current()
	if err := d.m.Init(context.Background(), v0.View(), v0.Seq()); err != nil {
		t.Fatal(err)
	}
	d.vs.SetCommitHook(func(next *store.Version, journal []pg.Mutation) { d.m.Observe(next.Seq(), journal...) })
	v1 := d.commit(func(o *pg.Overlay) { o.AddShare(b, c, 0.6) })

	park.Store(true)
	drained := make(chan error, 1)
	go func() {
		_, err := d.m.BaselineAt(context.Background(), v1.View(), v1.Seq(), 0)
		drained <- err
	}()
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the drain never reached the chase")
	}
	observed := make(chan *store.Version, 1)
	go func() { observed <- d.commit(func(o *pg.Overlay) { o.AddShare(a, c, 0.3) }) }()
	var v2 *store.Version
	select {
	case v2 = <-observed:
	case <-time.After(5 * time.Second):
		t.Fatal("a commit's Observe waited for a drain parked mid-chase")
	}
	releaseOnce.Do(func() { close(release) })
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "after the parked drain", d.baselineAt(v2, 0), d.oracleAt(v2))
	if st := d.m.Stats(); st.FullRebuilds != 1 || st.IncrementalCommits != 2 {
		t.Fatalf("stats = %+v, want both commits maintained incrementally", st)
	}
}
