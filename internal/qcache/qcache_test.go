package qcache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vadalink/internal/ivm"
	"vadalink/internal/pg"
)

func TestHitMissAndSeqStamp(t *testing.T) {
	c := New(1 << 20)
	v, seq, hit, err := c.Do("k1", ClassDerived, 7, func() ([]byte, error) { return []byte("answer"), nil })
	if err != nil || hit || string(v) != "answer" || seq != 7 {
		t.Fatalf("first Do: v=%q seq=%d hit=%v err=%v", v, seq, hit, err)
	}
	v, seq, hit, err = c.Do("k1", ClassDerived, 9, func() ([]byte, error) {
		t.Fatal("compute must not run on a hit")
		return nil, nil
	})
	if err != nil || !hit || string(v) != "answer" || seq != 7 {
		t.Fatalf("second Do must hit at the original seq: v=%q seq=%d hit=%v err=%v", v, seq, hit, err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(1 << 20)
	boom := errors.New("boom")
	if _, _, _, err := c.Do("k", ClassDerived, 1, func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	calls := 0
	if _, _, hit, err := c.Do("k", ClassDerived, 1, func() ([]byte, error) { calls++; return []byte("ok"), nil }); err != nil || hit {
		t.Fatalf("after an error the next Do must recompute: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute calls: %d", calls)
	}
}

func TestSingleFlight(t *testing.T) {
	c := New(1 << 20)
	var computes atomic.Int64
	gate := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, _, err := c.Do("hot", ClassDerived, 3, func() ([]byte, error) {
				computes.Add(1)
				<-gate
				return []byte("once"), nil
			})
			if err != nil || string(v) != "once" {
				t.Errorf("worker: v=%q err=%v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("thundering herd ran %d computations, want 1", n)
	}
}

// TestWaiterSharesTheComputation reaches Do's single-flight wait on every
// run, not only when a race happens to: the first caller's computation holds
// until a second caller is parked waiting for it. The waiter runs nothing of
// its own and gets the first caller's payload and error, as a hit at the
// computation's seq — a partial payload with its error included.
func TestWaiterSharesTheComputation(t *testing.T) {
	boom := errors.New("boom")
	for _, want := range []struct {
		val string
		err error
	}{{"once", nil}, {"partial", boom}} {
		c := New(1 << 20)
		started, release, first := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(first)
			_, _, _, _ = c.Do("hot", ClassDerived, 3, func() ([]byte, error) {
				close(started)
				<-release
				return []byte(want.val), want.err
			})
		}()
		<-started
		type result struct {
			val      []byte
			seq      uint64
			hit      bool
			err      error
			computed bool
		}
		waited := make(chan result)
		go func() {
			var r result
			r.val, r.seq, r.hit, r.err = c.Do("hot", ClassDerived, 4, func() ([]byte, error) {
				r.computed = true
				return []byte("own"), nil
			})
			waited <- r
		}()
		for deadline := time.Now().Add(10 * time.Second); !waiterParked(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("the second caller never waited on the first's computation")
			}
		}
		close(release)
		r := <-waited
		<-first
		if r.computed || string(r.val) != want.val || r.seq != 3 || !r.hit || r.err != want.err {
			t.Errorf("waiter got %q at seq %d, hit %v, err %v, computed %v; want %q at seq 3, hit, err %v, not computed",
				r.val, r.seq, r.hit, r.err, r.computed, want.val, want.err)
		}
	}
}

// waiterParked reports whether some goroutine is blocked in Do itself on a
// channel receive: the wait for another caller's computation.
func waiterParked() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		header, frames, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, "vadalink/internal/qcache.(*Cache).Do(") {
			return true
		}
	}
	return false
}

func TestByteBudgetEviction(t *testing.T) {
	// Budget fits roughly 4 of the 1 KiB entries (plus overhead).
	c := New(4 * (1024 + 8 + entryOverhead))
	payload := make([]byte, 1024)
	for i := 0; i < 8; i++ {
		c.Put(fmt.Sprintf("key-%03d", i), ClassDerived, uint64(i), payload)
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 4 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	// LRU: the oldest keys are gone, the newest survive.
	if _, _, ok := c.Get("key-000"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, _, ok := c.Get("key-007"); !ok {
		t.Fatal("newest entry should have survived")
	}
	// An entry larger than the whole budget is refused, not thrashed.
	c.Put("giant", ClassDerived, 9, make([]byte, 1<<20))
	if _, _, ok := c.Get("giant"); ok {
		t.Fatal("over-budget entry must not be stored")
	}
}

// Reaches with no graph behind them: the empty journal moves nothing, a
// malformed one (a mutation of kind 0) everything.
var (
	reachesNothing    = ivm.ReachOf(pg.New(), nil)
	reachesEverything = ivm.ReachOf(pg.New(), []pg.Mutation{{}})
)

// TestInvalidationFollowsIVMClassifier pins the eviction rule end to end on
// one fixture — P owns A owns B, B and C hold each other, D owns E in a
// component of its own — against the reach ivm.ReachOf computes for each
// journal: ClassAny goes on every commit, unanchored derived entries on
// every relevant one, and an anchored entry only when the commit reaches
// every side it binds. Survivors keep their original seq, and each one a
// relevant commit leaves standing counts as Kept.
func TestInvalidationFollowsIVMClassifier(t *testing.T) {
	g := pg.New()
	id := map[string]pg.NodeID{"P": g.AddNode(pg.LabelPerson, nil)}
	for _, n := range []string{"A", "B", "C", "D", "E"} {
		id[n] = g.AddNode(pg.LabelCompany, nil)
	}
	g.MustAddEdgeWeighted(id["P"], id["A"], 0.6)
	ab := g.MustAddEdgeWeighted(id["A"], id["B"], 0.6)
	g.MustAddEdgeWeighted(id["B"], id["C"], 0.7)
	cb := g.MustAddEdgeWeighted(id["C"], id["B"], 0.3)
	g.MustAddEdgeWeighted(id["D"], id["E"], 0.8)
	node := func(n string) *pg.NodeID { v := id[n]; return &v }

	classes := map[string]Class{
		"control:P": Anchored(node("P"), nil),
		"control:D": Anchored(node("D"), nil),
		"ubo:C":     Anchored(nil, node("C")),
		"ubo:E":     Anchored(nil, node("E")),
		"pair:P:C":  Anchored(node("P"), node("C")),
		"pair:D:E":  Anchored(node("D"), node("E")),
		"pair:P:E":  Anchored(node("P"), node("E")), // needs both sides reached
		"pairs":     Anchored(nil, nil),             // == ClassDerived
		"custom":    ClassAny,
	}
	anchored := []string{"control:P", "control:D", "ubo:C", "ubo:E", "pair:P:C", "pair:D:E", "pair:P:E"}
	derived := append([]string{"pairs"}, anchored...)
	pSide := []string{"control:P", "ubo:C", "pair:P:C"}
	dSide := []string{"control:D", "ubo:E", "pair:D:E"}

	cases := []struct {
		name     string
		mutate   func(o *pg.Overlay)
		journal  []pg.Mutation // used instead of mutate when set
		relevant bool
		survive  []string
	}{
		// A node add moves goals over company/person/ccand (unanchored) and
		// reaches no anchor: it has no edges.
		{name: "person add", relevant: true, survive: anchored,
			mutate: func(o *pg.Overlay) { o.AddNode(pg.LabelPerson, nil) }},
		{name: "family edge", mutate: func(o *pg.Overlay) {
			if _, err := o.AddEdge(pg.LabelFamily, id["P"], id["D"], nil); err != nil {
				t.Fatal(err)
			}
		}, survive: derived},
		{name: "company add", relevant: true, survive: anchored,
			mutate: func(o *pg.Overlay) { o.AddNode(pg.LabelCompany, nil) }},
		// Up = {A, P}, Down = {B, C}: P's own answers go, but P-about-E
		// stays — E is not downstream of the edit.
		{name: "reweight A->B", relevant: true, survive: append([]string{"pair:P:E"}, dSide...),
			mutate: func(o *pg.Overlay) {
				if err := o.SetEdgeWeight(ab, 0.9); err != nil {
					t.Fatal(err)
				}
			}},
		// Up = {C, B, A, P} over the post view (B still owns C), Down = {B, C}.
		{name: "edge removal inside a cycle", relevant: true, survive: append([]string{"pair:P:E"}, dSide...),
			mutate: func(o *pg.Overlay) { o.RemoveEdge(cb) }},
		// The journal removes D->E first, then D: Up = {D}, Down = {D, E}.
		{name: "node removal", relevant: true, survive: append([]string{"pair:P:E"}, pSide...),
			mutate: func(o *pg.Overlay) { o.RemoveNode(id["D"]) }},
		{name: "edge without edge", journal: []pg.Mutation{{Kind: pg.MutAddEdge}}, relevant: true},
		{name: "node without node", journal: []pg.Mutation{{Kind: pg.MutAddNode}}, relevant: true},
		{name: "unknown kind", journal: []pg.Mutation{{Kind: 99}}, relevant: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(1 << 20)
			for key, class := range classes {
				c.Put(key, class, 10, []byte(key))
			}
			var post pg.View = g
			journal := tc.journal
			if journal == nil {
				o := pg.NewOverlay(g)
				tc.mutate(o)
				journal, _ = o.Journal()
				post = o
			}
			r := ivm.ReachOf(post, journal)
			if r.Relevant() != tc.relevant {
				t.Fatalf("Relevant() = %v, want %v", r.Relevant(), tc.relevant)
			}
			c.OnCommit(11, r)
			want := map[string]bool{}
			for _, key := range tc.survive {
				want[key] = true
			}
			for key := range classes {
				_, seq, ok := c.Get(key)
				if ok != want[key] {
					t.Errorf("%s: survived = %v, want %v", key, ok, want[key])
				}
				if ok && seq != 10 {
					t.Errorf("%s: survivor re-stamped seq %d, want its original 10", key, seq)
				}
			}
			st := c.Stats()
			wantKept := uint64(0)
			if tc.relevant {
				wantKept = uint64(len(tc.survive))
			}
			if st.Kept != wantKept || st.Invalidations != uint64(len(classes)-len(tc.survive)) {
				t.Errorf("stats = %+v, want kept %d and %d invalidations", st, wantKept, len(classes)-len(tc.survive))
			}
		})
	}
}

// TestComputationBehindACommitIsNotStored is the race a handler runs into
// when it pins version S, a commit S+1 lands and is announced, and only then
// does its Do start: the answer computed on S is returned to the caller but
// never stored, so later readers cannot be served the pre-commit state.
func TestComputationBehindACommitIsNotStored(t *testing.T) {
	c := New(1 << 20)
	c.OnCommit(6, reachesNothing)
	v, seq, hit, err := c.Do("k", ClassDerived, 5, func() ([]byte, error) { return []byte("pinned at 5"), nil })
	if err != nil || hit || seq != 5 || string(v) != "pinned at 5" {
		t.Fatalf("Do behind the commit: v=%q seq=%d hit=%v err=%v", v, seq, hit, err)
	}
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("a computation pinned below the newest commit was stored")
	}
	// At (or past) the announced seq the answer is stored as usual.
	c.Do("k", ClassDerived, 6, func() ([]byte, error) { return []byte("pinned at 6"), nil })
	if _, seq, ok := c.Get("k"); !ok || seq != 6 {
		t.Fatalf("a computation at the committed seq was not stored (ok=%v seq=%d)", ok, seq)
	}
	// A bootstrap replaces the graph: readers of its old versions (seq 6
	// and below) may still be computing, and the sequence may restart below
	// theirs, so only computations at the floor or later are stored.
	c.Flush(7)
	for _, seq := range []uint64{6, 2} {
		c.Do("k", ClassDerived, seq, func() ([]byte, error) { return []byte("below the floor"), nil })
		if _, _, ok := c.Get("k"); ok {
			t.Fatalf("after Flush(7) a computation at seq %d was stored", seq)
		}
	}
	c.Do("k", ClassDerived, 7, func() ([]byte, error) { return []byte("after bootstrap"), nil })
	if _, seq, ok := c.Get("k"); !ok || seq != 7 {
		t.Fatalf("after Flush(7) a computation at seq 7 was not stored (ok=%v seq=%d)", ok, seq)
	}
}

// TestFlushSharesNothingAcross: a computation in flight when Flush lands, or
// started after it on a version below the floor, answers its own caller and
// nobody else — a reader of the new graph computes its own answer.
func TestFlushSharesNothingAcross(t *testing.T) {
	c := New(1 << 20)
	started, finish := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", ClassDerived, 5, func() ([]byte, error) {
			close(started)
			<-finish
			return []byte("old graph"), nil
		})
	}()
	<-started
	c.Flush(6)
	if v, _, hit, _ := c.Do("k", ClassDerived, 2, func() ([]byte, error) { return []byte("old graph, late"), nil }); hit || string(v) != "old graph, late" {
		t.Fatalf("a reader below the floor got %q (hit %v)", v, hit)
	}
	if v, seq, hit, _ := c.Do("k", ClassDerived, 6, func() ([]byte, error) { return []byte("new graph"), nil }); hit || seq != 6 || string(v) != "new graph" {
		t.Fatalf("a reader of the new graph got %q at seq %d (hit %v)", v, seq, hit)
	}
	close(finish)
	<-done
	if v, seq, ok := c.Get("k"); !ok || seq != 6 || string(v) != "new graph" {
		t.Fatalf("cache holds %q at seq %d (ok %v), want the new graph's answer", v, seq, ok)
	}
}

func TestFlushDuringInflightIsNotStored(t *testing.T) {
	c := New(1 << 20)
	started := make(chan struct{})
	finish := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, hit, err := c.Do("k", ClassDerived, 5, func() ([]byte, error) {
			close(started)
			<-finish
			return []byte("stale"), nil
		})
		// The caller still gets its answer (its request predates the commit)…
		if err != nil || hit || string(v) != "stale" {
			panic(fmt.Sprintf("inflight caller: v=%q hit=%v err=%v", v, hit, err))
		}
	}()
	<-started
	c.OnCommit(6, reachesEverything) // a commit lands mid-computation
	close(finish)
	<-done
	// …but the stale result must not serve post-commit readers.
	if _, _, ok := c.Get("k"); ok {
		t.Fatal("result computed before the commit must not be cached after it")
	}
}

func TestFlush(t *testing.T) {
	c := New(1 << 20)
	c.Put("a", ClassDerived, 1, []byte("x"))
	c.Put("b", ClassAny, 1, []byte("y"))
	c.Flush(0)
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 2 {
		t.Fatalf("after Flush: %+v", st)
	}
}

func TestDefaultBudget(t *testing.T) {
	c := New(0)
	if st := c.Stats(); st.MaxBytes != DefaultMaxBytes {
		t.Fatalf("default budget: %+v", st)
	}
}
