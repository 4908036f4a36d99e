package datalog

// Concurrency coverage for the lazily built indexes and the chase's
// cancellation, written to run under -race: concurrent read-only access after
// a Run, independent engines running at once, a deadline landed mid-chase
// through the faultinject harness, and builtin panic propagation.

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vadalink/internal/faultinject"
)

// closureProgram is a recursive reachability closure with a negated
// stratum: enough rounds and index probes to exercise the chase.
const closureProgram = `
own(X, Y, _) -> reach(X, Y).
reach(X, Y), own(Y, Z, _), X != Z -> reach(X, Z).
own(X, Y, W), not reach(Y, X) -> oneway(X, Y).
`

func closureEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e, err := NewEngine(MustParse(closureProgram), opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(randomEDB(rand.New(rand.NewSource(42))))
	return e
}

// TestConcurrentReadsAfterRun hammers the read-only accessors — including
// Match patterns that trigger lazy index builds — from many goroutines at
// once. Under -race this verifies the double-checked index publication.
func TestConcurrentReadsAfterRun(t *testing.T) {
	e := closureEngine(t)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	reach := e.Facts("reach")
	if len(reach) == 0 {
		t.Fatal("no reach facts derived")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := reach[(g*13+i)%len(reach)]
				// Probe both argument positions: each may build its index
				// lazily, racing with the other goroutines.
				if got := e.Match("reach", f.Args[0], nil); len(got) == 0 {
					t.Errorf("Match(reach, %v, _) empty", f.Args[0])
					return
				}
				if got := e.Match("reach", nil, f.Args[1]); len(got) == 0 {
					t.Errorf("Match(reach, _, %v) empty", f.Args[1])
					return
				}
				if !e.Has(f) {
					t.Errorf("Has(%v) = false", f)
					return
				}
				bs := e.Query(
					Atom{Pred: "reach", Terms: []Term{Variable("X"), Variable("Y")}},
					Atom{Pred: "own", Terms: []Term{Variable("Y"), Variable("Z"), Variable("W")}},
				)
				if len(bs) == 0 {
					t.Error("two-atom Query returned nothing")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentEngineRuns runs several independent engines at once — the
// faultinject registry and the runtime are the only shared state.
func TestConcurrentEngineRuns(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e, err := NewEngine(MustParse(closureProgram))
			if err != nil {
				t.Error(err)
				return
			}
			e.AssertAll(randomEDB(rand.New(rand.NewSource(int64(100 + g)))))
			if err := e.Run(); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestDeadlineMidChase cancels by deadline while rounds are stretched at the
// round boundary, then checks that the partial state stays readable and that
// a re-run reaches the fixpoint of an uninterrupted chase.
func TestDeadlineMidChase(t *testing.T) {
	e := closureEngine(t, WithBudget(Budget{CheckEvery: 1}))
	faultinject.Set(faultinject.SiteDatalogRound, func() { time.Sleep(20 * time.Millisecond) })
	t.Cleanup(faultinject.Reset)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := e.RunContext(ctx)
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitDeadline {
		t.Fatalf("want deadline trip, got %v", err)
	}

	_ = e.Facts("reach")
	faultinject.Reset()
	if err := e.Run(); err != nil {
		t.Fatalf("re-run after the deadline: %v", err)
	}
	want := closureEngine(t)
	if err := want.Run(); err != nil {
		t.Fatal(err)
	}
	preds := []string{"reach", "oneway"}
	if d := diffFactSets(engineFactSet(want, preds), engineFactSet(e, preds)); d != "missing=[] extra=[]" {
		t.Fatalf("re-run fact set diverges from an uninterrupted chase: %s", d)
	}
}

// TestWorkerPanicPropagates asserts the Builtin contract: a panic inside a
// builtin reaches the Run caller, and the engine recovers on a re-run.
func TestWorkerPanicPropagates(t *testing.T) {
	prog := MustParse(`own(X, Y, W), V = #boom(W) -> p(X, V).`)
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	e.RegisterBuiltin("boom", func(args []any) (any, error) { panic("builtin exploded") })
	e.AssertAll(randomEDB(rand.New(rand.NewSource(5))))
	func() {
		defer func() {
			if r := recover(); r != "builtin exploded" {
				t.Fatalf("Run caller recovered %v, want the builtin's panic", r)
			}
		}()
		_ = e.Run()
		t.Fatal("Run returned although a builtin panicked")
	}()

	// The bindings the panic left behind must not leak into a re-run.
	e.RegisterBuiltin("boom", func(args []any) (any, error) { return args[0], nil })
	if err := e.Run(); err != nil {
		t.Fatalf("re-run after the panic: %v", err)
	}
	if got, want := e.NumFacts("p"), len(e.Facts("own")); got == 0 || got > want {
		t.Fatalf("re-run derived %d p facts from %d own facts", got, want)
	}
}

// TestIndexMemoryBudget trips LimitIndexMemory on a tiny index budget and
// verifies the error names the limit and remediation works (NoIndex mode).
func TestIndexMemoryBudget(t *testing.T) {
	e := closureEngine(t, WithBudget(Budget{MaxIndexBytes: 64}))
	err := e.Run()
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitIndexMemory {
		t.Fatalf("want index-memory trip, got %v", err)
	}
	if e.IndexBytes() <= 64 {
		t.Fatalf("IndexBytes() = %d, want > budget", e.IndexBytes())
	}

	// Scan mode never builds indexes, so the same budget passes.
	noidx := closureEngine(t, WithNoIndex(), WithBudget(Budget{MaxIndexBytes: 64}))
	if err := noidx.Run(); err != nil {
		t.Fatalf("NoIndex run tripped: %v", err)
	}
	if noidx.IndexBytes() != 0 {
		t.Fatalf("NoIndex engine accrued %d index bytes", noidx.IndexBytes())
	}
}
