package datalog

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vadalink/internal/faultinject"
)

// divergingProgram invents a fresh null per derivation and feeds it back:
// p(a) → q(a, ν1) → p(ν1) → q(ν1, ν2) → … — the classic non-terminating
// (non-warded) chase.
const divergingProgram = `
	p(X) -> q(X, Y).
	q(X, Y) -> p(Y).
`

func divergingEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	prog, err := Parse(divergingProgram)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prog, opts...)
	if err != nil {
		t.Fatal(err)
	}
	e.Assert(Fact{Pred: "p", Args: []any{"a"}})
	return e
}

func TestMaxRoundsTypedError(t *testing.T) {
	e := divergingEngine(t, WithMaxRounds(10))
	err := e.Run()
	if err == nil {
		t.Fatal("diverging program terminated")
	}
	var be *BudgetExceededError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *BudgetExceededError", err, err)
	}
	if be.Limit != LimitRounds {
		t.Errorf("Limit = %q, want %q", be.Limit, LimitRounds)
	}
	if be.Bound != 10 || be.Rounds != 10 {
		t.Errorf("Bound = %d, Rounds = %d, want 10, 10", be.Bound, be.Rounds)
	}
	// The message must name the tripped limit and suggest both remediations
	// (raise the bound for warded programs vs. fix the rule set).
	for _, want := range []string{"max-rounds", "MaxRounds=10", "warded", "fix the recursion"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error text misses %q: %s", want, err)
		}
	}
	if be.Facts == 0 || e.DerivedCount() != be.Facts {
		t.Errorf("Facts = %d, DerivedCount = %d, want matching non-zero", be.Facts, e.DerivedCount())
	}
	// Partial results stay readable.
	if n := len(e.Facts("p")); n == 0 {
		t.Error("no partial p facts after round-limit trip")
	}
}

func TestDeadlineStopsChase(t *testing.T) {
	// More rounds than the chase runs before the context stops it.
	e := divergingEngine(t, WithMaxRounds(1_000_000))
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := e.RunContext(ctx)
	elapsed := time.Since(start)
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitDeadline {
		t.Fatalf("err = %v, want deadline BudgetExceededError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("deadline trip does not unwrap to context.DeadlineExceeded")
	}
	if elapsed > 5*time.Second {
		t.Errorf("chase ran %v past a 50ms deadline", elapsed)
	}
}

func TestCancellationStopsChase(t *testing.T) {
	// More rounds than the chase runs before the context stops it.
	e := divergingEngine(t, WithMaxRounds(1_000_000))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	err := e.RunContext(ctx)
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitCancelled {
		t.Fatalf("err = %v, want cancellation BudgetExceededError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Error("cancellation trip does not unwrap to context.Canceled")
	}
}

func TestMaxFactsBudget(t *testing.T) {
	e := divergingEngine(t, WithBudget(Budget{MaxFacts: 100}))
	err := e.Run()
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitFacts {
		t.Fatalf("err = %v, want max-facts BudgetExceededError", err)
	}
	if be.Bound != 100 {
		t.Errorf("Bound = %d, want 100", be.Bound)
	}
	// The trip is cooperative: a bounded overshoot is fine, a runaway is not.
	if n := e.DerivedCount(); n <= 100 || n > 200 {
		t.Errorf("DerivedCount = %d, want just past 100", n)
	}
	if len(e.Facts("q")) == 0 {
		t.Error("no partial q facts after fact-budget trip")
	}
}

func TestMaxDeltaQueueBudget(t *testing.T) {
	prog, err := Parse(`e(X, Y) -> p(X, Y).`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prog, WithBudget(Budget{MaxDeltaQueue: 10}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		e.Assert(Fact{Pred: "e", Args: []any{int64(i), int64(i + 1)}})
	}
	runErr := e.Run()
	var be *BudgetExceededError
	if !errors.As(runErr, &be) || be.Limit != LimitDeltaQueue {
		t.Fatalf("err = %v, want max-delta-queue BudgetExceededError", runErr)
	}
}

func TestBudgetZeroIsUnlimited(t *testing.T) {
	prog, err := Parse(`e(X, Y) -> p(X, Y). p(X, Y), e(Y, Z) -> p(X, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		e.Assert(Fact{Pred: "e", Args: []any{int64(i), int64(i + 1)}})
	}
	if err := e.RunContext(context.Background()); err != nil {
		t.Fatalf("zero budget tripped: %v", err)
	}
	if n := len(e.Facts("p")); n != 50*51/2 {
		t.Errorf("p facts = %d, want %d", n, 50*51/2)
	}
}

// TestSlowStratumHonorsDeadline forces slow rounds through the fault
// injector and checks that the deadline still interrupts the chase between
// rounds.
func TestSlowStratumHonorsDeadline(t *testing.T) {
	faultinject.Set(faultinject.SiteDatalogRound, func() {
		time.Sleep(5 * time.Millisecond)
	})
	t.Cleanup(faultinject.Reset)

	prog, err := Parse(`e(X, Y) -> p(X, Y). p(X, Y), e(Y, Z) -> p(X, Z).`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(prog)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.Assert(Fact{Pred: "e", Args: []any{int64(i), int64(i + 1)}})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	runErr := e.RunContext(ctx)
	var be *BudgetExceededError
	if !errors.As(runErr, &be) || be.Limit != LimitDeadline {
		t.Fatalf("err = %v, want deadline BudgetExceededError", runErr)
	}
}

func TestRunContextAfterTripIsReusable(t *testing.T) {
	// A budget-stopped engine can be re-run with a bigger budget and makes
	// further progress (the chase is monotone, derived facts persist).
	e := divergingEngine(t, WithBudget(Budget{MaxFacts: 50}))
	if err := e.Run(); err == nil {
		t.Fatal("want trip")
	}
	before := len(e.Facts("q"))
	e.opts.Budget.MaxFacts = 120
	err := e.Run()
	var be *BudgetExceededError
	if !errors.As(err, &be) || be.Limit != LimitFacts {
		t.Fatalf("second run err = %v", err)
	}
	if after := len(e.Facts("q")); after <= before {
		t.Errorf("no progress on re-run: %d -> %d", before, after)
	}
}

func ExampleBudgetExceededError() {
	prog, _ := Parse(divergingProgram)
	e, _ := NewEngine(prog, WithMaxRounds(4))
	e.Assert(Fact{Pred: "p", Args: []any{"a"}})
	err := e.Run()
	var be *BudgetExceededError
	if errors.As(err, &be) {
		fmt.Println(be.Limit, be.Rounds)
	}
	// Output: max-rounds 4
}
