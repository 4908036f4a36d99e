package main

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"vadalink"
)

// On a full cross-holding (A and B holding 100 % of each other, B holding
// 15 % of C) the walk-sum Φ diverges. A Reasoner the facade builds stops at
// the facade's round bound with the engine's budget error, so the library
// subcommands that run one exit 1 instead of running on; a query the
// handler answers in process stops at the same bound and marks its answer
// truncated. Each round adds one accown row per growing pair, and the
// close-link rules wait for the final totals, so the rounds cost linear
// time.
func TestReasonerStopsOnAFullCrossHolding(t *testing.T) {
	b := vadalink.NewBuilder()
	b.Company("A")
	b.Company("B")
	b.Company("C")
	b.Own("A", "B", 1).Own("B", "A", 1).Own("B", "C", 0.15)
	g := b.Graph()
	in := writeGraph(t, g)

	var wg sync.WaitGroup
	for _, args := range [][]string{{"reason", "-in", in, "-task", "closelink"}, {"dot", "-in", in, "-annotate"}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, stderr := cli(args...); code != 1 || !strings.Contains(stderr, "budget exceeded: max-rounds") {
				t.Errorf("%q: exit %d, stderr %q; want 1 and the engine's round-budget error", args, code, stderr)
			}
		}()
	}
	// The handler answers a truncated chase with what it derived, marked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		args := []string{"query", "-in", in, "-goal", "closelink(X, Y)"}
		if code, stdout, _ := cli(args...); code != 0 || !strings.Contains(stdout, `"limit":"max-rounds"`) {
			t.Errorf("%q: exit %d, stdout %q; want 0 and an answer truncated at the round budget", args, code, stdout)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		var be *vadalink.BudgetExceededError
		if err := vadalink.NewReasoner(g, vadalink.TaskCloseLink).Run(); !errors.As(err, &be) {
			t.Errorf("NewReasoner(g, TaskCloseLink).Run() = %v, want a budget error: the walk sum diverges", err)
		}
	}()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second): // ~20ms each, ~0.2s under -race
		t.Fatal("the runs did not return within 5s")
	}
}
