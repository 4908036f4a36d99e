//go:build !race

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
// subcommands that run one exit 1 instead of running on. The race detector
// slows that chase past any useful watchdog (over a minute per run), so this
// file is left out of race builds.
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
	case <-time.After(30 * time.Second): // ~3s each; unbounded, hours
		t.Fatal("the runs did not return within 30s")
	}
}
