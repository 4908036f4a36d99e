package datalog

import (
	"context"
	"fmt"
)

// Budget bounds the resources one Run of the engine may consume. The chase
// of a warded program terminates, but the engine also accepts arbitrary
// Datalog± where termination is undecidable — in a long-running service
// every evaluation must therefore carry explicit limits. A zero Budget
// imposes no fact or queue limits; wall-clock limits come from the
// context passed to RunContext.
type Budget struct {
	// MaxFacts caps the number of facts derived by one Run (extensional
	// facts do not count). 0 means unlimited.
	MaxFacts int

	// MaxDeltaQueue caps the number of newly derived facts pending in the
	// semi-naive delta between rounds — a proxy for the memory the next
	// round will touch. 0 means unlimited.
	MaxDeltaQueue int

	// CheckEvery is the number of evaluation steps (body-literal bindings)
	// between cooperative cancellation checks. Smaller values tighten
	// deadline latency at a small CPU cost. 0 means the default of 2048.
	CheckEvery int

	// MaxIndexBytes caps the estimated memory held by the per-predicate
	// positional hash indexes the engine builds for join matching (DESIGN.md
	// §7.1). The estimate counts encoded-key bytes plus per-entry overhead;
	// it is approximate but monotone. Index memory is cumulative engine
	// state, so the cap applies across re-runs of one engine. 0 means
	// unlimited.
	MaxIndexBytes int
}

func (b Budget) checkEvery() int {
	if b.CheckEvery <= 0 {
		return 2048
	}
	return b.CheckEvery
}

// Limit names the resource bound that stopped a Run.
type Limit string

// The limits a Run can trip.
const (
	// LimitDeadline: the context's deadline expired mid-chase.
	LimitDeadline Limit = "deadline"
	// LimitCancelled: the context was cancelled (e.g. the caller went away).
	LimitCancelled Limit = "cancelled"
	// LimitFacts: Budget.MaxFacts derived facts were exceeded.
	LimitFacts Limit = "max-facts"
	// LimitDeltaQueue: Budget.MaxDeltaQueue pending delta facts were exceeded.
	LimitDeltaQueue Limit = "max-delta-queue"
	// LimitRounds: the WithMaxRounds bound on semi-naive rounds was exceeded.
	LimitRounds Limit = "max-rounds"
	// LimitIndexMemory: Budget.MaxIndexBytes of positional-index memory were
	// exceeded.
	LimitIndexMemory Limit = "max-index-bytes"
)

// BudgetExceededError reports that a Run stopped before fixpoint because a
// resource limit tripped. The engine state remains valid: every fact derived
// before the trip is readable through Facts/Match/Query, so callers can
// serve partial results while telling "timed out" apart from "diverged"
// (Limit) and "done" (nil error).
type BudgetExceededError struct {
	// Limit names the bound that tripped.
	Limit Limit
	// Bound is the configured value of that bound (rounds, facts, …);
	// 0 for deadline/cancellation.
	Bound int
	// Facts is the number of facts derived by this Run before the trip.
	Facts int
	// Rounds is the number of semi-naive rounds completed before the trip.
	Rounds int
	// Stratum is the index of the stratum being evaluated when the trip
	// happened.
	Stratum int
	// Cause is the underlying context error for deadline/cancellation
	// trips, nil otherwise.
	Cause error
}

// Error names the tripped limit, summarizes how far the chase got, and
// suggests a remediation.
func (e *BudgetExceededError) Error() string {
	head := fmt.Sprintf("datalog: budget exceeded: %s after %d rounds, %d derived facts (stratum %d)",
		e.Limit, e.Rounds, e.Facts, e.Stratum)
	switch e.Limit {
	case LimitRounds:
		return fmt.Sprintf("%s: the chase hit MaxRounds=%d without reaching a fixpoint; "+
			"if the program is warded (see CheckWarded) raise MaxRounds, "+
			"otherwise the rule set likely diverges on this input — fix the recursion or set a wall-clock deadline",
			head, e.Bound)
	case LimitFacts:
		return fmt.Sprintf("%s: Budget.MaxFacts=%d; raise the budget or restrict the program/input", head, e.Bound)
	case LimitDeltaQueue:
		return fmt.Sprintf("%s: Budget.MaxDeltaQueue=%d; raise the budget or restrict the program/input", head, e.Bound)
	case LimitIndexMemory:
		return fmt.Sprintf("%s: Budget.MaxIndexBytes=%d; raise the budget, shrink the input, or disable indexing (WithNoIndex)", head, e.Bound)
	case LimitDeadline:
		return head + ": the deadline expired mid-chase; raise the timeout or tighten MaxFacts to fail faster"
	case LimitCancelled:
		return head + ": the caller cancelled the evaluation"
	}
	return head
}

// Unwrap exposes the context error, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) work on wrapped trips.
func (e *BudgetExceededError) Unwrap() error { return e.Cause }

// trip records a budget violation on the engine; the evaluation unwinds at
// the next cooperative check. It is safe for concurrent use — Match/Query
// callers building indexes after a Run may trip the index budget at once —
// and the first trip wins, later ones return the recorded error.
func (e *Engine) trip(limit Limit, bound int, cause error) *BudgetExceededError {
	e.stopMu.Lock()
	first := e.stopErr == nil
	if first {
		e.stopErr = &BudgetExceededError{
			Limit:   limit,
			Bound:   bound,
			Facts:   e.derivedCount,
			Rounds:  e.rounds,
			Stratum: e.curStratum,
			Cause:   cause,
		}
		e.stopped.Store(true)
	}
	err := e.stopErr
	e.stopMu.Unlock()
	// The BudgetTrip hook fires outside stopMu so a callback reading engine
	// state cannot deadlock against another caller tripping concurrently.
	if first {
		if fn := e.opts.Hook.BudgetTrip; fn != nil {
			fn(err)
		}
	}
	return err
}

// stopError returns the recorded budget violation, if any.
func (e *Engine) stopError() *BudgetExceededError {
	if !e.stopped.Load() {
		return nil
	}
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	return e.stopErr
}

// resetStop clears the sticky budget violation at the start of a Run.
func (e *Engine) resetStop() {
	e.stopMu.Lock()
	defer e.stopMu.Unlock()
	e.stopErr = nil
	e.stopped.Store(false)
}

// checkCtx classifies and records a context failure.
func (e *Engine) checkCtx() error {
	if err := e.ctx.Err(); err != nil {
		limit := LimitCancelled
		if err == context.DeadlineExceeded {
			limit = LimitDeadline
		}
		return e.trip(limit, 0, err)
	}
	return nil
}

// step is the cooperative cancellation point of the inner evaluation loops:
// it returns a pending budget error immediately and polls the context every
// Budget.CheckEvery steps, so even one enormous join round honors deadlines.
func (ec *evalCtx) step() error {
	e := ec.e
	if e.stopped.Load() {
		return e.stopError()
	}
	ec.steps++
	if ec.steps >= ec.nextCheck {
		ec.nextCheck = ec.steps + e.opts.Budget.checkEvery()
		return e.checkCtx()
	}
	return nil
}
