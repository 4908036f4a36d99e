// Package backoff is the retry-delay policy of the replication follower's
// reconnect loop: capped exponential backoff with bounded random jitter.
//
// A deterministic delay ladder would not do. A fleet of followers that all
// lose their leader at the same instant and all sleep exactly 1ms, 2ms, 4ms,
// ... will all reconnect at the same instant too, hammering the recovering
// leader in synchronized waves (the thundering herd). Jitter decorrelates
// them; the cap keeps the worst-case wait bounded and the base keeps the
// common case fast.
package backoff

import (
	"math/rand"
	"time"
)

// Policy computes the delay before retry attempt n (0-based: Delay(0) is the
// wait after the first failure). The zero Policy is not usable; fill Base
// and Max.
type Policy struct {
	// Base is the delay after the first failure; each further failure
	// doubles it.
	Base time.Duration
	// Max caps the doubled delay (before jitter is applied).
	Max time.Duration
	// Jitter is the fraction of the capped delay that is randomized:
	// the returned delay is uniform in [d*(1-Jitter), d]. 0 means fully
	// deterministic; 0.5 spreads a synchronized herd over half the window.
	// Values outside [0, 1] are clamped.
	Jitter float64

	// Rand supplies the jitter randomness; nil uses the global source.
	// Tests inject a seeded *rand.Rand for reproducible schedules.
	Rand *rand.Rand
}

// Delay returns the wait before retry attempt n. It is safe for concurrent
// use only when Rand is nil (the global source locks internally).
func (p Policy) Delay(attempt int) time.Duration {
	d := p.Base
	for i := 0; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if d <= 0 {
		return 0
	}
	j := p.Jitter
	if j < 0 {
		j = 0
	} else if j > 1 {
		j = 1
	}
	if j == 0 {
		return d
	}
	window := time.Duration(float64(d) * j)
	if window <= 0 {
		return d
	}
	var off time.Duration
	if p.Rand != nil {
		off = time.Duration(p.Rand.Int63n(int64(window) + 1))
	} else {
		off = time.Duration(rand.Int63n(int64(window) + 1))
	}
	return d - off
}

// Retrier is the stateful wrapper around a Policy that retry loops share:
// Next returns the delay for the current failure and advances the ladder;
// Reset (called after a success) starts the ladder over, so one long outage
// does not poison the delay of the next brief one. Not safe for concurrent
// use — each loop owns its own Retrier.
type Retrier struct {
	Policy  Policy
	attempt int
}

// Next returns the delay to sleep after the latest failure and advances to
// the next rung. The first call after construction or Reset returns
// Policy.Delay(0).
func (r *Retrier) Next() time.Duration {
	d := r.Policy.Delay(r.attempt)
	if r.attempt < 63 { // the ladder is capped far earlier; avoid overflow
		r.attempt++
	}
	return d
}

// Attempt returns how many times Next has been called since the last Reset.
func (r *Retrier) Attempt() int { return r.attempt }

// Reset starts the ladder over after a success.
func (r *Retrier) Reset() { r.attempt = 0 }
