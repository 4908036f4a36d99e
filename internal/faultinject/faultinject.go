// Package faultinject is a test-only fault-injection registry: production
// code calls Fire at named sites, and tests register hooks that sleep, panic
// or cancel to simulate slow strata, mid-chase aborts and handler crashes.
//
// With no hooks registered (the production state) Fire is a single atomic
// load — cheap enough to leave in hot loops. Sites are plain strings, listed
// as Site* constants next to the code that fires them.
package faultinject

import (
	"sync"
	"sync/atomic"
)

// Instrumented sites. A site name is stable API for tests; firing an
// unregistered site is a no-op.
const (
	// SiteDatalogRound fires at the start of every semi-naive round of the
	// chase (internal/datalog). Hooks here simulate slow strata.
	SiteDatalogRound = "datalog.round"
	// SiteAPIHandler fires on entry of every reasonapi request, inside the
	// panic-recovery middleware. Hooks here simulate handler crashes.
	SiteAPIHandler = "reasonapi.handler"
	// SiteAugmentRound fires at the start of every KG-augmentation round
	// (internal/core). Hooks here simulate slow augmentation.
	SiteAugmentRound = "core.round"
	// SiteStoreSwap fires inside the MVCC store's commit, after the
	// transaction journal has been replayed onto the writer master but
	// before the new version is published (internal/store). Hooks here
	// stretch the swap window so snapshot-isolation tests can prove readers
	// keep seeing the prior version until the atomic publish.
	SiteStoreSwap = "store.swap"

	// SitePersistAppend fires before a WAL record is written
	// (internal/persist). An error hook makes the writer emit a deliberately
	// torn (half-written) record and fail, simulating a crash mid-write.
	SitePersistAppend = "persist.append"
	// SitePersistSync fires before a WAL fsync (internal/persist). Error
	// hooks simulate fsync failures (full disk, dying device); the WAL goes
	// fail-stop.
	SitePersistSync = "persist.sync"
	// SitePersistRename fires between a snapshot temp file being fsynced and
	// its atomic rename (internal/persist). Error hooks simulate a crash in
	// that window: the temp file is left behind, the old snapshot stays
	// authoritative.
	SitePersistRename = "persist.rename"

	// SiteReplAccept fires when the replication leader accepts a follower
	// connection (internal/replication). An error hook closes the connection
	// immediately — a leader refusing or crashing at accept time.
	SiteReplAccept = "replication.accept"
	// SiteReplSend fires before the leader writes a protocol message to a
	// follower (internal/replication). An error hook makes the leader write
	// only half the message and drop the connection, simulating a stream cut
	// mid-frame.
	SiteReplSend = "replication.send"
	// SiteReplFrame fires as the leader ships a WAL frame
	// (internal/replication). An error hook flips a payload byte on the wire,
	// so the follower's CRC re-check must catch it.
	SiteReplFrame = "replication.frame"
	// SiteReplApply fires before the follower applies a received frame
	// (internal/replication). Plain hooks here slow the follower down to
	// build up replication lag.
	SiteReplApply = "replication.apply"
	// SiteReplDial fires before the follower dials the leader
	// (internal/replication). Error hooks simulate an unreachable leader to
	// exercise the reconnect backoff.
	SiteReplDial = "replication.dial"
	// SiteReplHeartbeat fires before the leader sends an idle-stream
	// heartbeat (internal/replication). An error hook suppresses the
	// heartbeat — the wire stays up but carries no liveness signal — so
	// followers' lease deadlines expire under a live but mute leader.
	SiteReplHeartbeat = "replication.heartbeat"
	// SiteReplLease fires on every lease check of a replica-group leader
	// (internal/replication). An error hook forces the check to report the
	// lease lost, making the leader step down as if its followers had gone
	// silent.
	SiteReplLease = "replication.lease"
	// SiteReplPromote fires between a candidate deciding to promote and it
	// durably fencing the new epoch (internal/replication). Plain hooks here
	// stretch the promotion window so races between concurrent candidates —
	// and between a promotion and a returning old leader — get a chance to
	// happen in tests.
	SiteReplPromote = "replication.promote"
)

// Fn is an injected behavior. It may sleep, panic, or do nothing.
type Fn func()

// ErrFn is an injected fallible behavior: returning a non-nil error makes
// the instrumented operation fail as if the underlying syscall had.
type ErrFn func() error

var (
	armed    atomic.Bool // true while any hook is registered
	mu       sync.RWMutex
	hooks    = map[string]Fn{}
	errHooks = map[string]ErrFn{}
)

// Set registers (or replaces) the hook for a site. Tests must pair Set with
// Clear or Reset (typically via t.Cleanup).
func Set(site string, fn Fn) {
	mu.Lock()
	defer mu.Unlock()
	if fn == nil {
		delete(hooks, site)
	} else {
		hooks[site] = fn
	}
	armed.Store(len(hooks)+len(errHooks) > 0)
}

// SetErr registers (or replaces) the error hook for a site. Tests must pair
// SetErr with Clear or Reset (typically via t.Cleanup).
func SetErr(site string, fn ErrFn) {
	mu.Lock()
	defer mu.Unlock()
	if fn == nil {
		delete(errHooks, site)
	} else {
		errHooks[site] = fn
	}
	armed.Store(len(hooks)+len(errHooks) > 0)
}

// Clear removes the hooks (plain and error) for a site.
func Clear(site string) {
	mu.Lock()
	defer mu.Unlock()
	delete(hooks, site)
	delete(errHooks, site)
	armed.Store(len(hooks)+len(errHooks) > 0)
}

// Reset removes every hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	hooks = map[string]Fn{}
	errHooks = map[string]ErrFn{}
	armed.Store(false)
}

// Fire invokes the hook registered for site, if any. It is safe for
// concurrent use and near-free when no hooks are registered.
func Fire(site string) {
	if !armed.Load() {
		return
	}
	mu.RLock()
	fn := hooks[site]
	mu.RUnlock()
	if fn != nil {
		fn()
	}
}

// FireErr invokes the error hook registered for site, if any, and returns
// its error. Production code treats a non-nil return as the instrumented
// operation failing. Like Fire, it is a single atomic load when no hooks
// are registered.
func FireErr(site string) error {
	if !armed.Load() {
		return nil
	}
	mu.RLock()
	fn := errHooks[site]
	mu.RUnlock()
	if fn != nil {
		return fn()
	}
	return nil
}
