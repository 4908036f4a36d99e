package reasonapi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"vadalink/internal/replication"
	"vadalink/internal/store"
)

// Health and readiness probes, plus the follower serving gate.
//
// /v1/healthz is pure liveness: the process is up and the handler runs.
// /v1/readyz is readiness to serve correct answers: recovery finished (the
// store opened at all), the server is not draining, the WAL has not gone
// fail-stop on a sticky fsync error, and — on a follower — replication is
// inside the staleness bound. Orchestrators point traffic at readyz and
// restarts at healthz; the two disagree exactly when restarting would make
// things worse.

// handleHealthz answers liveness: GET /v1/healthz. It is deliberately
// unconditional — a stale follower or a fail-stopped WAL is a node that
// should stop RECEIVING traffic (readyz), not a node to kill (healthz).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ args) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// readyCheck is one named readiness verdict in the /v1/readyz body.
type readyCheck struct {
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// handleReadyz answers readiness: GET /v1/readyz. 200 when every check
// passes, 503 with the failing checks named otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request, _ args) {
	checks := map[string]readyCheck{}
	ready := true
	fail := func(name, detail string) {
		checks[name] = readyCheck{OK: false, Detail: detail}
		ready = false
	}

	if s.draining.Load() {
		fail("draining", "server is shutting down")
	} else {
		checks["draining"] = readyCheck{OK: true, Detail: "serving"}
	}

	if ps := s.cfg.Persist; ps != nil {
		st := ps.Stats()
		if st.LastError != "" {
			// The WAL is fail-stop: every future mutation acknowledgement
			// would lie about durability. Reads still work; writes must go
			// elsewhere.
			fail("wal", "persistence is fail-stopped: "+st.LastError)
		} else {
			checks["wal"] = readyCheck{OK: true}
		}
		rec := ps.Recovery()
		checks["recovery"] = readyCheck{OK: true,
			Detail: fmt.Sprintf("replayed %d records in %dms", rec.RecordsReplayed, rec.DurationMillis)}
	}

	// Replica-group mode: readiness follows the role. A leader is ready
	// while its lease holds (fresh majority acks); a follower is ready
	// while it hears a live leader AND its data is inside the staleness
	// bound. An electing member is honestly unready — better a 503 than an
	// answer from a node that doesn't know who owns the truth.
	leading := false
	if nd := s.cfg.Node; nd != nil {
		st := nd.Status()
		leading = st.Role == replication.RoleLeader
		detail := fmt.Sprintf("role %s, epoch %d, lease age %dms", st.Role, st.Epoch, st.LeaseMS)
		if ev := st.LastFailover; ev != nil {
			detail += ", last failover " + ev.Cause
		}
		if st.LeaseOK {
			checks["replicaGroup"] = readyCheck{OK: true, Detail: detail}
		} else {
			fail("replicaGroup", "lease not held ("+detail+")")
		}
	}

	if fl := s.cfg.Follower; fl != nil && !leading {
		st := fl.Status()
		bound := s.cfg.maxStaleness()
		detail := fmt.Sprintf("seq %d, lag %d, staleness %dms, disconnected %dms",
			st.Seq, st.LagRecords, st.StalenessMS, st.DisconnectedMS)
		switch {
		case !st.EverSynced:
			fail("replication", "never reached parity with the leader ("+detail+")")
		case bound > 0 && (st.Staleness > bound || st.Disconnected > bound):
			// Disconnected counts too: during an outage LagRecords and
			// StalenessMS freeze at their last-known values, so a dead
			// stream would otherwise look permanently fresh.
			fail("replication", "past staleness bound ("+detail+")")
		default:
			checks["replication"] = readyCheck{OK: true, Detail: detail}
		}
	}

	status := http.StatusOK
	body := map[string]any{"status": "ready", "checks": checks}
	if !ready {
		status = http.StatusServiceUnavailable
		body["status"] = "unready"
		body["code"] = "not_ready"
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	}
	writeJSON(w, status, body)
}

// leaderAPIHint is the best current belief of the leader's API address for
// redirect envelopes: the replica group's live hint when available (learned
// from stream handshakes and election grants), else the static config.
func (s *Server) leaderAPIHint() string {
	if nd := s.cfg.Node; nd != nil {
		if _, api := nd.LeaderHint(); api != "" {
			return api
		}
	}
	return s.cfg.LeaderAPI
}

// writeNotLeader answers a write that landed on a non-leader: 421
// Misdirected Request with the leader's API address, so a client can
// re-issue without a discovery step.
func (s *Server) writeNotLeader(w http.ResponseWriter, r *http.Request, detail string) {
	writeEnvelope(w, r, http.StatusMisdirectedRequest, "not_leader", detail, map[string]any{"leader": s.leaderAPIHint()})
}

// writeCommitErr maps a failed group write barrier (Node.Commit) onto the
// API error vocabulary. The one invariant: a non-nil Commit is NEVER
// acknowledged as durable — the response says exactly what the client may
// assume, which for stale_epoch is "nothing".
func (s *Server) writeCommitErr(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, replication.ErrNotLeader):
		s.writeNotLeader(w, r, "this node lost the leader role; send writes to the leader")
	case errors.Is(err, replication.ErrStaleEpoch) || errors.Is(err, store.ErrConflict):
		// The leadership changed while the write was in flight: its facts
		// were fenced off before a majority held them (the new leader may
		// or may not carry them), or a frame of the new leader landed first
		// and they never reached the graph. The only honest answer is "not
		// acknowledged — re-check, then retry against the new leader".
		writeErr(w, r, http.StatusServiceUnavailable, "stale_epoch",
			"write not acknowledged: leadership changed mid-write (%v); retry against the current leader", err)
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// Quorum never assembled within the request deadline: the group has
		// no majority of live, caught-up followers right now.
		writeErr(w, r, http.StatusServiceUnavailable, "replication_unavailable",
			"write not acknowledged: replication quorum unavailable (%v)", err)
	default:
		writeErr(w, r, http.StatusInternalServerError, "persist_failed",
			"augmentation ran but its facts could not be made durable: %v", err)
	}
}

// followerGate enforces replica serving semantics in front of a route, by
// the route's access. It reports true when it answered the request itself.
// In static follower mode (cfg.Follower without cfg.Node) the node never
// serves writes; in replica-group mode the verdict follows the node's
// CURRENT role, so a failover re-points writes with no reconfiguration.
func (s *Server) followerGate(w http.ResponseWriter, r *http.Request, acc access) (handled bool) {
	// Probes and metrics (and pprof, outside the table) describe THIS node
	// and always answer locally, however stale the data is.
	if acc == local {
		return false
	}
	if nd := s.cfg.Node; nd != nil && nd.IsLeader() {
		// Leading: writes proceed (the augment handler runs the quorum
		// barrier; a deposition mid-write surfaces there as stale_epoch,
		// never as a false ack) and reads are authoritative.
		return false
	}
	// Writes belong on the leader. 421 Misdirected Request carries the
	// leader's address so a client can re-issue without a discovery step.
	if acc == write {
		s.writeNotLeader(w, r, "this node is a read-only follower; send writes to the leader")
		return true
	}
	// Reads: stamp replication position so clients can reason about
	// read-your-writes, and refuse only past the staleness bound. The
	// disconnected header (and check) exists because LagRecords and
	// StalenessMS freeze at their last-known values while the stream is
	// down — without it, a long-dead follower would keep advertising the
	// freshness it had the moment it lost the leader.
	st := s.cfg.Follower.Status()
	h := w.Header()
	h["X-Replication-Lag"] = []string{strconv.FormatInt(st.LagRecords, 10)}
	h["X-Replication-Staleness-Ms"] = []string{strconv.FormatInt(st.StalenessMS, 10)}
	h["X-Replication-Disconnected-Ms"] = []string{strconv.FormatInt(st.DisconnectedMS, 10)}
	bound := s.cfg.maxStaleness()
	if bound > 0 && (!st.EverSynced || st.Staleness > bound || st.Disconnected > bound) {
		writeErr(w, r, http.StatusServiceUnavailable, "stale_replica",
			"replica is stale: lag %d records, staleness %dms, disconnected %dms (bound %s)",
			st.LagRecords, st.StalenessMS, st.DisconnectedMS, bound)
		return true
	}
	return false
}
