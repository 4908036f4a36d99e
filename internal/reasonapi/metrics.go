package reasonapi

import (
	"strconv"
	"sync/atomic"
	"time"

	"vadalink/internal/datalog"
	"vadalink/internal/ivm"
	"vadalink/internal/persist"
	"vadalink/internal/qcache"
	"vadalink/internal/replication"
)

// latencyBucketsMs are the upper bounds (milliseconds) of the request-latency
// histogram; a final implicit +Inf bucket catches the rest.
var latencyBucketsMs = [...]int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// endpointMetrics is the live per-route counter set. All fields are atomics:
// the middleware updates them on every request without locking.
type endpointMetrics struct {
	count      atomic.Int64
	errors     atomic.Int64 // responses with status >= 400
	totalNanos atomic.Int64
	maxNanos   atomic.Int64
	buckets    [len(latencyBucketsMs) + 1]atomic.Int64
}

func (m *endpointMetrics) observe(status int, elapsed time.Duration) {
	m.count.Add(1)
	if status >= 400 {
		m.errors.Add(1)
	}
	n := int64(elapsed)
	m.totalNanos.Add(n)
	for {
		old := m.maxNanos.Load()
		if n <= old || m.maxNanos.CompareAndSwap(old, n) {
			break
		}
	}
	ms := elapsed.Milliseconds()
	i := 0
	for i < len(latencyBucketsMs) && ms > latencyBucketsMs[i] {
		i++
	}
	m.buckets[i].Add(1)
}

// EndpointMetrics is the JSON snapshot of one route's counters.
type EndpointMetrics struct {
	// Requests counts completed requests; Errors those answered with a
	// status >= 400.
	Requests int64 `json:"requests"`
	Errors   int64 `json:"errors"`
	// TotalMillis and MaxMillis aggregate wall-clock handler time;
	// MeanMillis is their ratio.
	TotalMillis int64   `json:"totalMillis"`
	MaxMillis   int64   `json:"maxMillis"`
	MeanMillis  float64 `json:"meanMillis"`
	// Latency is the cumulative histogram: Latency[le] counts requests that
	// took at most le milliseconds ("+Inf" catches the rest).
	Latency map[string]int64 `json:"latency"`
}

// Metrics is the snapshot served by GET /v1/metrics.
type Metrics struct {
	// UptimeSeconds is the age of the Server (not the process).
	UptimeSeconds float64 `json:"uptimeSeconds"`
	// Endpoints maps "METHOD /route" to its counters. Unmatched requests
	// (404s, bad methods) aggregate under "other".
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
	// LastChase is the statistics report of the most recent chase any
	// request triggered (an ad-hoc program or a goal-backed miss), nil
	// before the first.
	LastChase *datalog.ChaseStats `json:"lastChase,omitempty"`
	// Incremental is the incremental view maintenance counter set
	// (commits maintained vs skipped vs full rebuilds, last apply cost). It
	// advances when a what-if drains the queued journals, not at commit
	// time.
	Incremental *ivm.Stats `json:"incremental,omitempty"`
	// Recovery reports what startup recovery replayed (snapshot generation,
	// WAL records, torn tails, duration) when the server is backed by a
	// persistent store; absent on memory-only servers.
	Recovery *persist.RecoveryInfo `json:"recovery,omitempty"`
	// Persistence is the live WAL/snapshot counter set of that store.
	Persistence *persist.Stats `json:"persistence,omitempty"`
	// Replication is the follower's live position (seq, lag, staleness,
	// reconnects) when the server runs in read-only replica mode.
	Replication *replication.FollowerStatus `json:"replication,omitempty"`
	// ReplicationLeader is the stream-serving side (connected followers,
	// frames shipped) when this process is the replication leader.
	ReplicationLeader *replication.LeaderStatus `json:"replicationLeader,omitempty"`
	// ReplicaGroup is the self-healing failover state (role, epoch, lease,
	// election counters, last failover cause) when the server is a member
	// of a lease-based replica group.
	ReplicaGroup *replication.NodeStatus `json:"replicaGroup,omitempty"`
	// Cache is the query-result cache behind the point endpoints (hits,
	// misses, evictions, invalidations); absent when Config.QueryCacheBytes
	// is negative.
	Cache *qcache.Stats `json:"cache,omitempty"`
}

// serverMetrics is one Server's registry: one slot per route of the table
// plus the catch-all slot. Each route's wrapper holds its own
// *endpointMetrics, so a request looks nothing up.
type serverMetrics struct {
	start  time.Time
	routes map[string]*endpointMetrics
	other  endpointMetrics
}

func newServerMetrics() *serverMetrics {
	sm := &serverMetrics{start: time.Now(), routes: make(map[string]*endpointMetrics, len(routes))}
	for _, rt := range routes {
		sm.routes[rt.pattern] = &endpointMetrics{}
	}
	return sm
}

func (sm *serverMetrics) snapshot(lastChase *datalog.ChaseStats) Metrics {
	out := Metrics{
		UptimeSeconds: time.Since(sm.start).Seconds(),
		Endpoints:     make(map[string]EndpointMetrics, len(sm.routes)+1),
		LastChase:     lastChase,
	}
	for name, m := range sm.routes {
		out.Endpoints[name] = m.export()
	}
	if sm.other.count.Load() > 0 {
		out.Endpoints["other"] = sm.other.export()
	}
	return out
}

func (m *endpointMetrics) export() EndpointMetrics {
	e := EndpointMetrics{
		Requests:    m.count.Load(),
		Errors:      m.errors.Load(),
		TotalMillis: m.totalNanos.Load() / 1e6,
		MaxMillis:   m.maxNanos.Load() / 1e6,
		Latency:     make(map[string]int64, len(latencyBucketsMs)+1),
	}
	if e.Requests > 0 {
		e.MeanMillis = float64(m.totalNanos.Load()) / float64(e.Requests) / 1e6
	}
	cum := int64(0)
	for i := range latencyBucketsMs {
		cum += m.buckets[i].Load()
		e.Latency[strconv.FormatInt(latencyBucketsMs[i], 10)] = cum
	}
	e.Latency["+Inf"] = cum + m.buckets[len(latencyBucketsMs)].Load()
	return e
}
