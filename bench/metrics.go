package main

import (
	"encoding/json"
	"runtime"
)

// metricDef names one number the harness emits. The tables below are the
// single source of the benchmark's vocabulary: BENCHMARK.json is generated
// from them (`bench spec`), the driver line and the human tables are printed
// from them, and bench_test.go asserts the three agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves is the written-down prediction for a per-layer metric: which
	// end-to-end metric it should move, on which workload.
	Moves string
}

// endToEnd is what a caller of the system sees. Every workload emits every
// one of them on an untraced run, none of them is ever 0 and each stays
// inside its bound from run to run — which is why fail_ratio,
// repl_lag_p50_ms, recover_s, link_recall and the latency tails, end-to-end
// in spirit, live in perLayer (see README.md, "Demoted metrics").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is measured on the traced run only (layer = module name). A
// metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Demoted end-to-end metrics: user-visible, but 0 or undefined on some
	// workload, or (the tails) wider from run to run than any bound the
	// driver accepts.
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Moves: "itself; (non-200 + truncated + oracle mismatches) / attempted, must be 0 everywhere"},
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Moves: "itself on every workload; fewer than 10 samples beyond it on augment"},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Moves: "itself on point-hot (the only workload with >= 1000 samples)"},
	{Name: "repl_lag_p50_ms", Unit: "ms", Better: "lower", Moves: "itself on follower-churn, whatif-sweep"},
	{Name: "recover_s", Unit: "s", Better: "lower", Moves: "itself on follower-churn"},
	{Name: "link_recall", Unit: "ratio", Better: "higher", Moves: "itself on augment; must not fall while core.comparisons falls"},

	{Name: "reasonapi.request_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on every serving workload"},
	{Name: "reasonapi.hit_overhead_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms, throughput_ops_s on point-hot"},
	{Name: "reasonapi.miss_overhead_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on point-cold"},
	{Name: "reasonapi.non200", Unit: "count", Better: "lower", Moves: "fail_ratio everywhere"},
	{Name: "reasonapi.truncated", Unit: "count", Better: "lower", Moves: "fail_ratio everywhere"},

	{Name: "qcache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "throughput_ops_s on follower-churn (~1 on point-hot, 0 on point-cold: no change there)"},
	{Name: "qcache.do_hit_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on point-hot"},
	{Name: "qcache.invalidations_per_commit", Unit: "count", Better: "lower", Moves: "qcache.hit_ratio on follower-churn"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower", Moves: "qcache.hit_ratio on follower-churn"},
	{Name: "qcache.entries", Unit: "count", Better: "higher", Moves: "heap_live_mb on point-hot, point-cold"},
	{Name: "qcache.bytes_mb", Unit: "MB", Better: "lower", Moves: "heap_live_mb on point-hot, point-cold"},

	{Name: "relstore.extract_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on point-cold (about a fifth of a miss), materialize; none on point-hot"},
	{Name: "relstore.facts_per_call", Unit: "count", Better: "lower", Moves: "latency_p50_ms on point-cold, materialize"},

	{Name: "datalog.rewrite_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on point-cold"},
	{Name: "datalog.load_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on point-cold, materialize"},
	{Name: "datalog.chase_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on point-cold (goal), materialize (full), whatif-sweep (scoped)"},
	{Name: "datalog.derived_per_op", Unit: "count", Better: "lower", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.duplicates_per_op", Unit: "count", Better: "lower", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.useful_ratio", Unit: "ratio", Better: "higher", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.index_hit_ratio", Unit: "ratio", Better: "higher", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.index_builds_per_op", Unit: "count", Better: "lower", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.index_mb", Unit: "MB", Better: "lower", Moves: "as datalog.chase_ms_p50; runtime.alloc_mb_per_op"},
	{Name: "datalog.rounds_per_op", Unit: "count", Better: "lower", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.top_rule_share", Unit: "ratio", Better: "lower", Moves: "as datalog.chase_ms_p50"},
	{Name: "datalog.pool_utilization", Unit: "ratio", Better: "higher", Moves: "throughput_ops_s on materialize only"},
	{Name: "datalog.demand_ratio", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms on point-cold (exact count: goal-chase derived / full-chase derived)"},

	{Name: "vadalog.evalgoal_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on point-cold"},
	{Name: "vadalog.reasoner_run_s", Unit: "s", Better: "lower", Moves: "latency_p50_ms on materialize"},
	{Name: "control.allpairs_ms", Unit: "ms", Better: "lower", Moves: "none predicted; the paper's non-declarative baseline"},
	{Name: "closelink.closelinks_ms", Unit: "ms", Better: "lower", Moves: "none predicted; the paper's non-declarative baseline"},

	{Name: "whatif.baseline_s", Unit: "s", Better: "lower", Moves: "setup_s on whatif-sweep"},
	{Name: "whatif.evaluate_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on whatif-sweep"},
	{Name: "whatif.apply_us_p50", Unit: "us", Better: "lower", Moves: "latency_p50_ms on whatif-sweep"},
	{Name: "whatif.cone_nodes_p50", Unit: "count", Better: "lower", Moves: "latency_p50_ms on whatif-sweep"},

	{Name: "ivm.apply_ms_p50", Unit: "ms", Better: "lower", Moves: "latency_p95_ms on whatif-sweep (the first what-if after a commit pays the drain)"},
	{Name: "ivm.affected_sources_p50", Unit: "count", Better: "lower", Moves: "latency_p95_ms on whatif-sweep"},
	{Name: "ivm.incremental_commits", Unit: "count", Better: "higher", Moves: "latency_p95_ms on whatif-sweep"},
	{Name: "ivm.full_rebuilds", Unit: "count", Better: "lower", Moves: "setup_s, latency_p95_ms on whatif-sweep; must be 1"},
	{Name: "ivm.invalidations", Unit: "count", Better: "lower", Moves: "latency_p95_ms on whatif-sweep; must be 0"},

	{Name: "store.commit_us_p50", Unit: "us", Better: "lower", Moves: "latency_p95_ms on whatif-sweep"},
	{Name: "pg.overlay_flatten_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on whatif-sweep"},
	{Name: "pg.clone_ms", Unit: "ms", Better: "lower", Moves: "setup_s and job time on augment"},

	{Name: "persist.append_us_p50", Unit: "us", Better: "lower", Moves: "repl_lag_p50_ms on follower-churn"},
	{Name: "persist.sync_ms_p50", Unit: "ms", Better: "lower", Moves: "repl_lag_p50_ms on follower-churn"},
	{Name: "persist.wal_bytes_per_commit", Unit: "B", Better: "lower", Moves: "repl_lag_p50_ms on follower-churn"},
	{Name: "persist.syncs_per_commit", Unit: "count", Better: "lower", Moves: "repl_lag_p50_ms on follower-churn"},
	{Name: "persist.open_ms", Unit: "ms", Better: "lower", Moves: "recover_s on follower-churn"},
	{Name: "persist.records_replayed", Unit: "count", Better: "lower", Moves: "recover_s on follower-churn"},
	{Name: "persist.snapshot_mb", Unit: "MB", Better: "lower", Moves: "recover_s on follower-churn"},
	{Name: "persist.disk_bytes_per_edge", Unit: "B", Better: "lower", Moves: "recover_s on follower-churn"},

	{Name: "replication.frames_applied", Unit: "count", Better: "higher", Moves: "repl_lag_p50_ms on follower-churn, whatif-sweep"},
	{Name: "replication.frames_shipped", Unit: "count", Better: "higher", Moves: "repl_lag_p50_ms on follower-churn, whatif-sweep"},
	{Name: "replication.bad_frames", Unit: "count", Better: "lower", Moves: "repl_lag_p50_ms; must be 0"},
	{Name: "replication.reconnects", Unit: "count", Better: "lower", Moves: "repl_lag_p50_ms; must be 0"},
	{Name: "replication.bootstraps", Unit: "count", Better: "lower", Moves: "setup_s on follower-churn, whatif-sweep; must be 1"},
	{Name: "replication.bootstrap_ms", Unit: "ms", Better: "lower", Moves: "setup_s on follower-churn, whatif-sweep"},
	{Name: "replication.apply_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "repl_lag_p50_ms on follower-churn, whatif-sweep"},

	{Name: "embed.learn_s", Unit: "s", Better: "lower", Moves: "latency_p50_ms on augment"},
	{Name: "cluster.kmeans_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on augment"},
	{Name: "cluster.partition_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on augment"},
	{Name: "family.classify_us_per_pair", Unit: "us", Better: "lower", Moves: "latency_p50_ms on augment"},
	{Name: "core.comparisons", Unit: "count", Better: "lower", Moves: "latency_p50_ms on augment (exact count); must not fall while link_recall falls"},
	{Name: "core.rounds", Unit: "count", Better: "lower", Moves: "latency_p50_ms on augment"},
	{Name: "core.run_s", Unit: "s", Better: "lower", Moves: "latency_p50_ms on augment"},

	{Name: "graphgen.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s everywhere"},

	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower", Moves: "throughput_ops_s on point-cold, materialize; none on point-hot"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower", Moves: "throughput_ops_s on point-cold, materialize"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower", Moves: "heap_live_mb"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower", Moves: "throughput_ops_s on point-cold, materialize"},

	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "none; a late writer voids the run"},
	{Name: "loadgen.client_idle_ratio", Unit: "ratio", Better: "lower", Moves: "none; an idle client voids the run"},
	{Name: "loadgen.machine_speed", Unit: "ratio", Better: "higher", Moves: "none; nominal / measured yardstick time: the factor the end-to-end timings are scaled by, per-layer timings are not"},
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "higher", Moves: "none; traced / untraced throughput_ops_s in one process"},
	{Name: "replay.fidelity_ratio", Unit: "ratio", Better: "higher", Moves: "none; composed layer spans / black-box span, outside [0.8, 1.25] the replay no longer mirrors the program"},
	{Name: "replay.serve_ratio", Unit: "ratio", Better: "higher", Moves: "none; black-box span / ServeHTTP span of the same op, same interval"},
}

// workloadDef binds a workload name to its reason and constructor.
type workloadDef struct {
	Name string
	Why  string
	New  func(cfg config) workload
}

var workloads = []workloadDef{
	{"point-hot", "256 point questions asked Zipf(1.1) after warm-up: ~100% qcache hits, so reasonapi+qcache do all the work and datalog none", newPointHot},
	{"point-cold", "no key ever repeats: 100% misses, so relstore extraction and the datalog goal chase do all the work and qcache only inserts", newPointCold},
	{"follower-churn", "reads beside 8 commits/s through leader->follower replication: every commit flushes qcache and frames wait behind the read lock", newFollowerChurn},
	{"whatif-sweep", "closed-loop what-if scenarios beside 2 commits/s: whatif, pg.Overlay, the follower's lazy ivm drain and the scoped chase do the work, qcache none", newWhatifSweep},
	{"materialize", "library path, full control+close-link chase to fixpoint on a fresh graph per job: the paper's headline experiment, no serving layer runs", newMaterialize},
	{"augment", "library path, node2vec+k-means+blocking+family classifier per job: the ML half does all the work and datalog none; link_recall guards quality", newAugment},
}

// runSeconds is the driver's --seconds: 136 runs (4 + 22 x 6 workloads) of
// 12 s plus three set-ups and the oracles (~3.5 s) each stay inside the
// 3420 s cap with a third to spare.
const runSeconds = 12

// nproc is the load-goroutine budget: one process, at most this many
// clients (2 in the reference sandbox).
var nproc = runtime.GOMAXPROCS(0)

// specJSON renders BENCHMARK.json from the tables above.
func specJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		panic(err) // a bug: the spec is plain data
	}
	return append(out, '\n')
}
