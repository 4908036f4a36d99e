package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// config is one run: which workload, from which seed, for how long.
type config struct {
	workload string
	seed     int64
	scale    float64 // multiplies every graph size
	seconds  float64 // length of the timed phase
	trace    bool
	outDir   string // traces, summaries and scratch stores land here
}

// size scales a base node count; tiny graphs degenerate (no edges to
// mutate), so there is a floor.
func (c config) size(base int) int {
	n := int(float64(base) * c.scale)
	if n < 40 {
		n = 40
	}
	return n
}

// workload is one traffic mix or batch job stream. The runner sets it up
// setupRepeats times (for a steady setup_s), runs the timed phase on the
// last instance, then asks it to verify its outputs.
type workload interface {
	// setup generates the inputs from the seed, builds the system under test
	// and warms it until the first timed op could start.
	setup() error
	// phase runs timed ops for d. With traced set it records spans around
	// every call into a layer and replays a sample of ops layer by layer.
	phase(d time.Duration, traced bool) load
	// finish runs the end-state oracles, returning how many outputs were
	// wrong, and records the per-layer values this workload can see.
	finish(vals values, tr *trace) (mismatches int, err error)
	// teardown stops and deletes whatever setup built. Idempotent.
	teardown()
}

// load is what a timed phase did.
type load struct {
	lat     []time.Duration // one sample per op, all clients
	failed  int             // non-200, truncated, or wrong by an inline oracle
	non200  int
	trunc   int
	elapsed time.Duration   // wall time of the phase
	busy    time.Duration   // summed op time across clients
	clients int             // closed-loop clients that generated lat
	yard    []time.Duration // yardstick samples taken between ops, all clients
	late    []time.Duration // open-loop writer: how late each commit started
	period  time.Duration   // open-loop writer: its schedule's period
	recs    []*recorder
}

// sample is one emitted value and how many observations it rests on.
type sample struct {
	v float64
	n int
}

// values collects emitted metrics by name.
type values map[string]sample

func (v values) set(name string, x float64, n int) { v[name] = sample{x, n} }

// p50 records the median of xs under name.
func (v values) p50(name string, xs []float64) { v.set(name, median(xs), len(xs)) }

// outcome classifies one finished op.
type outcome uint8

const (
	opOK        outcome = iota
	opNon200            // the server refused or failed the request
	opTruncated         // 200, but a budget cut the answer short
	opWrong             // 200 and complete, but an inline oracle disagrees
)

// closedLoop runs n clients for d. Each client calls op back to back — the
// next request leaves only when the previous one completed — and op times
// its own request so that oracle bookkeeping stays out of the latency.
// Between ops, every yardstickEvery, a client times the yardstick.
func closedLoop(n int, d time.Duration, traced bool, op func(client, i int, rec *recorder) (time.Duration, outcome)) load {
	type clientStats struct {
		lat   []time.Duration
		yard  []time.Duration
		tally [opWrong + 1]int
		busy  time.Duration
	}
	stats := make([]clientStats, n)
	recs := make([]*recorder, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < n; c++ {
		if traced {
			recs[c] = newRecorder(t0)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			st.lat = make([]time.Duration, 0, 1<<12)
			var lastYard time.Time
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				if now.Sub(lastYard) >= yardstickEvery {
					st.yard = append(st.yard, yardstick())
					lastYard = now
				}
				lat, oc := op(c, i, recs[c])
				st.lat = append(st.lat, lat)
				st.busy += lat
				st.tally[oc]++
			}
		}(c)
	}
	wg.Wait()
	ld := load{elapsed: time.Since(t0), clients: n}
	for c := range stats {
		ld.lat = append(ld.lat, stats[c].lat...)
		ld.yard = append(ld.yard, stats[c].yard...)
		ld.non200 += stats[c].tally[opNon200]
		ld.trunc += stats[c].tally[opTruncated]
		ld.failed += len(stats[c].lat) - stats[c].tally[opOK]
		ld.busy += stats[c].busy
		if recs[c] != nil {
			ld.recs = append(ld.recs, recs[c])
		}
	}
	return ld
}

// maxIdle is the share of a closed-loop client's time the harness may spend
// between requests (drawing keys, recording samples, inline oracles) before
// the run is void. point-hot, at ~4 us per request, sits near 0.15.
const maxIdle = 0.35

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow disk flush or GC cycle does not decide it.
const setupRepeats = 3

// result is one finished run, the payload of the driver line.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Values    values
	Void      string // non-empty: why the load generator's numbers cannot be trusted
	Raw       string // untraced runs: the machine speed and the timings before scaling by it
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runOne executes one workload once in this process.
func runOne(cfg config) (*result, error) {
	def, err := lookupWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.teardown()
			runtime.GC()
		}
		w = def.New(cfg)
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.teardown()

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	d := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, main load
	if cfg.trace {
		// One process measures both sides of the tracing overhead: a quarter
		// of the window untraced, the rest traced.
		untraced = w.phase(d/4, false)
		runtime.ReadMemStats(&m0)
		main = w.phase(d-d/4, true)
	} else {
		main = w.phase(d, false)
	}
	runtime.ReadMemStats(&m1)

	vals := values{}
	tr := merge(main.recs...)
	mismatches, err := w.finish(vals, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}

	res := &result{
		Attempted: len(main.lat) + len(untraced.lat),
		Failed:    main.failed + untraced.failed + mismatches,
		Values:    vals,
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed in %v", cfg.workload, d)
	}
	ok := len(main.lat) - main.failed
	lat := millis(main.lat)
	thr := float64(ok) / main.elapsed.Seconds()
	late := millis(main.late)
	lateP99 := percentile(late, 99)
	// Idle time is the harness's own work between ops. On the traced phase
	// that includes the layer replays, so the untraced phase is the one
	// judged.
	judged := main
	if cfg.trace {
		judged = untraced
	}
	idle := 1 - ratio(judged.busy.Seconds(), float64(judged.clients)*judged.elapsed.Seconds())

	// A generator that could not keep its own schedule measured itself, not
	// the system: the run is void. Its outputs may still all be right, so
	// Correct does not depend on it; run, trace and aa refuse a void run.
	switch {
	case main.period > 0 && median(late) > ms(main.period)/2:
		res.Void = fmt.Sprintf("writer ran %.1f ms late at the median, its period is %.1f ms", median(late), ms(main.period))
	case idle > maxIdle:
		res.Void = fmt.Sprintf("clients sat idle %.0f%% of the untraced phase", idle*100)
	}
	res.Correct = res.Failed == 0

	speed := machineSpeed(main.yard)
	if !cfg.trace {
		// Set-up is dominated by waits that do not scale with the machine
		// (the follower's bootstrap); it is reported as measured. The timed
		// phase is reported at nominal machine speed (yardstick.go).
		vals.set("setup_s", median(setups), len(setups))
		vals.set("throughput_ops_s", thr/speed, ok)
		vals.set("latency_p50_ms", percentile(lat, 50)*speed, len(lat))
		vals.set("heap_live_mb", float64(m0.HeapAlloc)/1e6, 1)
		res.Raw = fmt.Sprintf("machine speed %.3f over %d yardstick samples; as measured: throughput_ops_s=%.6g latency_p50_ms=%.6g",
			speed, len(main.yard), thr, percentile(lat, 50))
		return res, nil
	}

	vals.set("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)
	vals.set("latency_p95_ms", percentile(lat, 95), len(lat))
	vals.set("latency_p99_ms", percentile(lat, 99), len(lat))
	vals.set("reasonapi.non200", float64(main.non200), len(lat))
	vals.set("reasonapi.truncated", float64(main.trunc), len(lat))
	vals.set("runtime.alloc_mb_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, float64(len(main.lat))), len(main.lat))
	vals.set("runtime.gc_cpu_fraction", m1.GCCPUFraction, 1)
	// Go keeps no high-water mark of the live heap; the heap it has mapped
	// and not returned is the closest the runtime exports.
	vals.set("runtime.heap_peak_mb", float64(m1.HeapSys-m1.HeapReleased)/1e6, 1)
	vals.set("runtime.num_gc", float64(m1.NumGC-m0.NumGC), 1)
	vals.set("loadgen.late_p99_ms", lateP99, len(main.late))
	vals.set("loadgen.client_idle_ratio", idle, judged.clients)
	vals.set("loadgen.machine_speed", speed, len(main.yard))
	untracedThr := ratio(float64(len(untraced.lat)-untraced.failed), untraced.elapsed.Seconds())
	vals.set("loadgen.trace_overhead_ratio", ratio(thr, untracedThr), len(untraced.lat))
	path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	if err := tr.dump(path, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}
