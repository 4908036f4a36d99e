package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The yardstick is a fixed piece of work — arithmetic plus reads scattered
// over 64 MiB, far more than a core's own caches hold, so that a sample costs
// the same whatever ran before it — that the harness times every yardstickEvery while it
// measures. The reference sandbox is a 2-vCPU microVM whose speed drifts by
// 10-40% over seconds to minutes with what its neighbours do (no steal time
// shows; a spin loop and every workload slow down together), which is more
// than any bound the driver accepts. An unchanged program therefore reads
// steadily only relative to the machine it ran on: the end-to-end timings are
// reported as they would be at yardstickNominal, i.e. scaled by
// yardstickNominal / the yardstick's median during the measurement. The
// yardstick lives here, not in the program, so no change to the program can
// move it; per-layer timings (--trace 1) stay raw and loadgen.machine_speed
// gives the scale.
const (
	yardstickSteps = 1 << 16
	// yardstickNominal is what one sample takes on the reference sandbox
	// when it is quiet.
	yardstickNominal = time.Millisecond
	yardstickEvery   = 50 * time.Millisecond
)

var (
	// yardBuf is a global, not an allocation: it must not count in
	// heap_live_mb or move the program's GC pacing.
	yardBuf  [1 << 23]int64
	yardOnce sync.Once
	yardSeq  atomic.Int64 // numbers the samples: each walks its own addresses
	yardSink atomic.Int64
)

// yardstick runs the fixed work once and returns how long it took. It only
// reads shared state, so clients sample concurrently.
func yardstick() time.Duration {
	yardOnce.Do(func() {
		// Touch every page: untouched zero pages all map to one frame and
		// would stay in cache.
		for i := range yardBuf {
			yardBuf[i] = int64(i)
		}
	})
	t0 := time.Now()
	x, sum := yardSeq.Add(1), int64(0)
	for i := 0; i < yardstickSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += yardBuf[(uint64(x)>>33)%uint64(len(yardBuf))]
	}
	d := time.Since(t0)
	yardSink.Add(sum) // keeps the loop from being optimised away
	return d
}

// machineSpeed turns yardstick samples into the factor by which this
// machine ran slower (<1) or faster (>1) than the nominal one: a duration
// measured beside the samples is multiplied by it, a rate divided.
func machineSpeed(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	return ms(yardstickNominal) / median(millis(samples))
}
