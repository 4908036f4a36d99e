package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestSpecInSync pins BENCHMARK.json to the tables in metrics.go and checks
// the naming rules the driver enforces.
func TestSpecInSync(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, specJSON()) {
		t.Fatal("BENCHMARK.json differs from `go run -C bench . spec`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q breaks the naming rules", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q breaks the naming rules (why: %d chars)", w.Name, len(w.Why))
		}
	}
}

// neverMovesHere lists the per-layer metrics that legitimately read 0 on a
// healthy run of every workload: failure counters and cache evictions.
var neverMovesHere = map[string]bool{
	"fail_ratio": true, "reasonapi.non200": true, "reasonapi.truncated": true,
	"qcache.evictions": true, "replication.bad_frames": true, "replication.reconnects": true,
	"ivm.invalidations": true,
}

// TestSmoke runs all six workloads at a tenth of the size for half a second
// each, untraced and traced: every metric of BENCHMARK.json comes out once
// with its unit, nothing fails an oracle, no end-to-end metric is 0, and
// every per-layer metric is measured by at least one workload.
func TestSmoke(t *testing.T) {
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(specJSON(), &spec); err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	moved := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runOne(config{workload: w.Name, seed: 1, scale: 0.1, seconds: 0.5, trace: traced, outDir: outDir})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d ops failed", w.Name, traced, res.Failed, res.Attempted)
			}
			want, defs := spec.EndToEnd, endToEnd
			if traced {
				want, defs = spec.PerLayer, perLayer
			}
			line := driverLine(defs, res)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := line.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit || got.Unit == "":
					t.Errorf("%s: metric %s has unit %q, want %q", w.Name, m.Name, got.Unit, m.Unit)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if got.Value != 0 {
					moved[m.Name] = true
				}
			}
			if traced {
				if _, err := os.Stat(outDir + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !moved[m.Name] && !neverMovesHere[m.Name] {
			t.Errorf("per-layer metric %s read 0 on every workload: nothing measures it", m.Name)
		}
	}
}
