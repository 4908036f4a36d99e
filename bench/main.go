// Command bench is the repository's benchmark: six serving and batch
// workloads over the reasoning API, the vadalink facade and the internal
// layers, each checked against an oracle. See README.md.
//
// The benchmark driver calls it with flags only (one workload, one run, the
// result as the last line of standard output):
//
//	go run -C bench . --workload point-hot --seed 1 --seconds 10 --trace 0
//
// People call the subcommands:
//
//	go run -C bench . run   [-seed N] [-scale F] [-seconds S] [-workload W]
//	go run -C bench . trace [-seed N] [-scale F] [-seconds S] [-workload W]
//	go run -C bench . aa    [-n 10] [-scale F] [-seconds S] [-workload W]
//	go run -C bench . spec  # prints BENCHMARK.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// heldOutSeed is never used while a change is written; a claimed gain must
// also hold on it (choosing-metrics, section 6).
const heldOutSeed = 2

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: bench run|trace|aa|spec [flags], or bench --workload W --seed N --seconds S --trace 0|1")
	}
	if strings.HasPrefix(args[0], "-") {
		return driverMode(args)
	}
	switch args[0] {
	case "run", "trace":
		return suite(args[0] == "trace", args[1:])
	case "aa":
		return aa(args[1:])
	case "spec":
		_, err := os.Stdout.Write(specJSON())
		return err
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// commonFlags are shared by the driver contract and the subcommands.
type commonFlags struct {
	workload string
	seed     int64
	scale    float64
	seconds  float64
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.workload, "workload", "", "run only this workload (default: all six)")
	fs.Int64Var(&c.seed, "seed", 1, fmt.Sprintf("workload generator seed (%d is held out for claim checks)", heldOutSeed))
	fs.Float64Var(&c.scale, "scale", 1, "multiplies every graph size")
	fs.Float64Var(&c.seconds, "seconds", runSeconds, "length of each timed phase")
}

// driverMode is the contract with the benchmark driver: one run in this
// process, human-readable lines first, the result object last.
func driverMode(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	trace := fs.Int("trace", 0, "1 records spans and emits the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cf.workload == "" || cf.seconds <= 0 || cf.scale <= 0 {
		return errors.New("--workload, a positive --seconds and a positive --scale are required")
	}
	res, err := runOne(config{
		workload: cf.workload, seed: cf.seed, scale: cf.scale, seconds: cf.seconds,
		trace: *trace == 1, outDir: "out",
	})
	if err != nil {
		return err
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	printTable(cf.workload, defs, res)
	if f := res.Values["replay.fidelity_ratio"]; f.n > 0 && (f.v < 0.8 || f.v > 1.25) {
		fmt.Printf("%s: replay.fidelity_ratio %.2f is outside [0.8, 1.25]: the replay no longer mirrors the program (or the machine was too noisy to tell)\n", cf.workload, f.v)
	}
	line, err := json.Marshal(driverLine(defs, res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type lineJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// driverLine emits every metric of defs exactly once; one this workload
// does not exercise reads 0.
func driverLine(defs []metricDef, res *result) lineJSON {
	out := lineJSON{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		out.Metrics[d.Name] = metricJSON{res.Values[d.Name].v, d.Unit}
	}
	return out
}

func printTable(workload string, defs []metricDef, res *result) {
	fmt.Printf("%s: attempted=%d failed=%d correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	if res.Void != "" {
		fmt.Printf("%s: %s %s\n", workload, voidMark, res.Void)
	}
	if res.Raw != "" {
		fmt.Printf("%s: %s\n", workload, res.Raw)
	}
	for _, d := range defs {
		s := res.Values[d.Name]
		fmt.Printf("  %-36s %14.4f %-6s n=%d", d.Name, s.v, d.Unit, s.n)
		if d.Moves != "" && s.n > 0 {
			fmt.Printf("  -> %s", d.Moves)
		}
		fmt.Println()
	}
}

// voidMark opens the line a run prints when its load generator misbehaved.
// The result object has no field for it (the driver fixes its keys), so the
// subcommands look for the mark in what their child printed.
const voidMark = "VOID:"

// child re-executes this binary for one workload, so every workload starts
// on a fresh heap, and parses the result line it prints last. void reports
// whether the child declared its run void.
func child(cf commonFlags, workload string, seed int64, trace bool, echo bool) (line *lineJSON, void bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(cf.seconds), "--scale", fmt.Sprint(cf.scale), "--trace", t)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", workload, err)
	}
	out = bytes.TrimRight(out, "\n")
	i := bytes.LastIndexByte(out, '\n')
	if echo {
		fmt.Println(string(out[:max(i, 0)]))
	}
	line = new(lineJSON)
	if err := json.Unmarshal(out[i+1:], line); err != nil {
		return nil, false, fmt.Errorf("%s: last output line is not a result: %w", workload, err)
	}
	return line, bytes.Contains(out[:max(i, 0)], []byte(voidMark)), nil
}

func selected(cf commonFlags) ([]string, error) {
	if cf.workload != "" {
		if _, err := lookupWorkload(cf.workload); err != nil {
			return nil, err
		}
		return []string{cf.workload}, nil
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names, nil
}

// suite is `bench run` and `bench trace`: every workload once, each in its
// own process, then one JSON summary. It claims nothing: the summary ends
// with "claim": null.
func suite(trace bool, args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := selected(cf)
	if err != nil {
		return err
	}
	type summary struct {
		Seed      int64                `json:"seed"`
		Scale     float64              `json:"scale"`
		Seconds   float64              `json:"seconds"`
		Traced    bool                 `json:"traced"`
		Workloads map[string]*lineJSON `json:"workloads"`
		Claim     *string              `json:"claim"`
	}
	sum := summary{Seed: cf.seed, Scale: cf.scale, Seconds: cf.seconds, Traced: trace, Workloads: map[string]*lineJSON{}}
	failed := false
	for _, name := range names {
		line, void, err := child(cf, name, cf.seed, trace, true)
		if err != nil {
			return err
		}
		sum.Workloads[name] = line
		failed = failed || !line.Correct || void
	}
	out, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	name := "summary.json"
	if trace {
		name = "summary-trace.json"
	}
	if err := os.WriteFile(filepath.Join("out", name), append(out, '\n'), 0o644); err != nil {
		return err
	}
	if failed {
		return errors.New("at least one workload produced wrong outputs or voided its run")
	}
	return nil
}

// aa runs the suite n times twice over on the same code — set A and set B,
// seeds 1..n each, alternating the workload order — and judges the benchmark
// by its own bounds: every end-to-end metric's spread (interquartile range
// over median) must stay inside its bound on both sets, and set B's median
// may not be worse than set A's by more than the bound. The driver applies
// the same rule; the bounds in metrics.go were calibrated with this output.
func aa(args []string) error {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	n := fs.Int("n", 10, "runs per set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names, err := selected(cf)
	if err != nil {
		return err
	}
	// got[workload][metric][set] = values, one per run.
	got := map[string]map[string]*[2][]float64{}
	voided := 0
	for i := 0; i < *n; i++ {
		order := append([]string(nil), names...)
		if i%2 == 1 {
			sort.Sort(sort.Reverse(sort.StringSlice(order)))
		}
		for set := 0; set < 2; set++ {
			for _, name := range order {
				seed := cf.seed + int64(i)
				line, void, err := child(cf, name, seed, false, false)
				if err != nil {
					return err
				}
				if !line.Correct {
					return fmt.Errorf("%s seed %d: wrong outputs (%d of %d failed)", name, seed, line.Failed, line.Attempted)
				}
				if void {
					voided++
					fmt.Fprintf(os.Stderr, "aa: %s seed %d: the load generator voided the run; its numbers are kept and counted\n", name, seed)
				}
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s seed %d:", i+1, *n, 'A'+set, name, seed)
				for _, d := range endToEnd {
					fmt.Fprintf(os.Stderr, " %s=%.4g", d.Name, line.Metrics[d.Name].Value)
				}
				fmt.Fprintln(os.Stderr)
				if got[name] == nil {
					got[name] = map[string]*[2][]float64{}
				}
				for metric, m := range line.Metrics {
					if got[name][metric] == nil {
						got[name][metric] = &[2][]float64{}
					}
					got[name][metric][set] = append(got[name][metric][set], m.Value)
				}
			}
		}
	}
	bad := 0
	fmt.Printf("%-15s %-18s %12s %12s %12s %8s %12s %8s %8s %6s\n",
		"workload", "metric", "A.median", "A.q1", "A.q3", "A.spread", "B.median", "B.spread", "B-vs-A", "bound")
	for _, name := range names {
		for _, d := range endToEnd {
			v := got[name][d.Name]
			aq1, amed, aq3 := quartiles(v[0])
			bq1, bmed, bq3 := quartiles(v[1])
			aspread, bspread := ratio(aq3-aq1, amed), ratio(bq3-bq1, bmed)
			worse := ratio(bmed-amed, amed)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Name != "setup_s" && (aspread > d.Bound || bspread > d.Bound) {
				verdict = " SPREAD"
			}
			if worse > d.Bound {
				verdict += " DISAGREE"
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-15s %-18s %12.4f %12.4f %12.4f %8.4f %12.4f %8.4f %+8.4f %6.2f%s\n",
				name, d.Name, amed, aq1, aq3, aspread, bmed, bspread, worse, d.Bound, verdict)
		}
	}
	if bad > 0 || voided > 0 {
		return fmt.Errorf("%d metric/workload pairs are unsteady beyond their own bound, %d runs were void", bad, voided)
	}
	return nil
}
