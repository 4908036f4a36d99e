package whatif

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// randomOps builds a batch of 1–6 scenario ops that is guaranteed to apply
// cleanly, by trial-applying each candidate op to a scratch overlay. The
// scratch overlay evolves exactly as Evaluate's internal overlay will, so
// node IDs created mid-batch are referenceable by later ops.
func randomOps(rng *rand.Rand, base pg.View) []Op {
	scratch := pg.NewOverlay(base)
	var ops []Op
	want := 1 + rng.Intn(6)
	for attempts := 0; len(ops) < want && attempts < 50; attempts++ {
		var op Op
		switch rng.Intn(5) {
		case 0:
			label := "Company"
			if rng.Intn(4) == 0 {
				label = "Person"
			}
			op = Op{Op: "addNode", Label: label, Name: fmt.Sprintf("wi%d", len(ops))}
		case 1:
			nodes := scratch.Nodes()
			companies := scratch.NodesWithLabel(pg.LabelCompany)
			if len(nodes) == 0 || len(companies) == 0 {
				continue
			}
			op = Op{
				Op:   "addShare",
				From: nodes[rng.Intn(len(nodes))],
				To:   companies[rng.Intn(len(companies))],
				W:    0.05 + 0.9*rng.Float64(),
			}
		case 2:
			shares := scratch.EdgesWithLabel(pg.LabelShareholding)
			if len(shares) == 0 {
				continue
			}
			op = Op{Op: "setShare", Edge: shares[rng.Intn(len(shares))], W: 0.05 + 0.9*rng.Float64()}
		case 3:
			edges := scratch.Edges()
			if len(edges) == 0 {
				continue
			}
			op = Op{Op: "removeEdge", Edge: edges[rng.Intn(len(edges))]}
		case 4:
			nodes := scratch.Nodes()
			if len(nodes) < 4 {
				continue
			}
			op = Op{Op: "removeNode", Node: nodes[rng.Intn(len(nodes))]}
		}
		if _, _, err := Apply(scratch, []Op{op}); err != nil {
			continue
		}
		ops = append(ops, op)
	}
	return ops
}

func sortedPairs(m map[Pair]bool) []Pair {
	out := make([]Pair, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sortPairs(out)
	return out
}

func diffPairSets(t *testing.T, what string, got, want map[Pair]bool) {
	t.Helper()
	if len(got) == len(want) {
		same := true
		for p := range want {
			if !got[p] {
				same = false
				break
			}
		}
		if same {
			return
		}
	}
	t.Errorf("%s mismatch:\n  got  %v\n  want %v", what, sortedPairs(got), sortedPairs(want))
}

// controlSet flattens a by-source control relation to its pair set, failing
// on a row that is empty, unsorted or repeats a target.
func controlSet(t *testing.T, m map[pg.NodeID][]pg.NodeID) map[Pair]bool {
	t.Helper()
	out := map[Pair]bool{}
	for x, row := range m {
		if len(row) == 0 {
			t.Errorf("control row of %d is empty", x)
		}
		for i, y := range row {
			if i > 0 && row[i-1] >= y {
				t.Errorf("control row of %d is %v, want sorted, no repeats", x, row)
			}
			out[Pair{x, y}] = true
		}
	}
	return out
}

// keys projects a pair map (a bool set or a witness-count map) to its set.
func keys[V any](m map[Pair]V) map[Pair]bool {
	out := make(map[Pair]bool, len(m))
	for p := range m {
		out[p] = true
	}
	return out
}

// oracle chases vadalog.ControlProgram + vadalog.CloseLinkProgramT(threshold)
// over v from scratch. Its pairs are formed by rules over every accown row
// the chase derives — no witness counting, no final-row argument — so it
// shares none of the code it judges.
func oracle(t *testing.T, v pg.View, threshold float64) (control, closeLink map[Pair]bool) {
	t.Helper()
	prog := datalog.MustParse(vadalog.ControlProgram + vadalog.CloseLinkProgramT(threshold))
	e, err := datalog.NewEngine(prog, datalog.WithMinAggDelta(DefaultMinAggDelta))
	if err != nil {
		t.Fatal(err)
	}
	e.AssertAll(relstore.CompanyGraphFacts(v))
	if err := e.Run(); err != nil {
		t.Fatalf("oracle chase: %v", err)
	}
	control, closeLink = map[Pair]bool{}, map[Pair]bool{}
	for _, f := range e.Facts("control") {
		if p, ok := pairOf(f); ok {
			control[p] = true
		}
	}
	for _, f := range e.Facts("closelink") {
		if p, ok := pairOf(f); ok {
			closeLink[canonical(p[0], p[1])] = true
		}
	}
	return control, closeLink
}

// TestDifferentialWhatIf is the ground-truth harness: across 100+ randomized
// generated graphs and random scenario batches, the scoped evaluation must
// agree fact-for-fact, on both the control and the close-link relation, with
// the oracle run on the flattened overlay (a standalone flat copy of the
// composite graph) — and the baseline it started from with the oracle on the
// base graph. Evaluate reports only the diff, so the composite is
// (baseline \ lost) ∪ gained, with gained disjoint from the baseline and lost
// inside it; Advance's successor must equal that composite and its step
// Evaluate's diff. The affected-source count (served as /v1/whatif's
// affectedSources) must equal the reverse reach of Apply's changed sources
// over base and overlay.
func TestDifferentialWhatIf(t *testing.T) {
	if testing.Short() {
		t.Skip("differential harness is not short")
	}
	ctx := context.Background()
	thresholds := []float64{0.1, 0.2, 0.3}

	const cases = 110
	ran := 0
	for i := 0; i < cases; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		var base *pg.Graph
		if i%5 == 4 {
			// Every fifth case: an Italian-style graph, for person-owner and
			// family-structure coverage.
			base = graphgen.NewItalian(graphgen.ItalianConfig{
				Companies: 10 + rng.Intn(10),
				Persons:   6 + rng.Intn(6),
				Seed:      int64(i),
			}).Graph
		} else {
			base = graphgen.Barabasi(8+rng.Intn(16), 1+rng.Intn(3), int64(i))
		}
		threshold := thresholds[i%len(thresholds)]
		ops := randomOps(rng, base)
		if len(ops) == 0 {
			continue
		}
		ran++

		name := fmt.Sprintf("case %d (t=%v, %d ops, %d nodes)", i, threshold, len(ops), base.NumNodes())

		bl, err := ComputeBaseline(ctx, base, threshold)
		if err != nil {
			t.Fatalf("%s: baseline: %v", name, err)
		}
		baseControl, baseCloseLink := oracle(t, base, threshold)
		before := controlSet(t, bl.Control)
		diffPairSets(t, name+": baseline vs oracle control", before, baseControl)
		diffPairSets(t, name+": baseline vs oracle closelink", keys(bl.CloseLink), baseCloseLink)

		res, err := Evaluate(ctx, base, bl, ops, Options{Threshold: threshold})
		if err != nil {
			t.Fatalf("%s: evaluate: %v", name, err)
		}
		o := pg.NewOverlay(base)
		_, changed, err := Apply(o, ops)
		if err != nil {
			t.Fatalf("%s: re-apply: %v", name, err)
		}
		flat, err := pg.Flatten(o)
		if err != nil {
			t.Fatalf("%s: flatten: %v", name, err)
		}
		control, closeLink := oracle(t, flat, threshold)
		afterControl := compose(t, name+": control diff", before, res.ControlGained, res.ControlLost)
		afterCloseLink := compose(t, name+": closelink diff", keys(bl.CloseLink), res.CloseLinkGained, res.CloseLinkLost)
		diffPairSets(t, name+": what-if vs oracle control", afterControl, control)
		diffPairSets(t, name+": what-if vs oracle closelink", afterCloseLink, closeLink)

		journal, _ := o.Journal()
		next, st, err := bl.Advance(ctx, o, journal)
		if err != nil {
			t.Fatalf("%s: advance: %v", name, err)
		}
		diffPairSets(t, name+": successor vs composite control", controlSet(t, next.Control), afterControl)
		diffPairSets(t, name+": successor vs composite closelink", keys(next.CloseLink), afterCloseLink)
		if want := (Step{res.AffectedSources, res.ControlGained, res.ControlLost, res.CloseLinkGained, res.CloseLinkLost}); !reflect.DeepEqual(st, want) {
			t.Errorf("%s: Advance step %+v, Evaluate diff %+v", name, st, want)
		}

		if want := len(ReverseReachable(changed, base, o)); res.AffectedSources != want {
			t.Errorf("%s: %d affected sources, the base+overlay reach of the changed sources has %d", name, res.AffectedSources, want)
		}
		if t.Failed() {
			t.Fatalf("%s: stopping after first divergence", name)
		}
	}
	if ran < 100 {
		t.Fatalf("only %d effective cases ran, want >= 100", ran)
	}
}

// compose returns (before \ lost) ∪ gained, after checking that gained and
// lost are sorted without repeats, that gained is disjoint from before and
// that lost lies inside it.
func compose(t *testing.T, what string, before map[Pair]bool, gained, lost []Pair) map[Pair]bool {
	t.Helper()
	for _, ps := range [][]Pair{gained, lost} {
		for i := 1; i < len(ps); i++ {
			if a, b := ps[i-1], ps[i]; a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
				t.Errorf("%s: %v is not sorted without repeats", what, ps)
				break
			}
		}
	}
	after := maps.Clone(before)
	for _, p := range lost {
		if !before[p] {
			t.Errorf("%s: lost %v is not in the baseline", what, p)
		}
		delete(after, p)
	}
	for _, p := range gained {
		if before[p] {
			t.Errorf("%s: gained %v is already in the baseline", what, p)
		}
		after[p] = true
	}
	return after
}
