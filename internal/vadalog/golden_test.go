package vadalog

// Golden-output tests for the paper's three reasoning programs: company
// control, close links, and family augmentation (family control over the
// fammember relation), run on a small fixed-seed graphgen graph. The
// expected outputs live in testdata/golden/*.golden; regenerate with
//
//	go test ./internal/vadalog -run TestGolden -update

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vadalink/internal/graphgen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files with current output")

func goldenGraph() *graphgen.Italian {
	return graphgen.NewItalian(graphgen.ItalianConfig{Persons: 30, Companies: 60, Seed: 11})
}

// goldenLines runs the reasoner for one task set and renders the derived
// facts of the named predicates as sorted lines.
func goldenLines(t *testing.T, it *graphgen.Italian, tasks Task, preds []string, withAccown bool) []string {
	t.Helper()
	r := NewReasoner(it.Graph, tasks)
	if tasks&TaskFamilyControl != 0 {
		r.Families = it.Families
	}
	if err := r.Run(); err != nil {
		t.Fatalf("reasoner run: %v", err)
	}
	var lines []string
	for _, pred := range preds {
		for _, f := range r.engine.Facts(pred) {
			lines = append(lines, f.String())
		}
	}
	if withAccown {
		// Accumulated ownership renders at 6 decimals: enough to pin the
		// semantics, coarse enough to absorb float-association differences
		// when the summation order changes.
		acc := r.AccumulatedOwnership()
		for k, v := range acc {
			lines = append(lines, fmt.Sprintf("accown(%d, %d) = %.6f", k[0], k[1], v))
		}
	}
	sort.Strings(lines)
	return lines
}

func TestGoldenPrograms(t *testing.T) {
	cases := []struct {
		name       string
		tasks      Task
		preds      []string
		withAccown bool
	}{
		{"control", TaskControl, []string{"control"}, false},
		{"closelink", TaskCloseLink, []string{"closelink"}, true},
		{"familycontrol", TaskFamilyControl, []string{"familycontrol", "control"}, false},
	}
	it := goldenGraph()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", tc.name+".golden")
			got := goldenLines(t, it, tc.tasks, tc.preds, tc.withAccown)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading golden file (run with -update to create): %v", err)
			}
			want := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
			if len(got) != len(want) {
				t.Fatalf("%d lines, golden has %d\nfirst lines got: %s", len(got), len(want), head(got, 5))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("line %d:\n got: %s\nwant: %s", i+1, got[i], want[i])
				}
			}
		})
	}
}

// TestGoldenNonEmpty guards against a silently empty golden corpus: a seed
// change that derives nothing should fail loudly, not pin a vacuous file.
func TestGoldenNonEmpty(t *testing.T) {
	for _, name := range []string{"control", "closelink", "familycontrol"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if len(strings.TrimSpace(string(raw))) == 0 {
			t.Fatalf("%s.golden is empty — regenerate with a seed that derives facts", name)
		}
	}
}

func head(lines []string, n int) string {
	if len(lines) < n {
		n = len(lines)
	}
	return strings.Join(lines[:n], " | ")
}
