package datalog_test

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/vadalog"
)

// derivedKeys returns the sorted keys of every fact of the program's head
// predicates in e.
func derivedKeys(prog *datalog.Program, e *datalog.Engine) []string {
	var keys []string
	for pred := range prog.HeadPreds() {
		for _, f := range e.Facts(pred) {
			keys = append(keys, f.Key())
		}
	}
	sort.Strings(keys)
	return keys
}

// TestSharedCompiledPlan runs eight goroutines of engines instantiated from
// one Compiled per program — the control + close-link program, and the
// what-if maintenance program over an affected subset — and checks every
// result against a private NewEngine run, fact for fact. Under -race it pins
// that nothing writes a compiled program after Compile.
func TestSharedCompiledPlan(t *testing.T) {
	facts := registryFacts()
	maintenanceFacts := slices.Clone(facts)
	for _, f := range facts {
		if id, ok := f.Args[0].(int64); ok && (f.Pred == "company" || f.Pred == "person") && id%3 == 0 {
			maintenanceFacts = append(maintenanceFacts, datalog.Fact{Pred: "affected", Args: []any{id}})
		}
	}
	for _, tc := range []struct {
		name  string
		src   string
		facts []datalog.Fact
	}{
		{"control+closelink", vadalog.ControlProgram + vadalog.CloseLinkProgram, facts},
		{"maintenance", vadalog.MaintenanceProgram(), maintenanceFacts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := datalog.MustParse(tc.src)
			run := func(e *datalog.Engine) []string {
				e.AssertAll(tc.facts)
				if err := e.Run(); err != nil {
					t.Error(err)
				}
				return derivedKeys(prog, e)
			}
			private, err := datalog.NewEngine(prog, datalog.WithMinAggDelta(1e-4))
			if err != nil {
				t.Fatal(err)
			}
			want := run(private)
			if len(want) < 100 {
				t.Fatalf("vacuous program: %d derived facts", len(want))
			}

			shared, err := datalog.Compile(prog)
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]string, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = run(shared.NewEngine(datalog.WithMinAggDelta(1e-4)))
				}()
			}
			wg.Wait()
			for i, keys := range got {
				if !slices.Equal(keys, want) {
					t.Errorf("goroutine %d: %d facts differ from the private engine's %d", i, len(keys), len(want))
				}
			}
		})
	}
}
