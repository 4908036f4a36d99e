package datalog_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vadalink/internal/datalog"
)

// randomValue draws a ground value of any type the engine stores, with
// int/int64 twins and integral floats so equal keys of distinct
// representations occur.
func randomValue(rng *rand.Rand) any {
	switch rng.Intn(8) {
	case 0:
		return []string{"a", "b", "ab", "", "1"}[rng.Intn(5)]
	case 1:
		return int64(rng.Intn(12) - 2)
	case 2:
		return rng.Intn(12) - 2
	case 3:
		return float64(rng.Intn(6)) / 2
	case 4:
		return rng.Intn(2) == 0
	case 5:
		return datalog.Null{ID: uint64(rng.Intn(4))}
	case 6:
		return datalog.NewSkolem("sk", int64(rng.Intn(3)))
	}
	return rng.Float64()
}

// TestSortFactsMatchesKeyComparator: SortFacts orders random mixed-type
// facts — duplicates and equal-key twins included — exactly as a sort.Slice
// comparing Key() per comparison does, ties included.
func TestSortFactsMatchesKeyComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for c := 0; c < 200; c++ {
		n := rng.Intn(300)
		fs := make([]datalog.Fact, 0, n)
		for i := 0; i < n; i++ {
			if i > 0 && rng.Intn(5) == 0 {
				fs = append(fs, fs[rng.Intn(i)]) // a duplicate
				continue
			}
			args := make([]any, 1+rng.Intn(3))
			for j := range args {
				args[j] = randomValue(rng)
			}
			fs = append(fs, datalog.Fact{Pred: []string{"p", "q", "pq"}[rng.Intn(3)], Args: args})
		}
		want := append([]datalog.Fact(nil), fs...)
		sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
		got := append([]datalog.Fact(nil), fs...)
		datalog.SortFacts(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (%d facts): SortFacts order differs from the Key comparator's", c, n)
		}
	}
}

// TestSortFactsAllocations: SortFacts builds each key once, into one
// buffer, so its allocations do not grow with n — the comparator it
// replaced allocated two key strings per comparison.
func TestSortFactsAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, n := range []int{100, 10_000} {
		fs := make([]datalog.Fact, n)
		for i := range fs {
			fs[i] = datalog.Fact{Pred: "own", Args: []any{int64(i * 7919 % n), int64(i), 0.5}}
		}
		got := testing.AllocsPerRun(10, func() { datalog.SortFacts(fs) })
		t.Logf("n=%d: %.0f allocations", n, got)
		if got > 8 {
			t.Errorf("n=%d: SortFacts allocates %.0f times, want at most 8", n, got)
		}
	}
}
