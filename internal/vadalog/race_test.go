//go:build race

package vadalog

// raceEnabled reports whether the race detector instruments this test
// binary; it allocates on its own, so allocation counts mean nothing under it.
const raceEnabled = true
