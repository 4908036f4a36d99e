package datalog

// Plans exposes a rule's evaluation plans to the external test package
// (plan_test.go needs the shipped programs of internal/vadalog, which imports
// this package): the round-0 order, and per body position the order of the
// jobs that restrict that position to a delta (nil for non-atoms).
func Plans(r Rule) (round0 []int, delta [][]int, err error) {
	m, err := planRule(r)
	return m.order, m.deltaOrder, err
}
