package vadalog

// ProgramForGoal is the text of the shipped program ForGoal selects, the
// form the memo and goal tests evaluate fresh and through EvalGoal.
func ProgramForGoal(pred string) (string, bool) {
	switch p, ok := ForGoal(pred); {
	case !ok:
		return "", false
	case p == CloseLink:
		return CloseLinkProgram, true
	default:
		return ControlProgram, true
	}
}
