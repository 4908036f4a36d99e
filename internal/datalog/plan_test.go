package datalog_test

import (
	"testing"

	"vadalink/internal/datalog"
	"vadalink/internal/vadalog"
)

// plannedPrograms is every shipped program plus the three magic adornments
// of control (bf, fb, bb), whose rewritten rules carry demand atoms the
// planner has never seen in source form.
func plannedPrograms(t *testing.T) map[string]*datalog.Program {
	t.Helper()
	out := map[string]*datalog.Program{}
	for name, src := range map[string]string{
		"control":         vadalog.ControlProgram,
		"closelink":       vadalog.CloseLinkProgram,
		"familycontrol":   vadalog.FamilyControlProgram,
		"familycloselink": vadalog.FamilyCloseLinkProgram,
		"influence":       vadalog.InfluenceProgram,
	} {
		p, err := datalog.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = p
	}
	for adorn, goal := range map[string]string{"bf": "control(1, Y)", "fb": "control(X, 4)", "bb": "control(1, 4)"} {
		g, err := datalog.ParseGoal(goal)
		if err != nil {
			t.Fatal(err)
		}
		d, err := datalog.MagicRewrite(out["control"], g)
		if err != nil {
			t.Fatalf("magic %s: %v", adorn, err)
		}
		out["control#"+adorn] = d.Program
	}
	return out
}

func sharesBound(a datalog.Atom, bound map[datalog.Variable]bool) bool {
	for _, term := range a.Terms {
		if v, ok := term.(datalog.Variable); ok && v != "_" && bound[v] {
			return true
		}
	}
	return false
}

func bind(a datalog.Atom, bound map[datalog.Variable]bool) {
	for _, term := range a.Terms {
		if v, ok := term.(datalog.Variable); ok {
			bound[v] = true
		}
	}
}

// TestDeltaPlans: every delta plan is a permutation of the body that starts
// at its delta atom, and never reaches an atom with no bound variable (a
// relation scan) while an unplaced atom has one (an index probe).
func TestDeltaPlans(t *testing.T) {
	reordered := 0
	for name, prog := range plannedPrograms(t) {
		for _, rule := range prog.Rules {
			round0, delta, err := datalog.Plans(rule)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, rule, err)
			}
			if len(delta) != len(rule.Body) {
				t.Fatalf("%s: %s: %d delta plans for %d body literals", name, rule, len(delta), len(rule.Body))
			}
			for li, lit := range rule.Body {
				plan := delta[li]
				if lit.Kind != datalog.LitAtom {
					if plan != nil {
						t.Errorf("%s: %s: literal %d is no atom but has delta plan %v", name, rule, li, plan)
					}
					continue
				}
				seen := make([]bool, len(rule.Body))
				for _, pi := range plan {
					if pi < 0 || pi >= len(seen) || seen[pi] {
						t.Fatalf("%s: %s: delta plan %d = %v is not a permutation of the body", name, rule, li, plan)
					}
					seen[pi] = true
				}
				if len(plan) != len(rule.Body) {
					t.Fatalf("%s: %s: delta plan %d = %v misses body literals", name, rule, li, plan)
				}
				if plan[0] != li {
					t.Errorf("%s: %s: delta plan %d = %v does not start at its delta atom", name, rule, li, plan)
				}
				if li != round0[0] {
					reordered++
				}
				bound := map[datalog.Variable]bool{}
				placed := map[int]bool{}
				for _, pi := range plan {
					placed[pi] = true
					switch l := rule.Body[pi]; l.Kind {
					case datalog.LitAtom:
						if pi != li && !sharesBound(l.Atom, bound) {
							for qi, q := range rule.Body {
								if !placed[qi] && q.Kind == datalog.LitAtom && sharesBound(q.Atom, bound) {
									t.Errorf("%s: %s: delta plan %d = %v scans literal %d while literal %d could be probed", name, rule, li, plan, pi, qi)
								}
							}
						}
						bind(l.Atom, bound)
					case datalog.LitAssign, datalog.LitAgg:
						bound[l.Var] = true
					}
				}
			}
		}
	}
	if reordered == 0 {
		t.Error("no shipped rule has a delta occurrence behind its first atom: the test exercises nothing")
	}
}
