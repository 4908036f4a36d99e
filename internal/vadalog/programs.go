// Package vadalog ships the declarative rule programs of the paper's
// Algorithms 2–9 in the concrete syntax of the datalog package, and a
// Reasoner that evaluates them over a property graph: the input mapping
// promotes the graph to generic nodes/links, the per-problem programs derive
// candidate links, and the output mapping turns them back into typed
// property-graph edges.
//
// The programs demonstrate the paper's §5 understandability claim — each
// problem is 3–7 rules of Vadalog against the equivalent imperative solver
// (the control, closelink and family packages); TestProgramLineCounts keeps
// the counts honest.
package vadalog

import (
	"slices"
	"strconv"
	"strings"

	"vadalink/internal/datalog"
)

// InputMapping is Algorithm 2: promotion of the concrete company schema into
// generic nodes and links with types. Skolem functions invent node OIDs with
// disjoint ranges for persons and companies; edge OIDs are existential. Each
// shareholding is promoted once, typed by the kind of its owner.
const InputMapping = `
% Algorithm 2 — input mapping for the company property graph.
company(Id, Name, Birth, Addr, Sector), Z = #skc(Id) ->
    gnode(Z, Name, Birth, Addr, Sector), gnodetype(Z, "Company"), gid(Z, Id).
person(Id, Name, Birth, Addr, Sector), Z = #skp(Id) ->
    gnode(Z, Name, Birth, Addr, Sector), gnodetype(Z, "Person"), gid(Z, Id).
own(X, Y, W), company(X, _, _, _, _), F = #skc(X), T = #skc(Y) ->
    glink(E, F, T, W), gedgetype(E, "comp_share").
own(X, Y, W), person(X, _, _, _, _), F = #skp(X), T = #skc(Y) ->
    glink(E, F, T, W), gedgetype(E, "pers_share").
`

// ControlProgram is Algorithm 5: the Candidate predicate for company
// control over the flat own/3 relation. Rule 1 is reflexive seeding; rule 2
// is the joint-majority recursion with monotonic summation over distinct
// intermediaries.
const ControlProgram = `
% Algorithm 5 — company control (Definition 2.3).
company(X, N, B, A, S) -> ccand(X, X).
person(X, N, B, A, S) -> ccand(X, X).
ccand(X, Z), own(Z, Y, W), X != Y, S = msum(W, <Z>), S > 0.5 -> ccand(X, Y).
ccand(X, Y), X != Y -> control(X, Y).
`

// CloseLinkProgram is Algorithm 6: accumulated ownership via monotonic
// summation (both rules contribute to one per-pair total, the paper's
// shared-total semantics) and the three close-link conditions of
// Definition 2.6. The threshold is inlined at 0.2 (the ECB value); programs
// with other thresholds are produced by CloseLinkProgramT.
const CloseLinkProgram = `
% Algorithm 6 — close links (Definitions 2.5 and 2.6), t = 0.2.
own(X, Y, W), X != Y, S = msum(W, <X, Y>) -> accown(X, Y, S).
own(X, Z, W1), X != Z, accown(Z, Y, W2), X != Y, S = msum(W1 * W2, <Z, Y>) -> accown(X, Y, S).
accown(X, Y, W), W >= 0.2, company(X, N1, B1, A1, S1), company(Y, N2, B2, A2, S2) -> clcand(X, Y).
clcand(X, Y) -> clcand(Y, X).
accown(Z, X, W1), W1 >= 0.2, accown(Z, Y, W2), W2 >= 0.2, X != Y,
    company(X, N1, B1, A1, S1), company(Y, N2, B2, A2, S2) -> clcand(X, Y).
clcand(X, Y) -> closelink(X, Y).
`

// CloseLinkProgramT is CloseLinkProgram with the close-link threshold t
// inlined in place of the ECB default 0.2 (the EBA uses 0.1; supervisors
// run sensitivity sweeps over t).
func CloseLinkProgramT(t float64) string {
	s := strconv.FormatFloat(t, 'g', -1, 64)
	return strings.ReplaceAll(CloseLinkProgram, "0.2", s)
}

// PartnerProgram is Algorithm 7: the Candidate predicate for the PartnerOf
// class — person pairs whose combined feature-match probability exceeds 0.5.
// #linkprob is the classifier hook registered by the Reasoner.
const PartnerProgram = `
% Algorithm 7 — personal connections via the Bayesian classifier.
person(X, N1, B1, A1, S1), person(Y, N2, B2, A2, S2), X != Y,
    P = #linkprob(X, Y), P > 0.5 -> partnerof(X, Y).
`

// FamilyControlProgram is Algorithm 8: control exercised jointly by a family
// F — members' direct shares and shares of already-family-controlled
// companies accumulate in one msum total per (F, Y) pair.
const FamilyControlProgram = `
% Algorithm 8 — family control.
fammember(P, F), control(P, Y) -> fcand(F, Y).
fcand(F, X), own(X, Y, W), S = msum(W, <X>), S > 0.5 -> fcand(F, Y).
fammember(I, F), own(I, Y, W), S = msum(W, <I>), S > 0.5 -> fcand(F, Y).
fcand(F, Y) -> familycontrol(F, Y).
`

// FamilyCloseLinkProgram is Algorithm 9: two companies heavily owned by two
// different members of one family are closely linked.
const FamilyCloseLinkProgram = `
% Algorithm 9 — family close links.
fammember(I, F), fammember(J, F), I != J,
    accown(I, X, V), V >= 0.2, accown(J, Y, W), W >= 0.2, X != Y -> closelink(X, Y).
`

// InfluenceProgram is Example 3.2 of the paper, verbatim: intensional edges
// linking persons to companies they are influential on. Rule 1: a person
// affects the companies she owns; Rule 2: her spouse also affects them;
// Rules 3 and 4: Spouse edges, with a validity interval, derive from Married
// edges and are symmetric. The existential T1, T2 of Rule 3 become labeled
// nulls (the marriage interval is unknown from the Married fact alone).
const InfluenceProgram = `
% Example 3.2 — influence edges with spouse propagation.
person(X, N, B, A, S), own(X, C, V) -> influence(X, C).
own(X, C, V), spouse(X, Y, T1, T2) -> influence(Y, C).
married(X, Y) -> spouse(X, Y, T1, T2).
spouse(X, Y, T1, T2) -> spouse(Y, X, T1, T2).
`

// OutputMapping is Algorithm 4: predicted generic links become concrete
// edges of the property graph. (When reasoning over the flat own/3 relation
// the candidate predicates already emit concrete pairs; this mapping covers
// the generic-model pipeline.)
const OutputMapping = `
% Algorithm 4 — output mapping.
glink(Z, X, Y, W), gedgetype(Z, "Control"), gid(X, Xi), gid(Y, Yi) -> control(Xi, Yi).
glink(Z, X, Y, W), gedgetype(Z, "CloseLink"), gid(X, Xi), gid(Y, Yi) -> closelink(Xi, Yi).
glink(Z, X, Y, W), gedgetype(Z, "PartnerOf"), gid(X, Xi), gid(Y, Yi) -> partnerof(Xi, Yi).
glink(Z, X, Y, W), gedgetype(Z, "ParentOf"), gid(X, Xi), gid(Y, Yi) -> parentof(Xi, Yi).
`

// The what-if step's two programs (internal/whatif), derived from the rules
// above so that no rule is spelled twice.
var baselineProgram, maintenanceProgram = deriveScopedPrograms()

// MaintenanceProgram is the scoped control + accumulated-ownership program:
// the baseline program with an affected(X) guard on every rule that starts
// the derivation of a source X. A chase that seeds unaffected baseline rows
// and re-derives affected cones lands on exactly the facts a full chase
// would.
func MaintenanceProgram() string { return maintenanceProgram }

// deriveScopedPrograms returns the baseline program — the rules of
// ControlProgram and CloseLinkProgram that derive ccand, control and accown
// — and the maintenance program, which inserts affected(X) after the first
// body literal of every baseline rule whose head's first argument X is the
// first argument of no intensional body atom. (A rule continuing a
// derivation from such an atom inherits its source's guard.)
func deriveScopedPrograms() (baseline, maintenance string) {
	var base, scoped datalog.Program
	for _, r := range datalog.MustParse(ControlProgram + CloseLinkProgram).Rules {
		switch r.Head[0].Pred {
		case "ccand", "control", "accown":
			base.Rules = append(base.Rules, r)
		}
	}
	intensional := base.HeadPreds()
	for _, r := range base.Rules {
		x := r.Head[0].Terms[0]
		if !slices.ContainsFunc(r.Body, func(l datalog.Literal) bool {
			return l.Kind == datalog.LitAtom && intensional[l.Atom.Pred] && l.Atom.Terms[0] == x
		}) {
			guard := datalog.Literal{Kind: datalog.LitAtom, Atom: datalog.Atom{Pred: "affected", Terms: []datalog.Term{x}}}
			r.Body = slices.Insert(slices.Clone(r.Body), 1, guard)
		}
		scoped.Rules = append(scoped.Rules, r)
	}
	return base.String(), scoped.String()
}
