// Command companycontrol shows the company-control problem (Definition 2.3)
// on a realistic holding structure, solved twice: with the direct fixpoint
// solver and with the declarative Vadalog program of Algorithm 5 — and
// checks the two agree, the way a supervision analyst would cross-validate
// the pipeline.
package main

import (
	"fmt"
	"log"

	"vadalink"
)

func main() {
	// A pyramid: HoldCo sits on top of a chain of intermediate companies,
	// with dispersed minority shareholders elsewhere. The interesting case
	// is OpCo: HoldCo owns only 30% directly, but its controlled
	// intermediates contribute the rest of the majority.
	b := vadalink.NewBuilder()
	b.Person("Founder")
	for _, c := range []string{"HoldCo", "SubA", "SubB", "OpCo", "Rival"} {
		b.Company(c)
	}
	b.Own("Founder", "HoldCo", 0.70). // founder controls the holding
						Own("HoldCo", "SubA", 0.60). // majority in SubA
						Own("HoldCo", "SubB", 0.55). // majority in SubB
						Own("HoldCo", "OpCo", 0.30). // minority direct stake…
						Own("SubA", "OpCo", 0.15).   // …topped up via SubA…
						Own("SubB", "OpCo", 0.10).   // …and SubB: 55% jointly
						Own("Rival", "OpCo", 0.45)   // rival's large stake loses
	g := b.Graph()
	name := func(id vadalink.NodeID) string { s, _ := g.Node(id).Props.Str("name"); return s }

	fmt.Println("direct solver (Definition 2.3 fixpoint):")
	for _, p := range vadalink.AllControlPairs(g) {
		fmt.Printf("  %s controls %s\n",
			name(p.From), name(p.To))
	}

	fmt.Println("\ndeclarative Vadalog program (Algorithm 5):")
	r := vadalink.NewReasoner(g, vadalink.TaskControl)
	if err := r.Run(); err != nil {
		log.Fatal(err)
	}
	declarative := r.ControlPairs()
	for _, p := range declarative {
		fmt.Printf("  %s controls %s\n",
			name(p[0]), name(p[1]))
	}

	// Cross-validation.
	direct := vadalink.AllControlPairs(g)
	if len(direct) != len(declarative) {
		log.Fatalf("solvers disagree: %d vs %d pairs", len(direct), len(declarative))
	}
	for i, p := range direct {
		if declarative[i][0] != p.From || declarative[i][1] != p.To {
			log.Fatalf("solvers disagree at pair %d", i)
		}
	}
	fmt.Println("\nboth solvers agree ✓")
}
