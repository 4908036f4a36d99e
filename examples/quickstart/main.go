// Command quickstart reproduces the worked examples of the paper's Figures 1
// and 2 through the public API: company control, accumulated ownership,
// close links and joint (family) control.
package main

import (
	"fmt"
	"log"

	"vadalink"
)

func main() {
	fmt.Println("== Figure 1: the introduction's ownership graph ==")
	g, b := vadalink.Figure1()

	name := func(id vadalink.NodeID) string {
		s, _ := g.Node(id).Props.Str("name")
		return s
	}

	for _, p := range []string{"P1", "P2"} {
		fmt.Printf("%s controls:", p)
		for _, id := range vadalink.Controls(g, b.ID(p)) {
			fmt.Printf(" %s", name(id))
		}
		fmt.Println()
	}

	joint := vadalink.GroupControls(g, []vadalink.NodeID{b.ID("P1"), b.ID("P2")})
	fmt.Print("P1 and P2 together control:")
	for _, id := range joint {
		fmt.Printf(" %s", name(id))
	}
	fmt.Println("   <- includes L: the family business of the paper's §1")

	fmt.Println("\n== Figure 2: close links (ECB asset-eligibility rule, t = 0.2) ==")
	g2, b2 := vadalink.Figure2()
	name2 := func(id vadalink.NodeID) string { s, _ := g2.Node(id).Props.Str("name"); return s }

	phi, err := vadalink.Accumulated(g2, b2.ID("C4"), b2.ID("C7"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("accumulated ownership Φ(C4, C7) = %.2f\n", phi)
	links, err := vadalink.CloseLinks(g2, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range links {
		fmt.Printf("close link: %s – %s (via %s)\n",
			name2(l.A), name2(l.B), name2(l.Via))
	}
}
