// Command closelinks walks through the asset-eligibility scenario of the
// paper's §1: a bank must decide whether a company may act as guarantor for
// another's loan, which the ECB regulation forbids when the two are
// "closely linked" (accumulated ownership ≥ 20%, directly or through a
// common third party).
package main

import (
	"fmt"
	"log"

	"vadalink"
)

func main() {
	// Scenario: Borrower applies for a loan backed by collateral issued by
	// Guarantor. An investment vehicle owns substantial stakes in both — the
	// classic condition (iii) case — while CleanCo is genuinely unrelated.
	b := vadalink.NewBuilder()
	b.Person("Investor")
	for _, c := range []string{"Vehicle", "Borrower", "Guarantor", "CleanCo", "Mid"} {
		b.Company(c)
	}
	b.Own("Investor", "Vehicle", 0.90).
		Own("Vehicle", "Borrower", 0.35). // Φ(Vehicle, Borrower) = 0.35
		Own("Vehicle", "Mid", 0.60).      //
		Own("Mid", "Guarantor", 0.40).    // Φ(Vehicle, Guarantor) = 0.24 via Mid
		Own("Investor", "CleanCo", 0.05)  // negligible stake
	g := b.Graph()

	name := func(id vadalink.NodeID) string { s, _ := g.Node(id).Props.Str("name"); return s }

	fmt.Println("accumulated ownership (Definition 2.5):")
	for _, pair := range [][2]string{
		{"Vehicle", "Borrower"}, {"Vehicle", "Guarantor"}, {"Vehicle", "CleanCo"},
	} {
		phi, err := vadalink.Accumulated(g, b.ID(pair[0]), b.ID(pair[1]))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  Φ(%s, %s) = %.3f\n", pair[0], pair[1], phi)
	}

	fmt.Println("\nclose links at the ECB threshold t = 0.2 (Definition 2.6):")
	links, err := vadalink.CloseLinks(g, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	closelinked := map[[2]vadalink.NodeID]bool{}
	for _, l := range links {
		fmt.Printf("  %s – %s (common third party: %s)\n",
			name(l.A), name(l.B), name(l.Via))
		closelinked[[2]vadalink.NodeID{l.A, l.B}] = true
		closelinked[[2]vadalink.NodeID{l.B, l.A}] = true
	}

	verdict := func(x, y string) {
		if closelinked[[2]vadalink.NodeID{b.ID(x), b.ID(y)}] {
			fmt.Printf("  %s may NOT act as guarantor for %s (closely linked)\n", y, x)
		} else {
			fmt.Printf("  %s may act as guarantor for %s\n", y, x)
		}
	}
	fmt.Println("\neligibility decisions:")
	verdict("Borrower", "Guarantor")
	verdict("Borrower", "CleanCo")
}
