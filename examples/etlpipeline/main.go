// Command etlpipeline runs the full §5 architecture end to end on embedded
// registry-style CSV data: ETL load → knowledge-graph reasoning (control and
// close links, declaratively) → explanation of one decision → DOT rendering
// of the augmented graph.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"vadalink"
)

const companiesCSV = `id,name,sector,addr,city
IT001,Aurora Holding s.p.a.,finance,Via Roma 1,Milano
IT002,Borea Industrie s.p.a.,manufacturing,Via Emilia 20,Bologna
IT003,Cirrus Logistica s.r.l.,transport,Via Appia 7,Roma
IT004,Dorica Energia s.p.a.,energy,Corso Marconi 3,Torino
`

const personsCSV = `id,name,surname,birth,addr,city
CF100,Giovanni,Moretti,1955,Via Garibaldi 12,Milano
CF101,Lucia,Moretti,1958,Via Garibaldi 12,Milano
CF102,Paolo,Ferri,1962,Piazza Duomo 5,Bologna
`

const sharesCSV = `owner,owned,share,right
CF100,IT001,0.65,ownership
IT001,IT002,0.45,ownership
CF101,IT002,0.15,ownership
IT001,IT003,0.55,ownership
IT003,IT002,0.10,ownership
CF102,IT004,0.80,ownership
IT004,IT002,0.05,bare ownership
`

func main() {
	res, err := vadalink.LoadCSV(
		strings.NewReader(companiesCSV),
		strings.NewReader(personsCSV),
		strings.NewReader(sharesCSV),
	)
	if err != nil {
		log.Fatal(err)
	}
	g := res.Graph
	fmt.Printf("loaded %d nodes, %d edges from the registry CSVs\n\n", g.NumNodes(), g.NumEdges())

	name := func(id vadalink.NodeID) string {
		n := g.Node(id)
		label, _ := n.Props.Str("name")
		if sn, _ := n.Props.Str("surname"); sn != "" {
			label += " " + sn
		}
		return label
	}

	// Declarative reasoning: control.
	r := vadalink.NewReasoner(g, vadalink.TaskControl)
	r.EngineOptions = append(r.EngineOptions, vadalink.WithProvenance())
	if err := r.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("control relationships (Vadalog program, Algorithm 5):")
	for _, p := range r.ControlPairs() {
		fmt.Printf("  %s controls %s\n", name(p[0]), name(p[1]))
	}

	// Explain the interesting one: Giovanni controls Borea through Aurora's
	// 40% plus Cirrus' 10% — and the bare-ownership stake carries no votes.
	giovanni, borea := res.IDs["CF100"], res.IDs["IT002"]
	fmt.Println("\nwhy does Giovanni control Borea Industrie?")
	for _, line := range r.ExplainControl(giovanni, borea) {
		fmt.Println("  " + line)
	}

	// Ultimate beneficial owners.
	fmt.Println("\nultimate beneficial owners:")
	for _, c := range []string{"IT001", "IT002", "IT003", "IT004"} {
		ubos := vadalink.UltimateControllers(g, res.IDs[c])
		names := make([]string, len(ubos))
		for i, u := range ubos {
			names[i] = name(u)
		}
		fmt.Printf("  %s ← %v\n", name(res.IDs[c]), names)
	}

	// Render everything, with the predicted links, as Graphviz DOT.
	if _, err := r.Apply(); err != nil {
		log.Fatal(err)
	}
	f, err := os.CreateTemp("", "vadalink-*.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := g.WriteDOT(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naugmented graph written to %s (render with: dot -Tsvg)\n", f.Name())
}
