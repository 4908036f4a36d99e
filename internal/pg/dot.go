package pg

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the graph in Graphviz DOT format, in the visual language
// of the paper's figures: persons as blue ellipses, companies as black
// boxes, shareholding edges solid and labelled with the share percentage,
// predicted edges dashed and coloured by class (control green, close link
// magenta, personal connections red).
func (g *Graph) WriteDOT(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString("digraph company {\n")
	sb.WriteString("  rankdir=TB;\n  node [fontsize=10];\n  edge [fontsize=9];\n")

	for _, id := range g.Nodes() {
		n := g.Node(id)
		name, _ := n.Props.Get("name")
		label := fmt.Sprintf("%v", name)
		if label == "<nil>" || label == "" {
			label = fmt.Sprintf("n%d", id)
		}
		if sn, _ := n.Props.Str("surname"); sn != "" {
			label += " " + sn
		}
		switch n.Label {
		case LabelPerson:
			fmt.Fprintf(&sb, "  n%d [label=%q, shape=ellipse, color=blue, fontcolor=blue];\n", id, label)
		default:
			fmt.Fprintf(&sb, "  n%d [label=%q, shape=box];\n", id, label)
		}
	}

	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		switch e.Label {
		case LabelShareholding:
			w, _ := e.Weight()
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%.0f%%\"];\n", e.From, e.To, w*100)
		case LabelControl:
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed, color=green, label=\"control\"];\n", e.From, e.To)
		case LabelCloseLink:
			// Close links are symmetric; render each stored direction once
			// as an undirected-looking edge.
			if e.From < e.To || !g.HasEdge(LabelCloseLink, e.To, e.From) {
				fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed, color=magenta, dir=none, label=\"close link\"];\n", e.From, e.To)
			}
		case LabelPartnerOf, LabelSiblingOf, LabelParentOf, LabelFamily:
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dashed, color=red, label=%q];\n", e.From, e.To, strings.ToLower(string(e.Label)))
		default:
			fmt.Fprintf(&sb, "  n%d -> n%d [style=dotted, label=%q];\n", e.From, e.To, string(e.Label))
		}
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
