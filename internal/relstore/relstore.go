// Package relstore implements the relational representation of property
// graphs described in Section 3 of the Vada-Link paper, and the input/output
// mappings of Algorithms 2 and 4 that "promote" a concrete company graph to
// the generic node/link model the prediction logic reasons over, and map
// predicted generic links back into property-graph edges.
//
// The mapping follows the paper exactly:
//
//   - an L-labelled node n with properties f1..fm becomes a fact
//     L(id, σ(n,f1), ..., σ(n,fm)) — properties in a total order;
//   - an L-labelled edge e with ρ(e) = (u, v) becomes a fact
//     L(id, uId, vId, σ(e,f1), ..., σ(e,fk));
//   - node and edge labels operate at schema level (predicate names),
//     properties at instance level (term values).
package relstore

import (
	"fmt"
	"sort"
	"strconv"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
)

// Predicate names of the relational representation (lower-cased labels).
const (
	PredCompany = "company"
	PredPerson  = "person"
	PredOwn     = "own"
)

// NodeProps is the total order of person/company property names exported to
// the relational representation. Missing properties export as "".
var NodeProps = []string{"name", "birth", "addr", "sector"}

// CompanyGraphFacts maps a company graph to its relational representation:
// company(id, props...), person(id, props...), own(from, to, w) — the
// extensional component of the knowledge graph (Example 3.1).
//
// Every demand-driven point query extracts the whole image, so the rows
// share a few exactly sized backing arrays rather than allocating one
// argument slice each; each row's slice is capped at its own arguments.
func CompanyGraphFacts(g pg.View) []datalog.Fact {
	nodes := g.Nodes()
	shares := g.EdgesWithLabel(pg.LabelShareholding)
	facts := make([]datalog.Fact, 0, len(nodes)+len(shares))
	args := make([]any, 0, len(nodes)*(1+len(NodeProps)))
	for _, id := range nodes {
		n := g.Node(id)
		pred := PredCompany
		switch n.Label {
		case pg.LabelCompany:
		case pg.LabelPerson:
			pred = PredPerson
		default:
			continue
		}
		start := len(args)
		args = append(args, int64(id))
		for _, p := range NodeProps {
			args = append(args, propValue(n.Props, p))
		}
		facts = append(facts, datalog.Fact{Pred: pred, Args: args[start:len(args):len(args)]})
	}
	// Parallel shareholding edges aggregate into one own fact per (from, to):
	// Definition 2.3's direct ownership w(x, y) is the total fraction of y's
	// shares held by x, and the reasoning programs' per-contributor msum
	// (⟨Z⟩) would otherwise keep only the largest of several parcels held by
	// the same owner. Emission order follows the first edge per pair, so the
	// output stays deterministic.
	total := make(map[[2]pg.NodeID]float64, len(shares))
	order := make([][2]pg.NodeID, 0, len(shares))
	for _, eid := range shares {
		e := g.Edge(eid)
		w, _ := e.Weight()
		key := [2]pg.NodeID{e.From, e.To}
		if _, seen := total[key]; !seen {
			order = append(order, key)
		}
		total[key] += w
	}
	own := make([]any, 0, 3*len(order))
	for _, key := range order {
		start := len(own)
		own = append(own, int64(key[0]), int64(key[1]), total[key])
		facts = append(facts, datalog.Fact{Pred: PredOwn, Args: own[start:len(own):len(own)]})
	}
	return facts
}

// NodeFact returns the relational row of one node — company(id, props...) or
// person(id, props...) — for scoped fact extraction (incremental maintenance
// re-asserts only the affected cone instead of the whole graph). ok is false
// for missing nodes and labels outside the company-graph model.
func NodeFact(g pg.View, id pg.NodeID) (datalog.Fact, bool) {
	n := g.Node(id)
	if n == nil {
		return datalog.Fact{}, false
	}
	var pred string
	switch n.Label {
	case pg.LabelCompany:
		pred = PredCompany
	case pg.LabelPerson:
		pred = PredPerson
	default:
		return datalog.Fact{}, false
	}
	args := make([]any, 0, 1+len(NodeProps))
	args = append(args, int64(id))
	for _, p := range NodeProps {
		args = append(args, propValue(n.Props, p))
	}
	return datalog.Fact{Pred: pred, Args: args}, true
}

// OwnFacts returns the own(from, to, w) rows of one source node, aggregating
// parallel shareholding edges per target exactly like CompanyGraphFacts, so a
// scoped extraction produces the same rows the full extraction would.
func OwnFacts(g pg.View, from pg.NodeID) []datalog.Fact {
	total := map[pg.NodeID]float64{}
	var order []pg.NodeID
	for _, e := range g.OutLabel(from, pg.LabelShareholding) {
		w, _ := e.Weight()
		if _, seen := total[e.To]; !seen {
			order = append(order, e.To)
		}
		total[e.To] += w
	}
	facts := make([]datalog.Fact, 0, len(order))
	for _, to := range order {
		facts = append(facts, datalog.Fact{
			Pred: PredOwn,
			Args: []any{int64(from), int64(to), total[to]},
		})
	}
	return facts
}

// LinkClassPredicates maps output-mapping predicate names (Algorithm 4) to
// property-graph edge labels.
var LinkClassPredicates = map[string]pg.Label{
	"control":   pg.LabelControl,
	"closelink": pg.LabelCloseLink,
	"partnerof": pg.LabelPartnerOf,
	"siblingof": pg.LabelSiblingOf,
	"parentof":  pg.LabelParentOf,
}

// ApplyPredictedLinks reads the output-mapping predicates (control/2,
// closelink/2, partnerof/2, ...) from an evaluated engine and materializes
// them as typed edges in the graph, skipping edges that already exist. It
// returns the number of edges added.
func ApplyPredictedLinks(g pg.Mutable, e *datalog.Engine) (int, error) {
	added := 0
	preds := make([]string, 0, len(LinkClassPredicates))
	for p := range LinkClassPredicates {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	for _, pred := range preds {
		label := LinkClassPredicates[pred]
		for _, f := range e.Facts(pred) {
			if len(f.Args) < 2 {
				return added, fmt.Errorf("relstore: %s fact has %d args, want ≥ 2", pred, len(f.Args))
			}
			from, ok1 := NodeID(f.Args[0])
			to, ok2 := NodeID(f.Args[1])
			if !ok1 || !ok2 {
				return added, fmt.Errorf("relstore: %s fact has non-integer node ids: %v", pred, f)
			}
			if g.Node(from) == nil || g.Node(to) == nil {
				return added, fmt.Errorf("relstore: %s fact references unknown node: %v", pred, f)
			}
			if g.HasEdge(label, from, to) {
				continue
			}
			g.MustAddEdge(label, from, to, nil)
			added++
		}
	}
	return added, nil
}

// NodeID decodes a node-ID argument of a fact. The relational image writes
// node IDs as int64; a float64 holding an integral value decodes too.
func NodeID(v any) (pg.NodeID, bool) {
	switch x := v.(type) {
	case int64:
		return pg.NodeID(x), true
	case float64:
		return pg.NodeID(int64(x)), float64(int64(x)) == x
	}
	return 0, false
}

// propValue renders a node property as a fact argument: the string fmt's %v
// gives. A string property is returned as the interface value the graph
// already holds, so extraction does not box it again; the other kinds graphs
// hold (a person's float birth year on every extraction) are formatted by
// strconv, which skips fmt's reflection.
func propValue(props pg.Properties, name string) any {
	v, ok := props[name]
	if !ok {
		return ""
	}
	switch x := v.(type) {
	case string:
		return v
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprint(x)
	}
}
