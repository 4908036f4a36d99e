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
	"cmp"
	"fmt"
	"slices"
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

// rows is what a walk of the relational image writes into: loaderRows
// streaming the rows into an engine (Load), or factRows collecting them as
// facts (CompanyGraphFacts). Every row of the image is written by nodeRow
// or ownRows, so every consumer reads one definition.
type rows interface {
	sink
	// Prop appends a property as propValue renders it.
	Prop(v pg.Scalar)
}

// sink takes a row's values as a *datalog.Loader does.
type sink interface {
	// Live reports whether the reader observes position pos; nodeRow reads
	// no property for a dead one.
	Live(pos int) bool
	Int(x int64)
	Float(x float64)
	Add() bool
}

// loaderRows streams rows into an engine.
type loaderRows struct{ *datalog.Loader }

func (l loaderRows) Prop(v pg.Scalar) { l.Value(propValue(v)) }

// nodeRels are the node relations of the image, in load order.
var nodeRels = [...]struct {
	label pg.Label
	pred  string
}{{pg.LabelCompany, PredCompany}, {pg.LabelPerson, PredPerson}}

// nodeArity is the arity of a company or person row: the ID, then NodeProps.
func nodeArity() int { return 1 + len(NodeProps) }

// nodeRow writes the row of node id: its ID, then its properties in
// NodeProps order. The node is looked up only when w observes a property; a
// position w does not observe gets an empty cell, unrendered (a dead
// position stores "" whatever it is given).
func nodeRow(g pg.View, id pg.NodeID, w rows) {
	w.Int(int64(id))
	var n *pg.Node
	for i, name := range NodeProps {
		if !w.Live(1 + i) {
			w.Int(0)
			continue
		}
		if n == nil {
			n = g.Node(id)
		}
		v, _ := n.Props.Lookup(name)
		w.Prop(v)
	}
	w.Add()
}

// shares is the buffer ownRows reuses from one owner to the next.
type shares []share

// share is one shareholding of an owner: its target and share amount.
type share struct {
	to pg.NodeID
	w  float64
}

// ownRows writes the own(from, to, w) rows of one owner: a row per company
// it holds shares in, read from its outgoing shareholding edges. Parallel
// edges aggregate: Definition 2.3's direct ownership w(x, y) is the total
// fraction of y's shares held by x, and the reasoning programs'
// per-contributor msum (⟨Z⟩) would otherwise keep only the largest of
// several parcels held by the same owner. The parcels of one target are
// summed in edge order, and the rows follow their targets' IDs.
func (s *shares) ownRows(g pg.View, from pg.NodeID, w sink) {
	held := (*s)[:0]
	for _, eid := range g.Out(from) {
		if e := g.Edge(eid); e.Label == pg.LabelShareholding {
			x, _ := e.Weight()
			held = append(held, share{e.To, x})
		}
	}
	if len(held) > 1 {
		slices.SortStableFunc(held, func(a, b share) int { return cmp.Compare(a.to, b.to) })
	}
	for i := 0; i < len(held); {
		to, sum := held[i].to, held[i].w
		for i++; i < len(held) && held[i].to == to; i++ {
			sum += held[i].w
		}
		w.Int(int64(from))
		w.Int(int64(to))
		w.Float(sum)
		w.Add()
	}
	*s = held
}

// walk writes g's relational image: company and person rows by label, then
// the own rows of every company and person in the same order. Every
// shareholding runs from a company or a person (Definition 2.2), so that is
// every own row. open returns the rows of one relation, for n of them at
// most.
func walk(g pg.View, open func(pred string, arity, n int) rows) {
	var owners [len(nodeRels)][]pg.NodeID
	for i, nr := range nodeRels {
		owners[i] = g.NodesWithLabel(nr.label)
		w := open(nr.pred, nodeArity(), len(owners[i]))
		for _, id := range owners[i] {
			nodeRow(g, id, w)
		}
	}
	own := open(PredOwn, 3, g.NumEdges())
	var s shares
	for _, ids := range owners {
		for _, id := range ids {
			s.ownRows(g, id, own)
		}
	}
}

// Load streams g's relational image — company(id, props...), person(id,
// props...), own(from, to, w), the extensional component of the knowledge
// graph (Example 3.1) — into e, with no Fact in between. Where e prunes
// (datalog.Engine.Prune), a property e cannot observe is never read.
func Load(e *datalog.Engine, g pg.View) {
	walk(g, func(pred string, arity, n int) rows { return loaderRows{e.Load(pred, arity, n)} })
}

// LoadScope streams into e the part of g's image a scoped chase reads: the
// rows of the nodes and the own rows of the sources, the rows Load streams
// for them.
func LoadScope(e *datalog.Engine, g pg.View, nodes, sources map[pg.NodeID]bool) {
	var loaders [len(nodeRels)]rows
	for id := range nodes {
		n := g.Node(id)
		if n == nil {
			continue
		}
		for i, nr := range nodeRels {
			if n.Label == nr.label {
				if loaders[i] == nil {
					loaders[i] = loaderRows{e.Load(nr.pred, nodeArity(), len(nodes))}
				}
				nodeRow(g, id, loaders[i])
			}
		}
	}
	own := loaderRows{e.Load(PredOwn, 3, len(sources))}
	var s shares
	for id := range sources {
		s.ownRows(g, id, own)
	}
}

// CompanyGraphFacts maps a company graph to its relational representation
// as facts: the rows Load streams, in the order it streams them, every
// property included.
func CompanyGraphFacts(g pg.View) []datalog.Fact {
	facts := make([]datalog.Fact, 0, g.NumNodes()+g.NumEdges())
	box := &boxes{ids: make([]any, g.NextNodeID()), nums: map[pg.Scalar]any{}}
	walk(g, func(pred string, arity, n int) rows {
		return &factRows{facts: &facts, pred: pred, args: make([]any, 0, n*arity), arity: arity, box: box}
	})
	return facts
}

// factRows collects rows as facts, every position live. The rows of one
// relation share one backing array, each capped at its own arguments.
type factRows struct {
	facts *[]datalog.Fact
	pred  string
	args  []any
	arity int
	box   *boxes
}

// boxes holds the fact arguments one extraction boxed and reuses: a node
// ID, however many rows name it, and a number's rendering, such as a
// person's birth year.
type boxes struct {
	ids  []any
	nums map[pg.Scalar]any
}

func (f *factRows) Live(int) bool { return true }

// Int appends an int64: every one a row holds is the ID of a node of the
// view, so below its NextNodeID.
func (f *factRows) Int(x int64) {
	if f.box.ids[x] == nil {
		f.box.ids[x] = x
	}
	f.args = append(f.args, f.box.ids[x])
}

func (f *factRows) Prop(v pg.Scalar) {
	if v.Kind() == pg.KindString || v.Kind() == 0 {
		f.args = append(f.args, v.Str())
		return
	}
	a, ok := f.box.nums[v]
	if !ok {
		a = propValue(v)
		f.box.nums[v] = a
	}
	f.args = append(f.args, a)
}

func (f *factRows) Float(x float64) { f.args = append(f.args, x) }
func (f *factRows) Add() bool {
	n := len(f.args)
	*f.facts = append(*f.facts, datalog.Fact{Pred: f.pred, Args: f.args[n-f.arity : n : n]})
	return true
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

// propValue renders a property as a fact argument: the string fmt's %v
// gives, or "" for no value. A string property is the record's own bytes;
// the other kinds (a person's float birth year on every extraction) are
// formatted by strconv.
func propValue(v pg.Scalar) string {
	switch v.Kind() {
	case pg.KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case pg.KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case pg.KindBool:
		return strconv.FormatBool(v.Bool())
	}
	return v.Str()
}
