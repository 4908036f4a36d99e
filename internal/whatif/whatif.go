// Package whatif evaluates counterfactual ownership scenarios — "A acquires
// 30% of B: who gains control? which close links appear?" — the workload of
// the COVID-19 golden-powers follow-up to the Vada-Link paper.
//
// A scenario is a batch of hypothetical mutations applied to a copy-on-write
// overlay (pg.Overlay) over a frozen base view. The base graph is never
// copied and never mutated; the WAL never sees a what-if.
//
// Evaluation is the diff half of one scoped step (step.go), the same diff
// internal/ivm advances a committed journal with: control(x, ·) and
// accumulated ownership accown(x, ·) depend only on the shareholding cone
// reachable from x, so only the sources upstream of a mutated edge are
// re-chased, over their own cones, and close links are re-counted from those
// sources' witnesses alone. The diff reads the baseline by key and builds no
// successor; only a commit (Baseline.Advance) splices one. On registry-scale
// graphs a small scenario touches a tiny cone, so a what-if costs its cone,
// not the registry, which is what makes /v1/whatif interactive where a full
// re-chase is not.
package whatif

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
	"vadalink/internal/vadalog"
)

// DefaultThreshold is the close-link threshold when a scenario does not set
// one (the ECB value).
const DefaultThreshold = 0.2

// DefaultMinAggDelta is the aggregate step every chase runs at, the
// engine's default.
const DefaultMinAggDelta = datalog.DefaultMinAggDelta

// Op is one hypothetical mutation of a scenario batch.
//
// Kinds:
//
//   - "addNode": add a node; Label is "Company" (default) or "Person", Name
//     an optional display name. Nodes are assigned IDs sequentially from the
//     base view's NextNodeID, so later ops in the same batch can reference
//     them.
//   - "addShare": add a shareholding From → To with weight W in (0, 1].
//     The incoming shares of To must stay ≤ 1: nobody acquires more of a
//     company than exists. The bound does not make the chase converge. A⇄B
//     at 100 % each meets it, and the walk-sum Φ over such a cycle grows
//     without end, so only the request deadline stops that scenario.
//   - "setShare": override the weight of the shareholding edge Edge — or,
//     when Edge is zero and From/To are set, of the unique shareholding edge
//     From → To — to W.
//   - "removeEdge": remove edge Edge.
//   - "removeNode": remove Node and every edge incident to it.
type Op struct {
	Op    string    `json:"op"`
	Label string    `json:"label,omitempty"`
	Name  string    `json:"name,omitempty"`
	From  pg.NodeID `json:"from,omitempty"`
	To    pg.NodeID `json:"to,omitempty"`
	W     float64   `json:"w,omitempty"`
	Edge  pg.EdgeID `json:"edge,omitempty"`
	Node  pg.NodeID `json:"node,omitempty"`
}

// OpError reports an invalid scenario op by batch index.
type OpError struct {
	Index int
	Err   error
}

func (e *OpError) Error() string { return fmt.Sprintf("whatif: op %d: %v", e.Index, e.Err) }

func (e *OpError) Unwrap() error { return e.Err }

// Pair is a directed (or canonicalized symmetric) node pair.
type Pair = [2]pg.NodeID

// Baseline is the derived state of one view: the control relation and the
// final accumulated-ownership rows, both grouped by source, and the
// close-link relation as per-pair witness counts. Computing it costs one full
// chase; a server keeps one per published version and every what-if against
// that version reuses it.
//
// A published Baseline is shared by concurrent readers, so all three maps
// must be treated as immutable: Advance derives a successor by copying the
// maps, never by mutating a published one.
type Baseline struct {
	Threshold float64
	// Control maps every controlling source to the nodes it controls,
	// sorted; sources controlling nothing are absent.
	Control map[pg.NodeID][]pg.NodeID
	// CloseLink maps every close-linked pair (canonicalized, A ≤ B) to its
	// witness count (see witnesses); pairs with no witness are absent.
	CloseLink map[Pair]int32
	// Accown holds the final accumulated-ownership rows grouped by source.
	Accown map[pg.NodeID][]datalog.Fact
}

func pairOf(f datalog.Fact) (Pair, bool) {
	if len(f.Args) != 2 {
		return Pair{}, false
	}
	a, ok1 := relstore.NodeID(f.Args[0])
	b, ok2 := relstore.NodeID(f.Args[1])
	return Pair{a, b}, ok1 && ok2
}

func canonical(a, b pg.NodeID) Pair {
	if b < a {
		a, b = b, a
	}
	return Pair{a, b}
}

func isCompany(v pg.View, id pg.NodeID) bool {
	n := v.Node(id)
	return n != nil && n.Label == pg.LabelCompany
}

// ComputeBaseline runs the full control + accumulated-ownership chase over a
// view and counts the close-link witnesses of its final rows. threshold 0
// means DefaultThreshold.
func ComputeBaseline(ctx context.Context, v pg.View, threshold float64, engineOpts ...datalog.Option) (*Baseline, error) {
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	e := vadalog.Baseline.Engine(v, engineOpts...)
	if err := e.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("whatif: baseline chase: %w", err)
	}
	bl := &Baseline{
		Threshold: threshold,
		Control:   map[pg.NodeID][]pg.NodeID{},
		CloseLink: map[Pair]int32{},
		Accown:    map[pg.NodeID][]datalog.Fact{},
	}
	for _, f := range e.Facts("control") {
		if p, ok := pairOf(f); ok {
			bl.Control[p[0]] = append(bl.Control[p[0]], p[1])
		}
	}
	for _, row := range bl.Control {
		slices.Sort(row)
	}
	for _, f := range e.Facts("accown") {
		if src, ok := relstore.NodeID(f.Args[0]); ok {
			bl.Accown[src] = append(bl.Accown[src], f)
		}
	}
	company := func(id pg.NodeID) bool { return isCompany(v, id) }
	for z, rows := range bl.Accown {
		witnesses(z, rows, threshold, company, func(p Pair) { bl.CloseLink[p]++ })
	}
	return bl, nil
}

// Link is one close link of a baseline, A < B, named by a witness: Via is
// the source that gives it. Reason is "direct" when Via is A or B (Def 2.6
// (i), (ii)), "common-owner" otherwise (iii).
type Link struct {
	A      pg.NodeID `json:"a"`
	B      pg.NodeID `json:"b"`
	Reason string    `json:"reason"`
	Via    pg.NodeID `json:"via"`
}

// Links lists the close links of b, the baseline of v, sorted by pair. They
// are the pairs CloseLink counts, from the same witnesses: the sources are
// visited in ascending ID, and a pair's first witness names it.
func (b *Baseline) Links(v pg.View) []Link {
	company := func(id pg.NodeID) bool { return isCompany(v, id) }
	named := make(map[Pair]bool, len(b.CloseLink))
	out := make([]Link, 0, len(b.CloseLink))
	sources := make([]pg.NodeID, 0, len(b.Accown))
	for z := range b.Accown {
		sources = append(sources, z)
	}
	slices.Sort(sources)
	for _, z := range sources {
		witnesses(z, b.Accown[z], b.Threshold, company, func(p Pair) {
			if named[p] {
				return
			}
			named[p] = true
			l := Link{A: p[0], B: p[1], Reason: "common-owner", Via: z}
			if z == p[0] || z == p[1] {
				l.Reason = "direct"
			}
			out = append(out, l)
		})
	}
	slices.SortFunc(out, func(x, y Link) int { return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B)) })
	return out
}

// Options tunes a what-if evaluation.
type Options struct {
	// Threshold is the close-link threshold; 0 means DefaultThreshold. It
	// must match the baseline's.
	Threshold float64
	// Engine options (budget, stats, ...) applied to the chase.
	Engine []datalog.Option
}

// Result reports one evaluated scenario: the diff against the baseline, not
// the composite relations (Evaluate builds no successor).
type Result struct {
	// Created lists the node IDs assigned to addNode ops, in op order.
	Created []pg.NodeID
	// Delta summarizes the overlay the scenario built.
	Delta pg.Delta
	// AffectedSources is the number of sources re-derived.
	AffectedSources int
	// Control/CloseLink diffs versus the baseline, sorted. CloseLink pairs
	// are canonicalized (A ≤ B); control pairs are directed.
	ControlGained   []Pair
	ControlLost     []Pair
	CloseLinkGained []Pair
	CloseLinkLost   []Pair
}

// shareEps absorbs float noise when checking the 100%-ownership invariant.
const shareEps = 1e-9

// incomingShares totals the shareholding weights into a node. Scenario ops
// must keep this ≤ 1 — nobody can own more than all of a company — which is
// also what bounds the accumulated-ownership fixpoint: with incoming totals
// above 1, a cyclic ownership structure can amplify accown without limit and
// the chase diverges.
func incomingShares(v pg.View, to pg.NodeID) float64 {
	total := 0.0
	for _, e := range v.InLabel(to, pg.LabelShareholding) {
		if w, ok := e.Weight(); ok {
			total += w
		}
	}
	return total
}

// Apply validates and applies a scenario batch to an overlay, returning the
// IDs of created nodes and the set of "changed sources" — the owner seeds
// (Classify) of the journal entries the batch appended.
func Apply(o *pg.Overlay, ops []Op) (created []pg.NodeID, changed map[pg.NodeID]bool, err error) {
	before, _ := o.Journal()
	from := len(before)
	for i, op := range ops {
		switch op.Op {
		case "addNode":
			label := pg.LabelCompany
			switch op.Label {
			case "", string(pg.LabelCompany):
			case string(pg.LabelPerson):
				label = pg.LabelPerson
			default:
				return nil, nil, &OpError{i, fmt.Errorf("unknown node label %q", op.Label)}
			}
			props := pg.Properties{}
			if op.Name != "" {
				props["name"] = op.Name
			}
			created = append(created, o.AddNode(label, props))
		case "addShare":
			if _, err := o.AddShare(op.From, op.To, op.W); err != nil {
				return nil, nil, &OpError{i, err}
			}
			if total := incomingShares(o, op.To); total > 1+shareEps {
				return nil, nil, &OpError{i, fmt.Errorf("incoming shares of %d would total %.4f > 1", op.To, total)}
			}
		case "setShare":
			id := op.Edge
			if id == 0 && (op.From != 0 || op.To != 0) {
				var matches []pg.EdgeID
				for _, e := range o.OutLabel(op.From, pg.LabelShareholding) {
					if e.To == op.To {
						matches = append(matches, e.ID)
					}
				}
				if len(matches) != 1 {
					return nil, nil, &OpError{i, fmt.Errorf("%d shareholding edges %d → %d, need exactly 1 (use \"edge\")", len(matches), op.From, op.To)}
				}
				id = matches[0]
			}
			e := o.Edge(id)
			if e == nil {
				return nil, nil, &OpError{i, fmt.Errorf("unknown edge %d", id)}
			}
			if err := o.SetEdgeWeight(id, op.W); err != nil {
				return nil, nil, &OpError{i, err}
			}
			if total := incomingShares(o, e.To); total > 1+shareEps {
				return nil, nil, &OpError{i, fmt.Errorf("incoming shares of %d would total %.4f > 1", e.To, total)}
			}
		case "removeEdge":
			if !o.RemoveEdge(op.Edge) {
				return nil, nil, &OpError{i, fmt.Errorf("unknown edge %d", op.Edge)}
			}
		case "removeNode":
			if !o.RemoveNode(op.Node) {
				return nil, nil, &OpError{i, fmt.Errorf("unknown node %d", op.Node)}
			}
		default:
			return nil, nil, &OpError{i, fmt.Errorf("unknown op %q", op.Op)}
		}
	}
	journal, _ := o.Journal()
	s, err := Classify(journal[from:])
	if err != nil {
		return nil, nil, err
	}
	return created, s.Owners, nil
}

// ReverseReachable computes reverse shareholding reachability from a seed set
// over the union of the given views: every node that can reach a seed by
// following shareholding edges forward in at least one view. Advance walks
// the post view alone: a reverse step that exists only before the journal
// starts at a mutated edge, whose owner side is already a seed.
func ReverseReachable(seeds map[pg.NodeID]bool, views ...pg.View) map[pg.NodeID]bool {
	affected := make(map[pg.NodeID]bool, len(seeds))
	queue := make([]pg.NodeID, 0, len(seeds))
	for n := range seeds {
		affected[n] = true
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, v := range views {
			for _, e := range v.InLabel(n, pg.LabelShareholding) {
				if !affected[e.From] {
					affected[e.From] = true
					queue = append(queue, e.From)
				}
			}
		}
	}
	return affected
}

// ForwardReachable computes forward shareholding reachability from a seed
// set over v: every cone a seed can reach.
func ForwardReachable(seeds map[pg.NodeID]bool, v pg.View) map[pg.NodeID]bool {
	out := make(map[pg.NodeID]bool, len(seeds))
	queue := make([]pg.NodeID, 0, len(seeds))
	for n := range seeds {
		out[n] = true
		queue = append(queue, n)
	}
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range v.OutLabel(n, pg.LabelShareholding) {
			if !out[e.To] {
				out[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return out
}

// Evaluate applies a scenario to an overlay over base and reports what the
// overlay's journal moves in the baseline. It reads the baseline by key and
// builds no successor, so it costs the scenario's cone, not the registry.
// The base view is read, never copied and never mutated.
func Evaluate(ctx context.Context, base pg.View, bl *Baseline, ops []Op, opt Options) (*Result, error) {
	threshold := opt.Threshold
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	if threshold != bl.Threshold {
		return nil, fmt.Errorf("whatif: threshold %v does not match baseline %v", threshold, bl.Threshold)
	}
	o := pg.NewOverlay(base)
	created, _, err := Apply(o, ops)
	if err != nil {
		return nil, err
	}
	journal, _ := o.Journal()
	c, err := bl.diff(ctx, o, journal, opt.Engine)
	if err != nil {
		return nil, err
	}
	return &Result{
		Created:         created,
		Delta:           o.Delta(),
		AffectedSources: c.Affected,
		ControlGained:   c.ControlGained,
		ControlLost:     c.ControlLost,
		CloseLinkGained: c.CloseLinkGained,
		CloseLinkLost:   c.CloseLinkLost,
	}, nil
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i][0] != ps[j][0] {
			return ps[i][0] < ps[j][0]
		}
		return ps[i][1] < ps[j][1]
	})
}
