package vadalog

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"vadalink/internal/datalog"
	"vadalink/internal/family"
	"vadalink/internal/pg"
	"vadalink/internal/relstore"
)

// Task selects which reasoning programs a Reasoner evaluates.
type Task int

// Reasoning tasks.
const (
	TaskControl Task = 1 << iota
	TaskCloseLink
	TaskPartner
	TaskFamilyControl
	TaskFamilyCloseLink
)

// Reasoner evaluates the paper's rule programs over a company property
// graph: the §5 architecture's "reasoning API" core. Construct with
// NewReasoner, then Run once; result accessors read the derived predicates.
type Reasoner struct {
	g      pg.View
	engine *datalog.Engine
	tasks  Task

	// Classifier backs the #linkprob builtin of Algorithm 7; nil uses
	// family.NewClassifier().
	Classifier *family.Classifier
	// Families maps family IDs to member nodes, the fammember relation of
	// Algorithms 8 and 9.
	Families map[string][]pg.NodeID
	// EngineOptions tunes the underlying engine — budget, round bounds,
	// provenance, stats — applied in order at Run.
	EngineOptions []datalog.Option
}

// NewReasoner prepares a reasoner for the given tasks. The graph may be any
// read view — a flat graph, a frozen MVCC snapshot, or a what-if overlay;
// reasoning never mutates it (Apply requires a mutable view and fails
// otherwise).
func NewReasoner(g pg.View, tasks Task) *Reasoner {
	return &Reasoner{g: g, tasks: tasks}
}

// programOf assembles the rule text for a task set.
func programOf(tasks Task) string {
	var parts []string
	if tasks&TaskControl != 0 || tasks&TaskFamilyControl != 0 {
		parts = append(parts, ControlProgram)
	}
	if tasks&TaskCloseLink != 0 || tasks&TaskFamilyCloseLink != 0 {
		parts = append(parts, CloseLinkProgram)
	}
	if tasks&TaskPartner != 0 {
		parts = append(parts, PartnerProgram)
	}
	if tasks&TaskFamilyControl != 0 {
		parts = append(parts, FamilyControlProgram)
	}
	if tasks&TaskFamilyCloseLink != 0 {
		parts = append(parts, FamilyCloseLinkProgram)
	}
	return strings.Join(parts, "\n")
}

// Run loads the graph's relational representation, evaluates the selected
// programs and leaves the derived facts available through the accessors.
func (r *Reasoner) Run() error { return r.RunContext(context.Background()) }

// RunContext is Run under a context: the chase honors the context's
// deadline/cancellation and Options.Budget. When a limit trips it returns
// the engine's *BudgetExceededError (wrapped); the facts derived before the
// trip remain readable through the accessors, so callers can serve partial
// results marked as truncated.
func (r *Reasoner) RunContext(ctx context.Context) error {
	src := programOf(r.tasks)
	if src == "" {
		return fmt.Errorf("vadalog: no tasks selected")
	}
	p, err := shipped(src)
	if err != nil {
		return fmt.Errorf("vadalog: preparing engine: %w", err)
	}
	engine := p.Engine(r.g, r.EngineOptions...)

	clf := r.Classifier
	if clf == nil {
		clf = family.NewClassifier()
	}
	engine.RegisterBuiltin("linkprob", func(args []any) (any, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("vadalog: #linkprob wants 2 args, got %d", len(args))
		}
		x, ok1 := relstore.NodeID(args[0])
		y, ok2 := relstore.NodeID(args[1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("vadalog: #linkprob: non-integer node ids %v, %v", args[0], args[1])
		}
		nx, ny := r.g.Node(x), r.g.Node(y)
		if nx == nil || ny == nil {
			return nil, fmt.Errorf("vadalog: #linkprob: unknown node %v or %v", x, y)
		}
		return clf.LinkProbability(family.PersonFromNode(nx), family.PersonFromNode(ny)), nil
	})

	for famID, members := range r.Families {
		for _, m := range members {
			engine.Assert(datalog.Fact{Pred: "fammember", Args: []any{int64(m), famID}})
		}
	}
	// Expose the engine before evaluating: a budget-stopped run leaves its
	// partial derivations readable through the accessors.
	r.engine = engine
	if err := engine.RunContext(ctx); err != nil {
		return fmt.Errorf("vadalog: evaluating programs: %w", err)
	}
	return nil
}

// pairFacts converts binary facts over node ids into pairs.
func (r *Reasoner) pairFacts(pred string) [][2]pg.NodeID {
	if r.engine == nil {
		return nil
	}
	var out [][2]pg.NodeID
	for _, f := range r.engine.Facts(pred) {
		if len(f.Args) != 2 {
			continue
		}
		a, ok1 := relstore.NodeID(f.Args[0])
		b, ok2 := relstore.NodeID(f.Args[1])
		if ok1 && ok2 {
			out = append(out, [2]pg.NodeID{a, b})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ControlPairs returns the derived control(x, y) relationships.
func (r *Reasoner) ControlPairs() [][2]pg.NodeID { return r.pairFacts("control") }

// CloseLinkPairs returns the derived closelink(x, y) relationships (both
// directions present, close links being symmetric).
func (r *Reasoner) CloseLinkPairs() [][2]pg.NodeID { return r.pairFacts("closelink") }

// PartnerPairs returns the derived partnerof(x, y) relationships.
func (r *Reasoner) PartnerPairs() [][2]pg.NodeID { return r.pairFacts("partnerof") }

// FamilyControls returns the companies the family of that ID controls
// jointly, the derived familycontrol(family, y) facts of Algorithm 8, sorted
// (Facts sorts them).
func (r *Reasoner) FamilyControls(family string) []pg.NodeID {
	if r.engine == nil {
		return nil
	}
	var out []pg.NodeID
	for _, f := range r.engine.Facts("familycontrol") {
		if y, ok := relstore.NodeID(f.Args[1]); ok && f.Args[0] == family {
			out = append(out, y)
		}
	}
	return out
}

// AccumulatedOwnership reads the final accumulated-ownership value per
// (x, y) pair: the close-link program's accown predicate holds one row per
// pair.
func (r *Reasoner) AccumulatedOwnership() map[[2]pg.NodeID]float64 {
	if r.engine == nil {
		return nil
	}
	out := map[[2]pg.NodeID]float64{}
	for _, f := range r.engine.Facts("accown") {
		a, ok1 := relstore.NodeID(f.Args[0])
		b, ok2 := relstore.NodeID(f.Args[1])
		v, ok3 := f.Args[2].(float64)
		if ok1 && ok2 && ok3 {
			out[[2]pg.NodeID{a, b}] = v
		}
	}
	return out
}

// ExplainControl renders the derivation tree of a control(x, y) decision —
// why the reasoner concluded that x controls y, down to the ownership facts.
// It requires the engine to run with datalog.WithProvenance(); otherwise (or
// for an unknown pair) it returns nil.
func (r *Reasoner) ExplainControl(x, y pg.NodeID) []string {
	if r.engine == nil {
		return nil
	}
	f := datalog.Fact{Pred: "control", Args: []any{int64(x), int64(y)}}
	if !r.engine.Has(f) {
		return nil
	}
	return r.engine.ExplainTree(f, 0)
}

// Apply materializes the derived link predicates as property-graph edges via
// the Algorithm 4 output mapping. It returns the number of edges added.
func (r *Reasoner) Apply() (int, error) {
	if r.engine == nil {
		return 0, fmt.Errorf("vadalog: Apply before Run")
	}
	m, ok := r.g.(pg.Mutable)
	if !ok {
		return 0, fmt.Errorf("vadalog: Apply on a read-only view")
	}
	return relstore.ApplyPredictedLinks(m, r.engine)
}
