// Package vadalink is a from-scratch Go implementation of Vada-Link, the
// knowledge-graph augmentation framework for company ownership graphs of
//
//	Atzeni, Bellomarini, Iezzi, Sallinger, Vlad:
//	"Weaving Enterprise Knowledge Graphs: The Case of Company Ownership
//	Graphs", EDBT 2020.
//
// The package is a stable facade over the implementation packages:
//
//   - property graphs and the company-graph model (Definitions 2.1/2.2);
//   - the three reasoning problems — company control (Definition 2.3),
//     close links / asset eligibility (Definitions 2.5/2.6), and detection
//     of personal connections (Section 2) — as the paper's Vadalog programs
//     evaluated by the embedded Datalog± engine, which the facade's reads,
//     the augmentation loop and the HTTP API all answer from;
//   - the KG-augmentation loop of Algorithm 1 (two-level clustering:
//     node2vec embeddings + feature blocking, with polymorphic candidate
//     predicates);
//   - synthetic data generators and graph statistics reproducing the
//     paper's §2 profile and §6 experiments;
//   - an HTTP reasoning API (the §5 architecture).
//
// # Quickstart
//
//	g, b := vadalink.Figure1()
//	controlled := vadalink.Controls(g, b.ID("P1"))   // C, D, E, F
//	links, err := vadalink.CloseLinks(g, 0.2)        // incl. (G, I) via P2
//
// See examples/ for runnable programs and DESIGN.md for the architecture.
package vadalink

import (
	"cmp"
	"context"
	"io"
	"net/http"
	"os"
	"slices"

	"vadalink/internal/cluster"
	"vadalink/internal/core"
	"vadalink/internal/datalog"
	"vadalink/internal/embed"
	"vadalink/internal/etl"
	"vadalink/internal/graphgen"
	"vadalink/internal/graphstats"
	"vadalink/internal/persist"
	"vadalink/internal/pg"
	"vadalink/internal/reasonapi"
	"vadalink/internal/relstore"
	"vadalink/internal/replication"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

// Graph model re-exports.
type (
	// Graph is a property graph (Definition 2.1).
	Graph = pg.Graph
	// NodeID identifies a node.
	NodeID = pg.NodeID
	// Label is a node or edge label.
	Label = pg.Label
	// Properties maps property names to values.
	Properties = pg.Properties
	// Builder constructs company graphs by node name.
	Builder = pg.Builder
)

// Well-known labels of the company graph (Definition 2.2).
const (
	LabelCompany      = pg.LabelCompany
	LabelPerson       = pg.LabelPerson
	LabelShareholding = pg.LabelShareholding
	LabelControl      = pg.LabelControl
	LabelCloseLink    = pg.LabelCloseLink
	LabelPartnerOf    = pg.LabelPartnerOf
	LabelSiblingOf    = pg.LabelSiblingOf
	LabelParentOf     = pg.LabelParentOf
)

// NewBuilder returns a by-name company-graph builder.
func NewBuilder() *Builder { return pg.NewBuilder() }

// Figure1 builds the ownership graph of the paper's Figure 1.
func Figure1() (*Graph, *Builder) { return pg.Figure1() }

// Figure2 builds the Italian company graph of the paper's Figure 2.
func Figure2() (*Graph, *Builder) { return pg.Figure2() }

// --- company control (Definition 2.3), close links (Definitions 2.5, 2.6) ---

// The reads below ask the programs the API serves, at its aggregate step
// (DESIGN.md §5). Control's msum ranges over distinct intermediaries, so its
// chase always ends. The walk-sum Φ diverges on a cross-holding wholly owned
// inside itself (A and B holding 100 % of each other), so the Φ reads stop
// after PhiRounds rounds (a cycle gain of 0.998 converges within them, 0.999
// does not) and return the engine's *BudgetExceededError.
//
// PhiRounds is the engine's default round bound, the one every chase runs
// under unless it sets another: the facade's, the vadalink CLI's and the
// served API's alike.
const PhiRounds = datalog.DefaultMaxRounds

// The goal variables of the facade's reads.
var varX, varY, varS = datalog.Variable("X"), datalog.Variable("Y"), datalog.Variable("S")

// ask answers the goal pred(terms...) of the shipped program p over g,
// magic sets restricting the chase to the bound arguments' cones.
func ask(g *Graph, p *vadalog.Program, pred string, terms ...datalog.Term) ([]datalog.Binding, error) {
	res, err := p.Goal(context.Background(), g, datalog.Atom{Pred: pred, Terms: terms})
	if err != nil {
		return nil, err
	}
	return res.Answers, res.RunErr
}

// control answers the goal control(x, y) of Algorithm 5.
func control(g *Graph, x, y datalog.Term) []datalog.Binding {
	bs, err := ask(g, vadalog.Control, "control", x, y)
	if err != nil {
		panic(err) // never cancelled, the control chase ends well within PhiRounds
	}
	return bs
}

// ids projects variable v of each binding to a sorted node-ID list.
func ids(bs []datalog.Binding, v datalog.Variable) []NodeID {
	out := make([]NodeID, 0, len(bs))
	for _, b := range bs {
		n, _ := relstore.NodeID(b[v])
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Controls returns the nodes x controls, sorted.
func Controls(g *Graph, x NodeID) []NodeID {
	return ids(control(g, datalog.Int(int64(x)), varY), varY)
}

// GroupControls returns the companies jointly controlled by a group pooling
// its shares (family control): Algorithm 8 with the members as one family.
func GroupControls(g *Graph, members []NodeID) []NodeID {
	r := vadalog.NewReasoner(g, vadalog.TaskFamilyControl)
	r.Families = map[string][]NodeID{"group": members}
	if err := r.Run(); err != nil {
		panic(err) // as in control: Algorithm 8's msums range over distinct owners
	}
	return slices.DeleteFunc(r.FamilyControls("group"), func(y NodeID) bool { return slices.Contains(members, y) })
}

// ControlPair is one control relationship: From controls To.
type ControlPair struct{ From, To NodeID }

// AllControlPairs computes every control relationship in the graph, sorted
// by (From, To).
func AllControlPairs(g *Graph) []ControlPair {
	var out []ControlPair
	for _, b := range control(g, varX, varY) {
		from, _ := relstore.NodeID(b[varX])
		to, _ := relstore.NodeID(b[varY])
		out = append(out, ControlPair{from, to})
	}
	slices.SortFunc(out, func(a, b ControlPair) int { return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To)) })
	return out
}

// UltimateControllers returns the persons ultimately controlling company y
// (the anti-money-laundering UBO question), sorted.
func UltimateControllers(g *Graph, y NodeID) []NodeID {
	return slices.DeleteFunc(ids(control(g, varX, datalog.Int(int64(y))), varX), func(x NodeID) bool {
		return g.Node(x).Label != LabelPerson
	})
}

// Orphans returns the companies no person controls, sorted.
func Orphans(g *Graph) []NodeID {
	controlled := map[NodeID]bool{}
	for _, p := range AllControlPairs(g) {
		controlled[p.To] = controlled[p.To] || g.Node(p.From).Label == LabelPerson
	}
	out := slices.DeleteFunc(g.NodesWithLabel(LabelCompany), func(c NodeID) bool { return controlled[c] })
	slices.Sort(out)
	return out
}

// Accumulated computes the accumulated ownership Φ(x, y), 0 when x holds
// nothing of y. Its chase covers x's cone, so it fails only when that cone
// holds a cycle Φ does not converge on.
func Accumulated(g *Graph, x, y NodeID) (float64, error) {
	bs, err := ask(g, vadalog.CloseLink, "accown", datalog.Int(int64(x)), datalog.Int(int64(y)), varS)
	phi := 0.0
	for _, b := range bs {
		phi, _ = b[varS].(float64)
	}
	return phi, err
}

// CloseLinkResult is one close-link finding: companies A < B, named by a
// witness Via. Reason is "direct" when Via is A or B and holds at least t of
// the other, "common-owner" when Via holds at least t of both.
type CloseLinkResult = whatif.Link

// CloseLinks returns every close-link pair among companies for threshold t
// (use 0.2 for the ECB rule; t ≤ 0 means 0.2), sorted by pair. It chases Φ
// from every source, so it fails when any cycle of g is one Φ does not
// converge on.
func CloseLinks(g *Graph, t float64) ([]CloseLinkResult, error) {
	bl, err := whatif.ComputeBaseline(context.Background(), g, max(t, 0))
	if err != nil {
		return nil, err
	}
	return bl.Links(g), nil
}

// --- KG augmentation (Algorithm 1) ---

// AugmentConfig configures an augmentation run.
type AugmentConfig = core.Config

// AugmentResult reports an augmentation run.
type AugmentResult = core.Result

// Candidate is the polymorphic per-class candidate predicate.
type Candidate = core.Candidate

// FamilyCandidate predicts family links (Algorithm 7).
type FamilyCandidate = core.FamilyCandidate

// EmbedConfig configures the node2vec step.
type EmbedConfig = embed.Config

// PersonBlocker blocks persons by phonetic surname and birth decade.
type PersonBlocker = cluster.PersonBlocker

// Augment runs the KG-augmentation loop of Algorithm 1 on g, inserting the
// predicted edges, and returns the run report.
func Augment(g *Graph, cfg AugmentConfig) (*AugmentResult, error) {
	a, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return a.Run(g)
}

// DetectFamilies is the common case: augment g with family links using the
// default classifier, two-level clustering with k first-level clusters
// (k <= 1 disables the embedding level) and the person blocker.
func DetectFamilies(g *Graph, k int) (*AugmentResult, error) {
	return Augment(g, AugmentConfig{
		FirstLevelK: k,
		Embed:       EmbedConfig{Seed: 1},
		Blocker:     PersonBlocker{},
		Candidates:  []Candidate{&FamilyCandidate{}},
	})
}

// --- declarative reasoning (Vadalog programs) ---

// Reasoner evaluates the paper's rule programs (Algorithms 2–9) over a
// company graph through the embedded Datalog± engine.
type Reasoner = vadalog.Reasoner

// Reasoning task selectors.
const (
	TaskControl         = vadalog.TaskControl
	TaskCloseLink       = vadalog.TaskCloseLink
	TaskPartner         = vadalog.TaskPartner
	TaskFamilyControl   = vadalog.TaskFamilyControl
	TaskFamilyCloseLink = vadalog.TaskFamilyCloseLink
)

// NewReasoner prepares a reasoner for the selected tasks. Its chase stops
// after PhiRounds rounds, like the facade's Φ reads, so a cycle Φ does not
// converge on ends in the engine's *BudgetExceededError; set EngineOptions to
// change that.
func NewReasoner(g *Graph, tasks vadalog.Task) *Reasoner { return vadalog.NewReasoner(g, tasks) }

// ParseRules parses a Vadalog-syntax rule program (for custom reasoning).
func ParseRules(src string) (*datalog.Program, error) { return datalog.Parse(src) }

// NewEngine prepares a Datalog± engine for a custom program. Functional
// options tune it:
//
//	e, err := vadalink.NewEngine(p,
//	    vadalink.WithBudget(vadalink.Budget{MaxFacts: 1e6}),
//	    vadalink.WithStats())
func NewEngine(p *datalog.Program, opts ...EngineOption) (*datalog.Engine, error) {
	return datalog.NewEngine(p, opts...)
}

// CheckWarded analyses a rule program for membership in the warded
// Datalog± fragment — the syntactic condition behind the PTIME
// data-complexity guarantee the paper relies on.
func CheckWarded(p *datalog.Program) datalog.WardedReport { return datalog.CheckWarded(p) }

// LoadCSV builds a company graph from registry-style CSV streams
// (companies, persons, shareholdings) — the §5 ETL pipeline. Any reader may
// be nil.
func LoadCSV(companies, persons, shareholdings io.Reader) (*etl.Result, error) {
	return etl.Load(companies, persons, shareholdings)
}

// --- data generation and statistics ---

// ItalianConfig configures the synthetic Italian company graph generator.
type ItalianConfig = graphgen.ItalianConfig

// ItalianGraph is a generated graph plus planted ground truth.
type ItalianGraph = graphgen.Italian

// NewItalian generates an Italian-company-like graph with planted family
// ground truth (the §6 real-world-data substitute; see DESIGN.md).
func NewItalian(cfg ItalianConfig) *ItalianGraph { return graphgen.NewItalian(cfg) }

// Barabasi generates a scale-free company graph (n nodes, m edges per node).
func Barabasi(n, m int, seed int64) *Graph { return graphgen.Barabasi(n, m, seed) }

// GraphStats is the structural profile of a graph (§2 statistics).
type GraphStats = graphstats.Stats

// Stats computes the structural profile of a graph.
func Stats(g *Graph) GraphStats { return graphstats.Compute(g) }

// Concentration is the ownership-concentration profile (HHI and friends).
type Concentration = graphstats.Concentration

// OwnershipConcentration computes the concentration profile of a graph.
func OwnershipConcentration(g *Graph) Concentration { return graphstats.ComputeConcentration(g) }

// SaveSnapshot writes the graph to path as a checksummed snapshot, the
// format a DurableStore's snapshots have, crash-atomically.
func SaveSnapshot(path string, g *Graph) error {
	_, err := persist.WriteSnapshot(path, g, nil)
	return err
}

// LoadSnapshot reads a snapshot written by SaveSnapshot.
func LoadSnapshot(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g, _, err := persist.DecodeSnapshotMarks(data)
	return g, err
}

// --- crash-safe persistence (WAL + checksummed snapshots; DESIGN.md §9) ---

// DurableStore is a crash-safe property-graph store: every committed graph
// mutation is captured into a checksummed write-ahead log, full snapshots
// rotate the log, and recovery replays the latest valid snapshot plus the
// WAL tail, truncating torn final records. Facts are durable once Sync
// returns.
type DurableStore = persist.Store

// DurableOptions tunes a DurableStore — chiefly SyncEvery, the WAL
// group-commit interval (0 fsyncs every append).
type DurableOptions = persist.Options

// OpenDurable opens the durable store in dir, creating it if empty and
// recovering crash-surviving state otherwise. Mutations of the returned
// store's Graph() are change-captured from that point on.
func OpenDurable(dir string, opts DurableOptions) (*DurableStore, error) {
	return persist.Open(dir, opts)
}

// --- WAL-shipping replication (leader/follower serving tier; DESIGN.md §10) ---

// ReplicationLeader serves a DurableStore's write-ahead log as a
// replication stream: followers bootstrap from the current snapshot and
// then tail WAL frames, each re-verified by checksum on arrival.
type ReplicationLeader = replication.Leader

// ReplicationLeaderOptions tunes the leader's stream (heartbeat cadence,
// advertised API address, logger).
type ReplicationLeaderOptions = replication.LeaderOptions

// Follower tails a leader's WAL stream into its own durable store; its
// replication position survives kill -9 because it is recomputed from the
// recovered graph, not read from a position file.
type Follower = replication.Follower

// FollowerOptions tunes a Follower: leader address, reconnect backoff,
// local group-commit interval.
type FollowerOptions = replication.FollowerOptions

// NewReplicationLeader wraps a durable store with a replication leader.
// Run it with Leader.Serve on a listener of your choice.
func NewReplicationLeader(st *DurableStore, opts ReplicationLeaderOptions) *ReplicationLeader {
	return replication.NewLeader(st, opts)
}

// OpenFollower opens (or recovers) a follower store in dir and prepares it
// to tail the leader named in opts. Call Run to start replicating; wire the
// follower into APIConfig.Follower to serve its graph read-only.
func OpenFollower(dir string, opts FollowerOptions) (*Follower, error) {
	return replication.OpenFollower(dir, opts)
}

// --- self-healing replica groups (lease-based failover; DESIGN.md §14) ---

// ReplicaNode is one member of a self-healing replica group: a follower and
// a leader bound to the same durable store, switching roles automatically
// under a lease/epoch-fencing protocol. Wire it into APIConfig.Node and the
// HTTP tier follows the role live — writes run the quorum barrier while
// leading and answer 421 with the current leader's address otherwise.
type ReplicaNode = replication.Node

// ReplicaNodeOptions configures a ReplicaNode: its advertised replication
// and API addresses, the peer set, and the lease duration that bounds
// failover time.
type ReplicaNodeOptions = replication.NodeOptions

// Replica-group write errors: ErrNotLeader refuses a write on a non-leader
// (retry against the hinted leader); ErrStaleEpoch reports a leadership
// change mid-write — the write was NOT acknowledged and may or may not
// survive on the new leader.
var (
	ErrNotLeader  = replication.ErrNotLeader
	ErrStaleEpoch = replication.ErrStaleEpoch
)

// OpenReplicaNode opens (or recovers) a replica-group member's durable
// store in dir. Start it with Serve (on a listener at opts.Self) and Run
// (the role state machine) on the same context.
func OpenReplicaNode(dir string, opts ReplicaNodeOptions) (*ReplicaNode, error) {
	return replication.OpenNode(dir, opts)
}

// --- reasoning API (§5 architecture) ---

// APIHandler returns the HTTP handler of the reasoning API over g, with the
// default governance (30s request deadline, unbounded chase).
func APIHandler(g *Graph) http.Handler { return reasonapi.NewServer(g).Handler() }

// APIConfig tunes the reasoning API's resource governance: per-request
// timeout, chase budget, Retry-After advice.
type APIConfig = reasonapi.Config

// APIHandlerWith is APIHandler with explicit resource governance.
func APIHandlerWith(g *Graph, cfg APIConfig) http.Handler {
	return reasonapi.NewServerWith(g, cfg).Handler()
}

// ServeAPI serves handler on addr until ctx is cancelled, then shuts down
// gracefully: the listener closes, in-flight requests drain. Wire ctx to
// signal.NotifyContext for clean SIGINT/SIGTERM handling.
func ServeAPI(ctx context.Context, addr string, handler http.Handler) error {
	return reasonapi.ListenAndServe(ctx, addr, handler, 0)
}

// --- resource governance (budgets and typed limit errors) ---

// Budget bounds a chase evaluation: derived facts, delta-queue size, and
// how often the engine polls its context for cancellation.
type Budget = datalog.Budget

// BudgetExceededError is the typed error a budget-stopped evaluation
// returns; it names the tripped limit and the partial progress.
type BudgetExceededError = datalog.BudgetExceededError

// EngineOption is one functional engine option (see the With* constructors).
type EngineOption = datalog.Option

// Engine option constructors, re-exported from the engine package.
var (
	// WithBudget bounds a Run's resources (facts, delta queue, index memory).
	WithBudget = datalog.WithBudget
	// WithProvenance records derivations, enabling Explain/ExplainTree.
	WithProvenance = datalog.WithProvenance
	// WithStats collects an EngineStats report during each Run.
	WithStats = datalog.WithStats
	// WithHook installs chase lifecycle callbacks (tracing seam).
	WithHook = datalog.WithHook
)

// --- observability (chase statistics) ---

// EngineStats is the evaluation report of one chase Run — per-rule firings,
// derivations, duplicates and timings, per-round deltas and index hit/scan
// counts. Collected when the engine runs with WithStats; read it with
// Engine.Stats().
type EngineStats = datalog.ChaseStats

// EngineHook is the chase lifecycle callback set installed by WithHook.
type EngineHook = datalog.Hook
