// Command vadalink is the operator CLI of the Vada-Link reproduction. It
// loads a property graph from JSON (see cmd/graphgen) and runs the paper's
// reasoning tasks over it.
//
// Usage:
//
//	vadalink stats     -in graph.json
//	vadalink control   -in graph.json [-node ID]
//	vadalink closelink -in graph.json [-t 0.2]
//	vadalink family    -in graph.json [-k 1]
//	vadalink reason    -in graph.json -task control|closelink|partner
//	vadalink query     -in graph.json -goal "control(4, Y)" [-program rules.vada]
//	vadalink whatif    -in graph.json -ops ops.json [-t 0.2]
//	vadalink serve     -in graph.json [-addr :8080] [-timeout 30s]
//	                   [-max-facts N] [-max-rounds N]
//	                   [-pprof] [-log-format text|json|off]
//	                   [-data-dir DIR] [-fsync 2ms]
//	                   [-replicate :7070] [-follow HOST:7070]
//	                   [-leader-api URL] [-max-staleness 5s]
//	                   [-replica-self HOST:7070] [-peers H1:7070,H2:7070]
//	                   [-api-advertise URL] [-lease 3s]
//
// serve applies a per-request wall-clock deadline and an optional chase
// budget; truncated answers are marked "truncated" in the JSON. SIGINT and
// SIGTERM drain in-flight requests before the process exits. Per-endpoint
// counters and the last chase report are served on GET /v1/metrics; -pprof
// mounts net/http/pprof under /debug/pprof/;
// -log-format selects slog text or JSON access logs on stderr.
//
// whatif evaluates a counterfactual scenario — a JSON array of hypothetical
// ops ({"op":"addShare","from":1,"to":2,"w":0.3}, addNode, setShare,
// removeEdge, removeNode) — on a copy-on-write overlay and prints how the
// control and close-link relations would change; the input graph is never
// modified. The same scenarios are served live on POST /v1/whatif.
//
// -data-dir turns on crash-safe persistence: the graph lives in a WAL +
// snapshot store under DIR, recovered on startup (torn writes truncated,
// corrupt state refused) and snapshotted on graceful shutdown. On the first
// run -in seeds the store; afterwards the durable state is authoritative and
// -in is ignored. -fsync is the WAL group-commit interval (0 = fsync every
// append). POST /v1/admin/snapshot forces a snapshot + WAL rotation.
//
// -replicate makes this node a replication leader: its WAL is served as a
// stream on the given address. -follow makes it a read-only follower of the
// leader at the given address: the graph arrives over the stream into the
// follower's own durable store, reads carry replication-lag headers (503
// past -max-staleness), and writes answer 421 with the -leader-api address.
// GET /v1/healthz is liveness; GET /v1/readyz is readiness (drain state,
// sticky WAL errors, replication staleness).
//
// -replica-self + -peers form a self-healing replica group instead: the
// members elect a leader among themselves (lease-based, epoch-fenced) and
// fail over automatically when it dies. Writes are accepted only on the
// current leader and acknowledged only after a majority holds them durably;
// non-leaders answer 421 with the live leader's -api-advertise address.
// Role, epoch and lease health are visible on /v1/readyz and /v1/metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"vadalink"
	"vadalink/internal/datalog"
	"vadalink/internal/pg"
	"vadalink/internal/vadalog"
	"vadalink/internal/whatif"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vadalink: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "stats":
		cmdStats(args)
	case "control":
		cmdControl(args)
	case "closelink":
		cmdCloseLink(args)
	case "family":
		cmdFamily(args)
	case "reason":
		cmdReason(args)
	case "query":
		cmdQuery(args)
	case "whatif":
		cmdWhatif(args)
	case "explain":
		cmdExplain(args)
	case "dot":
		cmdDot(args)
	case "ubo":
		cmdUBO(args)
	case "serve":
		cmdServe(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: vadalink <stats|control|closelink|family|reason|query|whatif|explain|dot|ubo|serve> [flags]
run "vadalink <cmd> -h" for per-command flags`)
	os.Exit(2)
}

// cmdExplain prints the derivation tree of a control decision — the paper's
// explainability property, live: why does X control Y?
func cmdExplain(args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	in := fs.String("in", "", "input graph JSON")
	from := fs.Int64("from", -1, "controller node id")
	to := fs.Int64("to", -1, "controlled node id")
	_ = fs.Parse(args)
	if *from < 0 || *to < 0 {
		log.Fatal("explain needs -from and -to node ids")
	}
	g := loadGraph(*in)
	r := vadalink.NewReasoner(g, vadalink.TaskControl)
	r.EngineOptions = append(r.EngineOptions, vadalink.WithProvenance())
	if err := r.Run(); err != nil {
		log.Fatal(err)
	}
	tree := r.ExplainControl(vadalink.NodeID(*from), vadalink.NodeID(*to))
	if tree == nil {
		fmt.Printf("%s does not control %s\n",
			nodeName(g, vadalink.NodeID(*from)), nodeName(g, vadalink.NodeID(*to)))
		return
	}
	for _, line := range tree {
		fmt.Println(line)
	}
}

func loadGraph(path string) *vadalink.Graph {
	if path == "" {
		log.Fatal("missing -in graph.json (generate one with graphgen, or use -companies/-persons/-shares CSVs)")
	}
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	g, err := pg.ReadJSON(f)
	if err != nil {
		log.Fatal(err)
	}
	return g
}

// csvFlags adds the registry-CSV input flags shared by the commands that
// accept either -in graph.json or the CSV triple.
type csvFlags struct {
	in, companies, persons, shares *string
}

func addInputFlags(fs *flag.FlagSet) csvFlags {
	return csvFlags{
		in:        fs.String("in", "", "input graph JSON"),
		companies: fs.String("companies", "", "companies CSV (id,name,sector,addr,city)"),
		persons:   fs.String("persons", "", "persons CSV (id,name,surname,birth,addr,city)"),
		shares:    fs.String("shares", "", "shareholdings CSV (owner,owned,share[,right])"),
	}
}

func (c csvFlags) load() *vadalink.Graph {
	if *c.companies == "" && *c.persons == "" && *c.shares == "" {
		return loadGraph(*c.in)
	}
	open := func(path string) io.Reader {
		if path == "" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	res, err := vadalink.LoadCSV(open(*c.companies), open(*c.persons), open(*c.shares))
	if err != nil {
		log.Fatal(err)
	}
	return res.Graph
}

func nodeName(g *vadalink.Graph, id vadalink.NodeID) string {
	if n := g.Node(id); n != nil {
		if s, ok := n.Props["name"].(string); ok && s != "" {
			if sn, ok := n.Props["surname"].(string); ok && sn != "" {
				return fmt.Sprintf("%s %s (#%d)", s, sn, id)
			}
			return fmt.Sprintf("%s (#%d)", s, id)
		}
	}
	return fmt.Sprintf("#%d", id)
}

func cmdStats(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	inputs := addInputFlags(fs)
	_ = fs.Parse(args)
	g := inputs.load()
	fmt.Print(vadalink.Stats(g).String())
}

func cmdControl(args []string) {
	fs := flag.NewFlagSet("control", flag.ExitOnError)
	inputs := addInputFlags(fs)
	node := fs.Int64("node", -1, "controller node id (default: all pairs)")
	_ = fs.Parse(args)
	g := inputs.load()
	if *node >= 0 {
		for _, y := range vadalink.Controls(g, vadalink.NodeID(*node)) {
			fmt.Printf("%s controls %s\n", nodeName(g, vadalink.NodeID(*node)), nodeName(g, y))
		}
		return
	}
	for _, p := range vadalink.AllControlPairs(g) {
		fmt.Printf("%s controls %s\n", nodeName(g, p.From), nodeName(g, p.To))
	}
}

func cmdCloseLink(args []string) {
	fs := flag.NewFlagSet("closelink", flag.ExitOnError)
	inputs := addInputFlags(fs)
	t := fs.Float64("t", 0.2, "close-link threshold")
	_ = fs.Parse(args)
	g := inputs.load()
	for _, l := range vadalink.CloseLinks(g, *t) {
		fmt.Printf("close link %s – %s (via %s)\n",
			nodeName(g, l.Pair.A), nodeName(g, l.Pair.B), nodeName(g, l.Via))
	}
}

func cmdFamily(args []string) {
	fs := flag.NewFlagSet("family", flag.ExitOnError)
	in := fs.String("in", "", "input graph JSON")
	k := fs.Int("k", 1, "first-level clusters (1 = blocking only)")
	out := fs.String("out", "", "write the augmented graph JSON here")
	_ = fs.Parse(args)
	g := loadGraph(*in)
	res, err := vadalink.DetectFamilies(g, *k)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rounds=%d blocks=%d comparisons=%d\n", res.Rounds, res.Blocks, res.Comparisons)
	for label, n := range res.Added {
		fmt.Printf("added %-10s %d\n", label, n)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := g.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
	}
}

// cmdWhatif answers "what would change if…" from the command line: apply a
// scenario file to an overlay, chase the composite, print the diff.
func cmdWhatif(args []string) {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	inputs := addInputFlags(fs)
	t := fs.Float64("t", 0.2, "close-link threshold")
	opsPath := fs.String("ops", "", `scenario ops JSON array ("-" reads stdin)`)
	_ = fs.Parse(args)
	g := inputs.load()
	if *opsPath == "" {
		log.Fatal(`whatif needs -ops ops.json ("-" reads stdin)`)
	}
	var r io.Reader = os.Stdin
	if *opsPath != "-" {
		f, err := os.Open(*opsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	var ops []whatif.Op
	if err := json.NewDecoder(r).Decode(&ops); err != nil {
		log.Fatalf("reading ops: %v", err)
	}
	ctx := context.Background()
	bl, err := whatif.ComputeBaseline(ctx, g, *t)
	if err != nil {
		log.Fatal(err)
	}
	res, err := whatif.Evaluate(ctx, g, bl, ops, whatif.Options{Threshold: *t})
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range res.Created {
		fmt.Printf("created node        #%d\n", id)
	}
	for _, p := range res.ControlGained {
		fmt.Printf("control gained      %s -> %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
	}
	for _, p := range res.ControlLost {
		fmt.Printf("control lost        %s -> %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
	}
	for _, p := range res.CloseLinkGained {
		fmt.Printf("close link gained   %s - %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
	}
	for _, p := range res.CloseLinkLost {
		fmt.Printf("close link lost     %s - %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
	}
	fmt.Printf("%d op(s): %+d nodes %+d edges, %d affected source(s), %d control pair(s), %d close link(s)\n",
		len(ops), res.Delta.AddedNodes-res.Delta.RemovedNodes, res.Delta.AddedEdges-res.Delta.RemovedEdges,
		res.AffectedSources, len(res.Control), len(res.CloseLink))
}

func cmdReason(args []string) {
	fs := flag.NewFlagSet("reason", flag.ExitOnError)
	in := fs.String("in", "", "input graph JSON")
	task := fs.String("task", "control", "control | closelink | partner")
	_ = fs.Parse(args)
	g := loadGraph(*in)
	var sel = vadalink.TaskControl
	switch *task {
	case "control":
		sel = vadalink.TaskControl
	case "closelink":
		sel = vadalink.TaskCloseLink
	case "partner":
		sel = vadalink.TaskPartner
	default:
		log.Fatalf("unknown task %q", *task)
	}
	r := vadalink.NewReasoner(g, sel)
	if err := r.Run(); err != nil {
		log.Fatal(err)
	}
	switch *task {
	case "control":
		for _, p := range r.ControlPairs() {
			fmt.Printf("control %s -> %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
		}
	case "closelink":
		for _, p := range r.CloseLinkPairs() {
			if p[0] < p[1] {
				fmt.Printf("closelink %s – %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
			}
		}
	case "partner":
		for _, p := range r.PartnerPairs() {
			if p[0] < p[1] {
				fmt.Printf("partner %s – %s\n", nodeName(g, p[0]), nodeName(g, p[1]))
			}
		}
	}
}

// cmdQuery answers one goal atom demand-driven from the command line: the
// constants in the goal drive a magic-sets rewrite, so "control(4, Y)"
// derives only node 4's cone instead of chasing the whole graph. -program
// supplies custom rules; without it the goal predicate selects the built-in
// control or close-link program.
func cmdQuery(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	inputs := addInputFlags(fs)
	goalSrc := fs.String("goal", "", `goal atom, e.g. "control(4, Y)"`)
	progPath := fs.String("program", "", `rule file ("-" reads stdin; default: built-in program of the goal predicate)`)
	_ = fs.Parse(args)
	if *goalSrc == "" {
		log.Fatal(`query needs -goal, e.g. -goal "control(4, Y)"`)
	}
	g := inputs.load()
	goal, err := datalog.ParseGoal(*goalSrc)
	if err != nil {
		log.Fatalf("bad goal: %v", err)
	}
	progSrc := ""
	if *progPath != "" {
		var r io.Reader = os.Stdin
		if *progPath != "-" {
			f, err := os.Open(*progPath)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			r = f
		}
		b, err := io.ReadAll(r)
		if err != nil {
			log.Fatal(err)
		}
		progSrc = string(b)
	} else {
		var ok bool
		if progSrc, ok = vadalog.ProgramForGoal(goal.Pred); !ok {
			log.Fatalf("no built-in program defines %q; supply -program", goal.Pred)
		}
	}
	res, err := vadalog.EvalGoal(context.Background(), g, progSrc, goal)
	if err != nil {
		log.Fatal(err)
	}
	if res.RunErr != nil {
		log.Printf("warning: evaluation truncated: %v", res.RunErr)
	}
	for _, b := range res.Answers {
		vars := make([]string, 0, len(b))
		for v := range b {
			vars = append(vars, string(v))
		}
		sort.Strings(vars)
		parts := make([]string, 0, len(vars))
		for _, v := range vars {
			parts = append(parts, fmt.Sprintf("%s=%v", v, b[datalog.Variable(v)]))
		}
		fmt.Println(strings.Join(parts, " "))
	}
	fmt.Fprintf(os.Stderr, "%d answer(s), mode=%s, %d facts derived\n",
		len(res.Answers), res.Mode, res.Engine.DerivedCount())
}

// cmdDot renders the graph (optionally after annotating control and
// close-link edges) in Graphviz DOT format.
func cmdDot(args []string) {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	in := fs.String("in", "", "input graph JSON")
	annotate := fs.Bool("annotate", false, "add control and close-link edges before rendering")
	_ = fs.Parse(args)
	g := loadGraph(*in)
	if *annotate {
		r := vadalink.NewReasoner(g, vadalink.TaskControl|vadalink.TaskCloseLink)
		if err := r.Run(); err != nil {
			log.Fatal(err)
		}
		if _, err := r.Apply(); err != nil {
			log.Fatal(err)
		}
	}
	if err := g.WriteDOT(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// cmdUBO lists the ultimate beneficial owners (controlling persons) of a
// company, or all orphan companies.
func cmdUBO(args []string) {
	fs := flag.NewFlagSet("ubo", flag.ExitOnError)
	in := fs.String("in", "", "input graph JSON")
	node := fs.Int64("node", -1, "company node id (default: list orphans)")
	_ = fs.Parse(args)
	g := loadGraph(*in)
	if *node >= 0 {
		ubos := vadalink.UltimateControllers(g, vadalink.NodeID(*node))
		if len(ubos) == 0 {
			fmt.Printf("%s has no ultimate controller\n", nodeName(g, vadalink.NodeID(*node)))
			return
		}
		for _, p := range ubos {
			fmt.Printf("%s is ultimately controlled by %s\n",
				nodeName(g, vadalink.NodeID(*node)), nodeName(g, p))
		}
		return
	}
	for _, c := range vadalink.Orphans(g) {
		fmt.Printf("orphan: %s\n", nodeName(g, c))
	}
}

func cmdServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	in := fs.String("in", "", "input graph JSON")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = 30s default, negative = none)")
	maxFacts := fs.Int("max-facts", 0, "chase budget: max derived facts per request (0 = unlimited)")
	maxRounds := fs.Int("max-rounds", 0, "chase budget: max evaluation rounds per request (0 = engine default)")
	queryCache := fs.Int64("query-cache-bytes", 0, "point-query result cache budget in bytes (0 = 64 MiB default, negative = disable)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	logFormat := fs.String("log-format", "text", "access-log format: text | json | off")
	dataDir := fs.String("data-dir", "", "crash-safe persistence directory (empty = memory-only)")
	fsync := fs.Duration("fsync", 2*time.Millisecond, "WAL group-commit interval (0 = fsync every append)")
	replicate := fs.String("replicate", "", "leader mode: serve the WAL as a replication stream on this address (requires -data-dir)")
	follow := fs.String("follow", "", "follower mode: tail the leader's replication stream at this address (requires -data-dir; serves read-only)")
	leaderAPI := fs.String("leader-api", "", "leader's API base URL, advertised to clients whose writes hit this follower")
	maxStaleness := fs.Duration("max-staleness", 0, "follower mode: reads staler than this answer 503 (0 = 5s default, negative = serve regardless)")
	replicaSelf := fs.String("replica-self", "", "replica-group mode: this member's advertised replication address; leadership fails over automatically (requires -data-dir and -peers)")
	peers := fs.String("peers", "", "replica-group mode: comma-separated replication addresses of the group (own address may be included)")
	apiAdvertise := fs.String("api-advertise", "", "replica-group mode: this member's API base URL, handed to clients redirected to it while it leads")
	lease := fs.Duration("lease", 0, "replica-group mode: leadership lease; bounds failure detection and write unavailability during failover (0 = 3s default)")
	_ = fs.Parse(args)
	cfg := vadalink.APIConfig{Timeout: *timeout, MaxRounds: *maxRounds}
	cfg.Budget.MaxFacts = *maxFacts
	cfg.QueryCacheBytes = *queryCache
	cfg.Pprof = *pprofOn
	switch *logFormat {
	case "text":
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		cfg.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "off":
	default:
		log.Fatalf("unknown -log-format %q (want text, json or off)", *logFormat)
	}

	if *follow != "" && *dataDir == "" {
		log.Fatal("-follow requires -data-dir (the follower keeps its own durable copy)")
	}
	if *replicate != "" && *dataDir == "" {
		log.Fatal("-replicate requires -data-dir (the leader ships its WAL)")
	}
	if *replicaSelf != "" {
		if *dataDir == "" {
			log.Fatal("-replica-self requires -data-dir (every group member keeps a durable copy)")
		}
		if *peers == "" {
			log.Fatal("-replica-self requires -peers (the rest of the group roster)")
		}
		if *follow != "" || *replicate != "" {
			log.Fatal("-replica-self is a mode of its own; drop -follow/-replicate (the group elects its leader)")
		}
	}

	// SIGINT/SIGTERM drain in-flight requests instead of dropping them; the
	// same context stops the replication goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var wg sync.WaitGroup

	var g *vadalink.Graph
	var ps *vadalink.DurableStore
	if *replicaSelf != "" {
		// Replica-group mode: this member and its -peers elect a leader among
		// themselves and fail over automatically. The graph is whatever the
		// group replicates, so -in never seeds it here — seed one member's
		// -data-dir with a plain `serve -data-dir -in` run first, or start
		// empty and write through the elected leader's API.
		if *in != "" {
			log.Printf("note: -in is ignored in replica-group mode (the group replicates the leader's state)")
		}
		ln, err := net.Listen("tcp", *replicaSelf)
		if err != nil {
			log.Fatal(err)
		}
		var roster []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				roster = append(roster, p)
			}
		}
		node, err := vadalink.OpenReplicaNode(*dataDir, vadalink.ReplicaNodeOptions{
			Self:      *replicaSelf,
			API:       *apiAdvertise,
			Peers:     roster,
			Lease:     *lease,
			SyncEvery: *fsync,
			Logger:    cfg.Logger,
			OnRoleChange: func(role string, epoch uint64) {
				log.Printf("replica group: now %s (epoch %d)", role, epoch)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Node = node
		cfg.LeaderAPI = *leaderAPI
		cfg.MaxStaleness = *maxStaleness
		ps = node.Store()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := node.Serve(ctx, ln); err != nil {
				log.Printf("replica group listener: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			node.Run(ctx)
		}()
		log.Printf("replica group member %s (peers %s, lease %s, recovered to seq %d, epoch %d)",
			*replicaSelf, strings.Join(roster, " "), *lease, ps.Seq(), node.Epoch())
	} else if *follow != "" {
		// Follower mode: the graph arrives over the replication stream, so
		// -in never seeds it. The store recovers whatever an earlier run
		// replicated and the follower resumes from that position.
		fl, err := vadalink.OpenFollower(*dataDir, vadalink.FollowerOptions{
			Leader:    *follow,
			SyncEvery: *fsync,
			Logger:    cfg.Logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Follower = fl
		cfg.LeaderAPI = *leaderAPI
		cfg.MaxStaleness = *maxStaleness
		cfg.Persist = fl.Store()
		ps = fl.Store()
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl.Run(ctx)
		}()
		log.Printf("following %s (recovered to seq %d)", *follow, fl.Seq())
	} else if *dataDir != "" {
		var err error
		ps, err = vadalink.OpenDurable(*dataDir, vadalink.DurableOptions{SyncEvery: *fsync})
		if err != nil {
			log.Fatal(err)
		}
		rec := ps.Recovery()
		if rec.Nodes == 0 && rec.Edges == 0 && *in != "" {
			// First run against an empty store: seed it from -in and make the
			// seed durable immediately.
			if err := ps.Import(loadGraph(*in)); err != nil {
				log.Fatal(err)
			}
			log.Printf("seeded %s from %s (%d nodes, %d edges)",
				*dataDir, *in, ps.Graph().NumNodes(), ps.Graph().NumEdges())
		} else {
			log.Printf("recovered %d nodes, %d edges from %s in %dms (snapshot gen %d, %d wal records, %d torn tails)",
				rec.Nodes, rec.Edges, *dataDir, rec.DurationMillis,
				rec.SnapshotGen, rec.RecordsReplayed, rec.TornTails)
		}
		g = ps.Graph()
		cfg.Persist = ps
	} else {
		g = loadGraph(*in)
	}

	if *replicate != "" {
		// Leader mode: ship this store's WAL to followers. A follower can
		// also replicate onward (relay), since it keeps a full WAL of its own.
		ld := vadalink.NewReplicationLeader(ps, vadalink.ReplicationLeaderOptions{Logger: cfg.Logger})
		ln, err := net.Listen("tcp", *replicate)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Leader = ld
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ld.Serve(ctx, ln); err != nil {
				log.Printf("replication leader: %v", err)
			}
		}()
		log.Printf("serving replication stream on %s", ln.Addr())
	}

	if g != nil {
		log.Printf("serving reasoning API on %s (%d nodes, %d edges)", *addr, g.NumNodes(), g.NumEdges())
	} else {
		// A follower or replica-group member serves its replication
		// follower's version chain, across snapshot bootstraps too.
		log.Printf("serving reasoning API on %s (replicated graph)", *addr)
	}
	if err := vadalink.ServeAPI(ctx, *addr, vadalink.APIHandlerWith(g, cfg)); err != nil {
		log.Fatal(err)
	}
	wg.Wait() // replication goroutines stop on the same signal context
	if ps != nil {
		// Serve has drained (including in-flight mutations), so the graph is
		// quiescent: compact the WAL into a snapshot and close cleanly. A
		// crash here costs nothing — the WAL already holds everything.
		if info, err := ps.Snapshot(); err != nil {
			log.Printf("shutdown snapshot failed: %v (state is still in the WAL)", err)
		} else {
			log.Printf("shutdown snapshot: gen %d, %d nodes, %d edges, %d bytes", info.Gen, info.Nodes, info.Edges, info.Bytes)
		}
		if err := ps.Close(); err != nil {
			log.Printf("closing store: %v", err)
		}
	}
	log.Print("drained, bye")
}
