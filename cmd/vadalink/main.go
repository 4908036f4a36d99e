// Command vadalink is the operator CLI of the Vada-Link reproduction. It
// loads a property graph from JSON (see cmd/graphgen) or registry CSVs and
// runs the paper's reasoning tasks over it.
//
// Usage:
//
//	vadalink stats     -in graph.json
//	vadalink control   -in graph.json [-node ID [-target ID]]
//	vadalink closelink -in graph.json [-t 0.2]
//	vadalink ubo       -in graph.json [-node ID]
//	vadalink explain   -in graph.json -from ID -to ID
//	vadalink query     -in graph.json -goal "control(4, Y)" [-program rules.vada]
//	vadalink whatif    -in graph.json -ops ops.json [-t 0.2]
//	vadalink family    -in graph.json [-k 1] [-out augmented.json]
//	vadalink reason    -in graph.json -task control|closelink|partner
//	vadalink dot       -in graph.json [-annotate]
//	vadalink serve     -in graph.json [-addr :8080] [-timeout 30s]
//	                   [-max-facts N] [-max-rounds N]
//	                   [-pprof] [-log-format text|json|off]
//	                   [-data-dir DIR] [-fsync 2ms]
//	                   [-replicate :7070] [-follow HOST:7070]
//	                   [-leader-api URL] [-max-staleness 5s]
//	                   [-replica-self HOST:7070] [-peers H1:7070,H2:7070]
//	                   [-api-advertise URL] [-lease 3s]
//
// stats, control, closelink, ubo, explain, query and whatif ask the
// reasoning API in process, with no deadline and the engine's default round
// bound (vadalink.PhiRounds): each asks the route that answers it (see
// routes and API.md), the route's query parameters being its flags, and
// prints the route's JSON body unchanged. A non-2xx answer prints the JSON
// error envelope to stderr and exits 1. They read the graph from -in or from
// the -companies/-persons/-shares CSVs. control without -node lists every
// control pair; ubo without -node lists the orphan companies, which no route
// answers.
//
// whatif's -ops file is the JSON array of hypothetical ops POST /v1/whatif
// takes ({"op":"addShare","from":1,"to":2,"w":0.3}, addNode, setShare,
// removeEdge, removeNode); the input graph is never modified.
//
// serve applies a per-request wall-clock deadline and an optional chase
// budget; truncated answers are marked "truncated" in the JSON. SIGINT and
// SIGTERM drain in-flight requests before the process exits. Per-endpoint
// counters and the last chase report are served on GET /v1/metrics; -pprof
// mounts net/http/pprof under /debug/pprof/;
// -log-format selects slog text or JSON access logs on stderr.
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
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http/httptest"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vadalink"
	"vadalink/internal/pg"
	"vadalink/internal/reasonapi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vadalink: ")
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A command defines its flags on fs and returns the function that runs it
// once they are parsed, printing its answer to stdout.
type command func(fs *flag.FlagSet) func(stdout io.Writer) error

// commands are the subcommands the library answers: no route of the
// reasoning API does. Every other subcommand is in routes.
var commands = map[string]command{
	"family": cmdFamily,
	"reason": cmdReason,
	"dot":    cmdDot,
	"serve":  cmdServe,
}

// A route is a subcommand the reasoning API answers: it asks the route with
// the pattern, and its flags are that route's query parameters
// (reasonapi.Params), sent when given.
type route struct {
	pattern string
	// bare answers instead when no parameter flag is given; nil asks the
	// route anyway.
	bare func(g *vadalink.Graph, stdout io.Writer) error
	// body defines the flags of a POST route's JSON body on fs and returns
	// the function that builds the body once they are parsed.
	body func(fs *flag.FlagSet) func() (any, error)
}

// routes maps each subcommand the reasoning API answers to its route. The
// request is served in process by ask, so the CLI and the server answer a
// question on one code path.
var routes = map[string]route{
	"stats": {pattern: "GET /v1/stats"},
	"control": {pattern: "GET /v1/control", bare: func(g *vadalink.Graph, stdout io.Writer) error {
		return ask(g, "GET /v1/control/pairs", nil, nil, stdout)
	}},
	"closelink": {pattern: "GET /v1/closelinks"},
	"ubo": {pattern: "GET /v1/ubo", bare: func(g *vadalink.Graph, stdout io.Writer) error {
		orphans := append([]vadalink.NodeID{}, vadalink.Orphans(g)...) // which no route answers
		return json.NewEncoder(stdout).Encode(map[string]any{"orphans": orphans})
	}},
	"explain": {pattern: "GET /v1/explain"},
	"query": {pattern: "POST /v1/query", body: func(fs *flag.FlagSet) func() (any, error) {
		goal := fs.String("goal", "", `goal atom, e.g. "control(4, Y)"`)
		progPath := fs.String("program", "", `rule file ("-" reads stdin; default: built-in program of the goal predicate)`)
		return func() (any, error) {
			if *goal == "" {
				return nil, errors.New(`query needs -goal, e.g. -goal "control(4, Y)"`)
			}
			prog, err := readInput(*progPath)
			return map[string]any{"goal": *goal, "program": string(prog)}, err
		}
	}},
	"whatif": {pattern: "POST /v1/whatif", body: func(fs *flag.FlagSet) func() (any, error) {
		t := fs.Float64("t", 0.2, "close-link threshold")
		opsPath := fs.String("ops", "", `scenario ops JSON array ("-" reads stdin)`)
		return func() (any, error) {
			if *opsPath == "" {
				return nil, errors.New(`whatif needs -ops ops.json ("-" reads stdin)`)
			}
			ops, err := readInput(*opsPath)
			return map[string]any{"ops": json.RawMessage(ops), "threshold": *t}, err
		}
	}},
}

// readInput reads a file, stdin for "-", and nothing for "".
func readInput(path string) ([]byte, error) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// routed turns a route into a command: it reads the graph from the input
// flags and asks the route of the API handler over it.
func routed(rt route) command {
	return func(fs *flag.FlagSet) func(io.Writer) error {
		inputs := addInputFlags(fs)
		params, _ := reasonapi.Params(rt.pattern)
		flags := make([]*string, len(params))
		for i, p := range params {
			flags[i] = fs.String(p.Name, "", p.Usage)
		}
		body := func() (any, error) { return nil, nil }
		if rt.body != nil {
			body = rt.body(fs)
		}
		return func(stdout io.Writer) error {
			query := url.Values{}
			for i, p := range params {
				if *flags[i] != "" {
					query.Set(p.Name, *flags[i])
				}
			}
			b, err := body()
			if err != nil {
				return err
			}
			g, err := inputs.load()
			if err != nil {
				return err
			}
			if len(query) == 0 && rt.bare != nil {
				return rt.bare(g, stdout)
			}
			return ask(g, rt.pattern, query, b, stdout)
		}
	}
}

// apiError is a non-2xx answer of the reasoning API: its body, the JSON
// error envelope, is printed unchanged.
type apiError []byte

func (e apiError) Error() string { return string(e) }

// ask asks the route with the pattern, with the query and the JSON body (nil:
// none), of the reasoning API's handler over g, with no deadline, and prints
// a 2xx body to stdout unchanged; any other answer is an apiError.
func ask(g *vadalink.Graph, pattern string, query url.Values, body any, stdout io.Writer) error {
	method, target, _ := strings.Cut(pattern, " ")
	if len(query) > 0 {
		target += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	rec := httptest.NewRecorder()
	vadalink.APIHandlerWith(g, vadalink.APIConfig{Timeout: -1}).ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	if rec.Code/100 != 2 {
		return apiError(rec.Body.Bytes())
	}
	_, err := stdout.Write(rec.Body.Bytes())
	return err
}

// run executes one command line and returns the process exit status: 0 on
// success, 1 on failure, 2 on misuse.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	cmd, ok := commands[args[0]]
	if rt, isRoute := routes[args[0]]; isRoute {
		cmd, ok = routed(rt), true
	}
	if !ok {
		return usage(stderr)
	}
	fs := flag.NewFlagSet(args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	exec := cmd(fs)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := exec(stdout); err != nil {
		var env apiError
		if errors.As(err, &env) {
			_, _ = stderr.Write(env)
		} else {
			fmt.Fprintf(stderr, "vadalink: %v\n", err)
		}
		return 1
	}
	return 0
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage: vadalink <stats|control|closelink|ubo|explain|query|whatif|family|reason|dot|serve> [flags]
run "vadalink <cmd> -h" for per-command flags`)
	return 2
}

func loadGraph(path string) (*vadalink.Graph, error) {
	if path == "" {
		return nil, errors.New("missing -in graph.json (generate one with graphgen, or use -companies/-persons/-shares CSVs)")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pg.ReadJSON(f)
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

func (c csvFlags) load() (*vadalink.Graph, error) {
	if *c.companies == "" && *c.persons == "" && *c.shares == "" {
		return loadGraph(*c.in)
	}
	var files []io.Reader
	for _, path := range []string{*c.companies, *c.persons, *c.shares} {
		if path == "" {
			files = append(files, nil)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		files = append(files, f)
	}
	res, err := vadalink.LoadCSV(files[0], files[1], files[2])
	if err != nil {
		return nil, err
	}
	return res.Graph, nil
}

func cmdFamily(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "", "input graph JSON")
	k := fs.Int("k", 1, "first-level clusters (1 = blocking only)")
	out := fs.String("out", "", "write the augmented graph JSON here")
	return func(stdout io.Writer) error {
		g, err := loadGraph(*in)
		if err != nil {
			return err
		}
		res, err := vadalink.DetectFamilies(g, *k)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "rounds=%d blocks=%d comparisons=%d\n", res.Rounds, res.Blocks, res.Comparisons)
		for label, n := range res.Added {
			fmt.Fprintf(stdout, "added %-10s %d\n", label, n)
		}
		if *out == "" {
			return nil
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := g.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
}

// nodeName renders a node for reason's listing: its name, and surname for a
// person, then its ID.
func nodeName(g *vadalink.Graph, id vadalink.NodeID) string {
	if n := g.Node(id); n != nil {
		if s, _ := n.Props.Str("name"); s != "" {
			if sn, _ := n.Props.Str("surname"); sn != "" {
				return fmt.Sprintf("%s %s (#%d)", s, sn, id)
			}
			return fmt.Sprintf("%s (#%d)", s, id)
		}
	}
	return fmt.Sprintf("#%d", id)
}

func cmdReason(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "", "input graph JSON")
	task := fs.String("task", "control", "control | closelink | partner")
	return func(stdout io.Writer) error {
		sel, arrow := vadalink.TaskControl, "->"
		switch *task {
		case "control":
		case "closelink":
			sel, arrow = vadalink.TaskCloseLink, "–"
		case "partner":
			sel, arrow = vadalink.TaskPartner, "–"
		default:
			return fmt.Errorf("unknown task %q", *task)
		}
		g, err := loadGraph(*in)
		if err != nil {
			return err
		}
		r := vadalink.NewReasoner(g, sel)
		if err := r.Run(); err != nil {
			return err
		}
		pairs := map[string]func() [][2]vadalink.NodeID{
			"control": r.ControlPairs, "closelink": r.CloseLinkPairs, "partner": r.PartnerPairs,
		}[*task]()
		for _, p := range pairs {
			if arrow == "->" || p[0] < p[1] { // a symmetric relation is listed once
				fmt.Fprintf(stdout, "%s %s %s %s\n", *task, nodeName(g, p[0]), arrow, nodeName(g, p[1]))
			}
		}
		return nil
	}
}

// cmdDot renders the graph (optionally after annotating control and
// close-link edges) in Graphviz DOT format.
func cmdDot(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "", "input graph JSON")
	annotate := fs.Bool("annotate", false, "add control and close-link edges before rendering")
	return func(stdout io.Writer) error {
		g, err := loadGraph(*in)
		if err != nil {
			return err
		}
		if *annotate {
			r := vadalink.NewReasoner(g, vadalink.TaskControl|vadalink.TaskCloseLink)
			if err := r.Run(); err != nil {
				return err
			}
			if _, err := r.Apply(); err != nil {
				return err
			}
		}
		return g.WriteDOT(stdout)
	}
}

func cmdServe(fs *flag.FlagSet) func(io.Writer) error {
	in := fs.String("in", "", "input graph JSON")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = 30s default, negative = none)")
	maxFacts := fs.Int("max-facts", 0, "chase budget: max derived facts per request (0 = unlimited)")
	maxRounds := fs.Int("max-rounds", 0, "chase budget: max evaluation rounds per request (0 = engine default, 10000)")
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
	return func(io.Writer) error {
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
			return fmt.Errorf("unknown -log-format %q (want text, json or off)", *logFormat)
		}

		if *follow != "" && *dataDir == "" {
			return errors.New("-follow requires -data-dir (the follower keeps its own durable copy)")
		}
		if *replicate != "" && *dataDir == "" {
			return errors.New("-replicate requires -data-dir (the leader ships its WAL)")
		}
		if *replicaSelf != "" {
			if *dataDir == "" {
				return errors.New("-replica-self requires -data-dir (every group member keeps a durable copy)")
			}
			if *peers == "" {
				return errors.New("-replica-self requires -peers (the rest of the group roster)")
			}
			if *follow != "" || *replicate != "" {
				return errors.New("-replica-self is a mode of its own; drop -follow/-replicate (the group elects its leader)")
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
				return err
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
				return err
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
				return err
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
				return err
			}
			rec := ps.Recovery()
			if rec.Nodes == 0 && rec.Edges == 0 && *in != "" {
				// First run against an empty store: seed it from -in and make the
				// seed durable immediately.
				seed, err := loadGraph(*in)
				if err != nil {
					return err
				}
				if err := ps.Import(seed); err != nil {
					return err
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
			var err error
			if g, err = loadGraph(*in); err != nil {
				return err
			}
		}

		if *replicate != "" {
			// Leader mode: ship this store's WAL to followers. A follower can
			// also replicate onward (relay), since it keeps a full WAL of its own.
			ld := vadalink.NewReplicationLeader(ps, vadalink.ReplicationLeaderOptions{Logger: cfg.Logger})
			ln, err := net.Listen("tcp", *replicate)
			if err != nil {
				return err
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
			return err
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
		return nil
	}
}
