package replication

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
)

// The failover chaos harness: a 3-member replica group, each member its own
// process running the full Node state machine (Serve + Run + a writer that
// commits facts whenever it holds the lease). For twenty cycles the parent
// SIGKILLs whichever member acknowledged a fact most recently — by
// construction the current leader — and restarts it from its own dir. The
// self-healing contract under test:
//
//   - zero acknowledged-fact loss: every fact acked through Node.Commit by
//     ANY leader life exists, with its exact payload, in the final leader's
//     recovered state;
//   - no dual-epoch acks: no two acknowledged facts claim the same sequence
//     number with different payloads — i.e. no two divergent histories were
//     ever both acknowledged;
//   - bounded write unavailability: after every leader kill the group
//     acknowledges a fresh fact within replFailoverMaxOutage.
//
// Every member publishes its (per-life, ephemeral) replication address
// through an atomically-renamed addr file; PeersFunc re-reads all three on
// every election and dial, so restarts look like address churn — which is
// exactly what a rescheduled replica looks like in production.

const (
	replFailoverIdxEnv  = "REPL_FAILOVER_IDX"  // this member's index (0..2)
	replFailoverBaseEnv = "REPL_FAILOVER_BASE" // shared scratch dir

	// replFailoverMaxOutage bounds how long writes may stay unavailable
	// after a leader kill (the ISSUE's "bounded write unavailability").
	replFailoverMaxOutage = 5 * time.Second

	replFailoverLease = 300 * time.Millisecond

	replFailoverExitOpen     = 2
	replFailoverExitInternal = 4
)

// failoverAck is one parsed ack line: "idx epoch seq nodeID val".
type failoverAck struct {
	idx    int
	epoch  uint64
	seq    int64
	nodeID int64
	val    string
}

func failoverAddrPath(base string, idx int) string {
	return filepath.Join(base, fmt.Sprintf("member%d.addr", idx))
}

func failoverDir(base string, idx int) string {
	return filepath.Join(base, fmt.Sprintf("member%d", idx))
}

func failoverAckPath(base string) string { return filepath.Join(base, "acks.txt") }

func failoverLogPath(base string) string { return filepath.Join(base, "debug.log") }

// dumpFailoverLog prints the members' shared lifecycle log (elections,
// grants, role transitions, resets) when the harness fails — the only way
// to reconstruct a rare interleaving after the fact.
func dumpFailoverLog(t *testing.T, base string) {
	t.Helper()
	b, err := os.ReadFile(failoverLogPath(base))
	if err != nil {
		t.Logf("no member debug log: %v", err)
		return
	}
	t.Logf("member lifecycle log:\n%s", b)
}

func TestReplicationFailoverLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("failover chaos harness skipped in -short")
	}
	base := t.TempDir()
	t.Cleanup(func() {
		if t.Failed() {
			dumpFailoverLog(t, base)
		}
	})
	memberEnv := func(idx int) []string {
		return []string{
			replFailoverIdxEnv + "=" + strconv.Itoa(idx),
			replFailoverBaseEnv + "=" + base,
		}
	}
	start := func(idx int) *crashChild {
		return startCrashChildCmd(t, fmt.Sprintf("member%d", idx),
			"^TestReplFailoverChild$", memberEnv(idx))
	}
	children := make([]*crashChild, 3)
	for i := range children {
		children[i] = start(i)
	}
	defer func() {
		for _, c := range children {
			c.kill()
		}
	}()

	ackPath := failoverAckPath(base)
	// Wait for the group to bootstrap: first election, first acked fact.
	acks := waitMoreAcks(t, ackPath, 0, 30*time.Second, "initial election")

	const cycles = 20
	var worstOutage time.Duration
	for i := 0; i < cycles; i++ {
		for _, c := range children {
			c.checkAlive(t)
		}
		// The most recent acker is the leader. Kill it mid-stride.
		leader := acks[len(acks)-1].idx
		children[leader].kill()
		killed := time.Now()
		children[leader] = start(leader)

		// The survivors form a majority: writes must come back within the
		// outage bound, acknowledged by a *different* member under a fenced
		// epoch (the killed member needs time to restart and rejoin, and
		// can't be re-elected before its WAL recovers — but nothing stops
		// it from winning a later cycle).
		prev := len(acks)
		acks = waitMoreAcks(t, ackPath, prev, replFailoverMaxOutage,
			fmt.Sprintf("cycle %d: writes unavailable after killing member%d", i, leader))
		if outage := time.Since(killed); outage > worstOutage {
			worstOutage = outage
		}
	}
	for _, c := range children {
		c.checkAlive(t)
		c.kill()
	}

	acks = readFailoverAcks(ackPath)
	if len(acks) <= cycles {
		t.Fatalf("only %d acks across %d cycles; the harness tested nothing", len(acks), cycles)
	}

	// No dual-epoch acks: a sequence number acknowledged twice with
	// different payloads means two divergent histories both got acked.
	bySeq := make(map[int64]failoverAck, len(acks))
	epochs := make(map[uint64]bool)
	for _, a := range acks {
		epochs[a.epoch] = true
		if prev, ok := bySeq[a.seq]; ok && (prev.nodeID != a.nodeID || prev.val != a.val) {
			t.Fatalf("dual-epoch ack at seq %d: epoch %d node %d %q vs epoch %d node %d %q",
				a.seq, prev.epoch, prev.nodeID, prev.val, a.epoch, a.nodeID, a.val)
		}
		bySeq[a.seq] = a
	}

	// Zero acked-fact loss: the last acker is the final leader; its
	// recovered store must hold every acknowledged fact with its exact
	// payload, across every epoch of the run.
	last := acks[len(acks)-1]
	st, err := persist.Open(failoverDir(base, last.idx), persist.Options{})
	if err != nil {
		t.Fatalf("final leader (member%d) recovery failed: %v", last.idx, err)
	}
	defer st.Close()
	g := st.Graph()
	for _, a := range acks {
		n := g.Node(pg.NodeID(a.nodeID))
		if n == nil || n.Props.Map()["val"] != a.val {
			t.Fatalf("acked fact lost: epoch %d seq %d node %d %q absent from final leader member%d (node %+v)",
				a.epoch, a.seq, a.nodeID, a.val, last.idx, n)
		}
	}
	t.Logf("survived %d leader kills: %d facts acked across %d epochs, final leader member%d at seq %d epoch %d, worst write outage %v",
		cycles, len(acks), len(epochs), last.idx, st.Seq(), st.Epoch(), worstOutage)
}

// waitMoreAcks polls the ack file until it holds more than have complete
// lines, failing the test after the deadline.
func waitMoreAcks(t *testing.T, path string, have int, within time.Duration, what string) []failoverAck {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		acks := readFailoverAcks(path)
		if len(acks) > have {
			return acks
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout (%v): %s", within, what)
	return nil
}

// readFailoverAcks parses the shared ack file. Lines are single O_APPEND
// writes, so each is complete or absent; malformed lines are skipped.
func readFailoverAcks(path string) []failoverAck {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var acks []failoverAck
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 5 {
			continue
		}
		idx, err1 := strconv.Atoi(fields[0])
		epoch, err2 := strconv.ParseUint(fields[1], 10, 64)
		seq, err3 := strconv.ParseInt(fields[2], 10, 64)
		nodeID, err4 := strconv.ParseInt(fields[3], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			continue
		}
		acks = append(acks, failoverAck{idx: idx, epoch: epoch, seq: seq, nodeID: nodeID, val: fields[4]})
	}
	return acks
}

// TestReplFailoverChild is the re-executed member body. Under normal
// `go test` it skips.
func TestReplFailoverChild(t *testing.T) {
	idxStr := os.Getenv(replFailoverIdxEnv)
	if idxStr == "" {
		t.Skip("failover-harness child; run via TestReplicationFailoverLoop")
	}
	die := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "failover child %s: "+format+"\n", append([]any{idxStr}, args...)...)
		os.Exit(code)
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		die(replFailoverExitInternal, "bad index: %v", err)
	}
	runFailoverMember(idx, os.Getenv(replFailoverBaseEnv), die)
}

func runFailoverMember(idx int, base string, die func(int, string, ...any)) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die(replFailoverExitInternal, "listen: %v", err)
	}
	logF, err := os.OpenFile(failoverLogPath(base), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		die(replFailoverExitInternal, "opening debug log: %v", err)
	}
	logger := slog.New(slog.NewTextHandler(logF, &slog.HandlerOptions{Level: slog.LevelDebug})).
		With("member", idx, "pid", os.Getpid())
	node, err := OpenNode(failoverDir(base, idx), NodeOptions{
		Self:   ln.Addr().String(),
		API:    "api-" + ln.Addr().String(),
		Logger: logger,
		PeersFunc: func() []string {
			addrs := make([]string, 0, 3)
			for i := 0; i < 3; i++ {
				if b, err := os.ReadFile(failoverAddrPath(base, i)); err == nil && len(b) > 0 {
					addrs = append(addrs, string(bytes.TrimSpace(b)))
				}
			}
			return addrs
		},
		Lease:     replFailoverLease,
		SyncEvery: 2 * time.Millisecond,
	})
	if err != nil {
		die(replFailoverExitOpen, "recovery refused: %v", err)
	}
	logger.Info("recovered", "seq", node.Store().Seq(),
		"epoch", node.Store().Epoch(), "lastEpoch", node.Store().LastEpoch())

	// Publish this life's address atomically; peers re-read it per dial.
	tmp := failoverAddrPath(base, idx) + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		die(replFailoverExitInternal, "writing addr: %v", err)
	}
	if err := os.Rename(tmp, failoverAddrPath(base, idx)); err != nil {
		die(replFailoverExitInternal, "publishing addr: %v", err)
	}

	ackF, err := os.OpenFile(failoverAckPath(base), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		die(replFailoverExitInternal, "opening ack file: %v", err)
	}

	ctx := context.Background()
	go node.Serve(ctx, ln)
	go node.Run(ctx)

	// Writer loop: whenever this member holds the lease, append a fact and
	// run the group write barrier. A fact is acknowledged — one atomic line
	// in the shared ack file — if and only if Commit returned nil. Commit
	// errors (deposed mid-write, quorum loss) are NOT acks; the fact either
	// replicates under a later leader or dies as a truncated divergent
	// tail, and the harness accepts both.
	pid := os.Getpid()
	for i := 0; ; i++ {
		if !node.IsLeader() {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		val := fmt.Sprintf("m%d-p%d-i%d", idx, pid, i)
		id, seq, err := addCompany(node, pg.Properties{"val": val})
		if err != nil { // a frame of a newer leader landed first
			continue
		}
		epoch := node.Store().Epoch()
		cctx, cancel := context.WithTimeout(ctx, 2*replFailoverLease)
		err = node.Commit(cctx)
		cancel()
		if err != nil {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if _, err := fmt.Fprintf(ackF, "%d %d %d %d %s\n", idx, epoch, seq, int64(id), val); err != nil {
			die(replFailoverExitInternal, "ack write: %v", err)
		}
	}
}
