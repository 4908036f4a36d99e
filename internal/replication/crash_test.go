package replication

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
)

// The replication crash harness: a leader child and two follower children —
// separate processes, SIGKILLed in an interleaved pattern for twenty cycles
// while the leader keeps acknowledging facts. The durability and
// convergence contract under test:
//
//   - a fact acknowledged by ANY leader life (acked only after Store.Sync)
//     must exist in the final leader state — leader kill -9 loses nothing
//     acknowledged;
//   - both followers, each having been kill -9'd mid-apply multiple times
//     and having watched the leader die under them, must converge to the
//     leader's exact graph from their own recovered positions.
//
// The leader's address changes on every restart (ephemeral port), published
// through an atomically-renamed addr file; followers re-resolve it on every
// reconnect. That makes leader restart indistinguishable from a long
// network partition, which is the point.

const (
	replCrashRoleEnv = "REPL_CRASH_ROLE" // "leader" or "follower"
	replCrashDirEnv  = "REPL_CRASH_DIR"  // this process's data dir
	replCrashAckEnv  = "REPL_CRASH_ACK"  // leader only: ack file
	replCrashAddrEnv = "REPL_CRASH_ADDR" // addr file (leader writes, follower reads)

	replExitOpenFailed = 2
	replExitFactLost   = 3
	replExitInternal   = 4
)

// crashChild is one managed child process.
type crashChild struct {
	name string
	cmd  *exec.Cmd
	out  *bytes.Buffer
	done chan struct{} // closed once the child is reaped; kill is idempotent
}

func startCrashChild(t *testing.T, name string, env []string) *crashChild {
	t.Helper()
	return startCrashChildCmd(t, name, "^TestReplCrashChild$", env)
}

// startCrashChildCmd re-execs the test binary as one child of a crash
// harness, constrained to the given -test.run pattern.
func startCrashChildCmd(t *testing.T, name, runPattern string, env []string) *crashChild {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run="+runPattern, "-test.v")
	cmd.Env = append(os.Environ(), env...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s child: %v", name, err)
	}
	c := &crashChild{name: name, cmd: cmd, out: &out, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	return c
}

// kill SIGKILLs the child and reaps it. Safe to call more than once.
func (c *crashChild) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// checkAlive fails the test if the child exited on its own — a child only
// self-exits when it detected a contract violation (or plumbing broke).
func (c *crashChild) checkAlive(t *testing.T) {
	t.Helper()
	select {
	case <-c.done:
		t.Fatalf("%s child exited on its own (code %d):\n%s",
			c.name, c.cmd.ProcessState.ExitCode(), c.out.String())
	default:
	}
}

func TestReplicationCrashLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("replication crash harness skipped in -short")
	}
	base := t.TempDir()
	leaderDir := filepath.Join(base, "leader")
	f1Dir := filepath.Join(base, "f1")
	f2Dir := filepath.Join(base, "f2")
	ackPath := filepath.Join(base, "acked.txt")
	addrPath := filepath.Join(base, "leader.addr")

	leaderEnv := []string{
		replCrashRoleEnv + "=leader",
		replCrashDirEnv + "=" + leaderDir,
		replCrashAckEnv + "=" + ackPath,
		replCrashAddrEnv + "=" + addrPath,
	}
	followerEnv := func(dir string) []string {
		return []string{
			replCrashRoleEnv + "=follower",
			replCrashDirEnv + "=" + dir,
			replCrashAddrEnv + "=" + addrPath,
		}
	}

	children := map[string]*crashChild{
		"leader": startCrashChild(t, "leader", leaderEnv),
		"f1":     startCrashChild(t, "f1", followerEnv(f1Dir)),
		"f2":     startCrashChild(t, "f2", followerEnv(f2Dir)),
	}
	restartEnv := map[string][]string{
		"leader": leaderEnv, "f1": followerEnv(f1Dir), "f2": followerEnv(f2Dir),
	}
	defer func() {
		for _, c := range children {
			c.kill()
		}
	}()

	// Interleave leader and follower kills: every third cycle the leader
	// dies mid-ack; the other cycles a follower dies mid-apply. Windows
	// vary so deaths land during appends, rotations, bootstraps and
	// reconnects alike.
	const cycles = 20
	victims := []string{"leader", "f1", "f2"}
	for i := 0; i < cycles; i++ {
		time.Sleep(time.Duration(30+i*17%90) * time.Millisecond)
		for _, c := range children {
			c.checkAlive(t)
		}
		name := victims[i%3]
		children[name].kill()
		children[name] = startCrashChild(t, name, restartEnv[name])
	}
	time.Sleep(100 * time.Millisecond)
	for _, c := range children {
		c.checkAlive(t)
		c.kill()
	}

	// Phase 1: the leader's durable state holds every acknowledged fact.
	acked := readCrashAcks(ackPath)
	if len(acked) == 0 {
		t.Fatal("harness never acknowledged a fact; the loop tested nothing")
	}
	st, err := persist.Open(leaderDir, persist.Options{})
	if err != nil {
		t.Fatalf("final leader recovery failed after %d kills: %v", cycles, err)
	}
	defer st.Close()
	g := st.Graph()
	checkAckedFacts(t, "leader", g, acked)

	// Phase 2: serve the final leader state in-process and let both
	// followers — from their battle-scarred local stores — converge to it.
	ld := NewLeader(st, LeaderOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); ld.Serve(ctx, ln) }()
	defer func() { cancel(); <-serveDone }()

	want := st.Seq()
	for _, fd := range []struct {
		name string
		dir  string
	}{{"f1", f1Dir}, {"f2", f2Dir}} {
		fl, err := OpenFollower(fd.dir, FollowerOptions{
			Leader: ln.Addr().String(), Backoff: backoffFast(),
		})
		if err != nil {
			t.Fatalf("%s: recovery of crashed follower store failed: %v", fd.name, err)
		}
		fctx, fcancel := context.WithCancel(ctx)
		fdone := make(chan struct{})
		go func() { defer close(fdone); fl.Run(fctx) }()
		waitSeq(t, fl, want)
		sameFacts(t, g, fl.Graph())
		checkAckedFacts(t, fd.name, fl.Graph(), acked)
		stt := fl.Status()
		fcancel()
		<-fdone
		fl.Close()
		t.Logf("%s converged at seq %d (reconnect sessions and bootstraps across lives not tracked; final-life frames applied: %d, bad frames: %d)",
			fd.name, want, stt.FramesApplied, stt.BadFrames)
	}
	t.Logf("survived %d interleaved kills: %d facts acked, leader at seq %d, both followers converged",
		cycles, len(acked), want)
}

// checkAckedFacts asserts fact N (node N-1 carrying props["seq"]=N) exists
// in g for every acknowledged N.
func checkAckedFacts(t *testing.T, who string, g *pg.Graph, acked []int64) {
	t.Helper()
	for _, seq := range acked {
		n := g.Node(pg.NodeID(seq - 1))
		if n == nil || n.Props.Map()["seq"] != seq {
			t.Fatalf("%s: acknowledged fact %d lost (node %+v)", who, seq, n)
		}
	}
}

// TestReplCrashChild is the re-executed body for both roles. Under normal
// `go test` it skips.
func TestReplCrashChild(t *testing.T) {
	role := os.Getenv(replCrashRoleEnv)
	if role == "" {
		t.Skip("crash-harness child; run via TestReplicationCrashLoop")
	}
	die := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "repl crash child (%s): "+format+"\n", append([]any{role}, args...)...)
		os.Exit(code)
	}
	dir := os.Getenv(replCrashDirEnv)
	addrPath := os.Getenv(replCrashAddrEnv)
	switch role {
	case "leader":
		runCrashLeader(dir, addrPath, os.Getenv(replCrashAckEnv), die)
	case "follower":
		runCrashFollower(dir, addrPath, die)
	default:
		die(replExitInternal, "unknown role %q", role)
	}
}

func runCrashLeader(dir, addrPath, ackPath string, die func(int, string, ...any)) {
	acked := readCrashAcks(ackPath)
	st, err := persist.Open(dir, persist.Options{SyncEvery: 2 * time.Millisecond})
	if err != nil {
		die(replExitOpenFailed, "recovery refused: %v", err)
	}
	g := st.Graph()
	for _, seq := range acked {
		n := g.Node(pg.NodeID(seq - 1))
		if n == nil || n.Props.Map()["seq"] != seq {
			die(replExitFactLost, "acked fact %d missing after recovery (node %+v)", seq, n)
		}
	}

	ld := NewLeader(st, LeaderOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		die(replExitInternal, "listen: %v", err)
	}
	go ld.Serve(context.Background(), ln)
	// Publish the new address atomically: followers must never read a
	// half-written line.
	tmp := addrPath + ".tmp"
	if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
		die(replExitInternal, "writing addr: %v", err)
	}
	if err := os.Rename(tmp, addrPath); err != nil {
		die(replExitInternal, "publishing addr: %v", err)
	}

	ackF, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		die(replExitInternal, "opening ack file: %v", err)
	}
	// Append, sync, acknowledge — forever, until the parent kills us. Same
	// fact scheme as the persist harness: fact N is node N-1 carrying its
	// number, with edge churn and periodic rotations (which also force
	// followers through the snapshot re-bootstrap path when they lag a
	// whole generation behind).
	seq := int64(g.NumNodes())
	for {
		seq++
		id := g.AddNode(pg.LabelCompany, pg.Properties{"seq": seq})
		if seq%3 == 0 && id > 0 {
			e := g.MustAddEdgeWeighted(id-1, id, 0.5)
			if seq%9 == 0 {
				g.RemoveEdge(e)
			}
		}
		if err := st.Sync(); err != nil {
			die(replExitInternal, "sync: %v", err)
		}
		if _, err := fmt.Fprintf(ackF, "%d\n", seq); err != nil {
			die(replExitInternal, "ack write: %v", err)
		}
		if seq%101 == 0 {
			if _, err := st.Snapshot(); err != nil {
				die(replExitInternal, "snapshot: %v", err)
			}
		}
	}
}

func runCrashFollower(dir, addrPath string, die func(int, string, ...any)) {
	fl, err := OpenFollower(dir, FollowerOptions{
		leaderFunc: func() (string, error) {
			b, err := os.ReadFile(addrPath)
			if err != nil || len(b) == 0 {
				return "", fmt.Errorf("leader address not published yet")
			}
			return string(bytes.TrimSpace(b)), nil
		},
		SyncEvery: 2 * time.Millisecond,
		Backoff:   backoffFast(),
	})
	if err != nil {
		die(replExitOpenFailed, "follower recovery refused: %v", err)
	}
	// Tail until killed. Any session error is a reconnect, never an exit.
	fl.Run(context.Background())
}

// readCrashAcks parses the ack file (one acknowledged fact number per
// line); a torn final line means the ack never completed and is ignored.
func readCrashAcks(path string) []int64 {
	f, err := os.Open(path)
	if err != nil {
		return nil
	}
	defer f.Close()
	var seqs []int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		n, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	return seqs
}
