package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"vadalink/internal/pg"
)

// The crash-recovery harness: a child process (this test binary re-executed
// with -test.run=TestCrashChild) opens the store, verifies every fact it
// acknowledged in previous lives is still present, then keeps appending and
// acknowledging until the parent SIGKILLs it mid-write. Twenty consecutive
// kill/restart cycles must show zero acknowledged-fact loss and zero
// corrupt-state loads.
//
// The acknowledgement protocol is the durability contract under test: the
// child writes "seq N" to the ack file only AFTER Store.Sync returns for the
// mutation that created fact N. kill -9 loses user-space state but not what
// reached the page cache, so any acked-but-missing fact on restart is a WAL
// ordering bug, not test noise.

const (
	crashDirEnv = "PERSIST_CRASH_DIR"
	crashAckEnv = "PERSIST_CRASH_ACK"

	// Child exit codes, decoded by the parent.
	crashExitOpenFailed = 2 // recovery refused or errored: corrupt-state load
	crashExitFactLost   = 3 // an acknowledged fact is missing after recovery
	crashExitInternal   = 4 // harness plumbing failure
)

func TestCrashRecoveryLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("crash harness skipped in -short")
	}
	dir := t.TempDir()
	ack := dir + "/acked.txt"

	const cycles = 20
	for i := 0; i < cycles; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrashChild$", "-test.v")
		cmd.Env = append(os.Environ(), crashDirEnv+"="+dir+"/data", crashAckEnv+"="+ack)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatalf("cycle %d: starting child: %v", i, err)
		}
		// Vary the kill point so deaths land during appends, syncs and
		// snapshot rotations alike.
		time.Sleep(time.Duration(30+i*17%90) * time.Millisecond)
		_ = cmd.Process.Kill()
		err := cmd.Wait()
		if ee, ok := err.(*exec.ExitError); ok && ee.ExitCode() >= 0 {
			// The child exited on its own before the kill: it detected a
			// violation (or tripped on plumbing). Its output says which.
			t.Fatalf("cycle %d: child exited with code %d before kill:\n%s", i, ee.ExitCode(), out.String())
		}
	}

	// Final verification in-process: the store must open cleanly and hold
	// every fact any child life acknowledged.
	acked := readAckedSeqs(t, ack)
	s, err := Open(dir+"/data", Options{})
	if err != nil {
		t.Fatalf("final recovery failed after %d kills: %v", cycles, err)
	}
	defer s.Close()
	g := s.Graph()
	for _, seq := range acked {
		n := g.Node(pg.NodeID(seq - 1))
		if n == nil || n.Props.Map()["seq"] != seq {
			t.Fatalf("acknowledged fact %d lost (node: %+v) after %d kills", seq, n, cycles)
		}
	}
	rec := s.Recovery()
	t.Logf("survived %d kills: %d facts acked, recovered %d nodes / %d edges in %dms (snapshot gen %d, %d wal records, %d torn tails)",
		cycles, len(acked), rec.Nodes, rec.Edges, rec.DurationMillis, rec.SnapshotGen, rec.RecordsReplayed, rec.TornTails)
	if len(acked) == 0 {
		t.Fatal("harness never acknowledged a fact; the loop tested nothing")
	}
}

// TestCrashChild is the re-executed body. Under normal `go test` it skips.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashDirEnv)
	if dir == "" {
		t.Skip("crash-harness child; run via TestCrashRecoveryLoop")
	}
	ackPath := os.Getenv(crashAckEnv)

	die := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "crash child: "+format+"\n", args...)
		os.Exit(code)
	}

	acked := readAckedSeqsFile(ackPath)
	s, err := Open(dir, Options{SyncEvery: 2 * time.Millisecond})
	if err != nil {
		die(crashExitOpenFailed, "recovery refused: %v", err)
	}
	g := s.Graph()
	// Every fact acknowledged by a previous life must have survived.
	for _, seq := range acked {
		n := g.Node(pg.NodeID(seq - 1))
		if n == nil || n.Props.Map()["seq"] != seq {
			die(crashExitFactLost, "acked fact %d missing after recovery (node %+v)", seq, n)
		}
	}

	ackF, err := os.OpenFile(ackPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		die(crashExitInternal, "opening ack file: %v", err)
	}

	// Append, sync, acknowledge — forever, until the parent kills us. Nodes
	// carry their sequence number; IDs are assigned densely so fact N lives
	// at node N-1 in every life. Edge churn and periodic snapshots run
	// alongside so the kill can land inside rotation too.
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
		if err := s.Sync(); err != nil {
			die(crashExitInternal, "sync: %v", err)
		}
		if _, err := fmt.Fprintf(ackF, "%d\n", seq); err != nil {
			die(crashExitInternal, "ack write: %v", err)
		}
		if seq%101 == 0 {
			if _, err := s.Snapshot(); err != nil {
				die(crashExitInternal, "snapshot: %v", err)
			}
		}
	}
}

func readAckedSeqs(t *testing.T, path string) []int64 {
	t.Helper()
	return readAckedSeqsFile(path)
}

// readAckedSeqsFile parses the ack file: one acknowledged sequence number per
// line. A torn final line (the child died mid-write) is ignored — the ack
// never completed, so the fact was never promised.
func readAckedSeqsFile(path string) []int64 {
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
