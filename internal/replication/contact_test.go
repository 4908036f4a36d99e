package replication

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"vadalink/internal/persist"
	"vadalink/internal/pg"
)

// wireMsg is one message a scripted leader sends.
type wireMsg struct {
	typ     byte
	payload []byte
}

// scriptedLeader accepts one follower session per script it is handed on
// the returned channel: it reads the request line, sends each message in
// turn and waits for the ack that follows it, then hangs up. Each session's
// outcome arrives on done.
func scriptedLeader(t *testing.T) (addr string, scripts chan<- []wireMsg, done <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// One outcome is ever outstanding; the buffer lets the goroutine finish
	// a session the test no longer waits for, and exit on the closed in.
	in, out := make(chan []wireMsg), make(chan error, 1)
	t.Cleanup(func() { close(in); ln.Close() })
	go func() {
		for script := range in {
			out <- func() error {
				conn, err := ln.Accept()
				if err != nil {
					return err
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				br := bufio.NewReader(conn)
				if _, err := br.ReadBytes('\n'); err != nil {
					return fmt.Errorf("reading the request: %w", err)
				}
				for _, m := range script {
					if _, err := conn.Write(encodeMsg(m.typ, m.payload)); err != nil {
						return err
					}
					if _, err := br.ReadBytes('\n'); err != nil {
						return fmt.Errorf("waiting for the ack of %q: %w", m.typ, err)
					}
				}
				return nil
			}()
		}
	}()
	return ln.Addr().String(), in, out
}

// TestOnlyProgressRefreshesLeaderContact: a leader that answers the hello,
// re-ships an epoch mark the follower already holds and stalls, session
// after session, never refreshes the follower's leader contact, so the
// follower's lease runs out and it stops vetoing elections. A heartbeat, a
// frame that applies a mutation and a mark that raises the local epoch each
// refresh it.
func TestOnlyProgressRefreshesLeaderContact(t *testing.T) {
	// Real WAL frames: the mark of epoch 1, one node, the mark of epoch 2.
	src, err := persist.Open(t.TempDir(), persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	mark1 := persist.EpochMark{Epoch: 1}
	if err := src.RecordEpoch(mark1); err != nil {
		t.Fatal(err)
	}
	src.Graph().AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	if err := src.RecordEpoch(persist.EpochMark{Epoch: 2, StartSeq: 1}); err != nil {
		t.Fatal(err)
	}
	gen, _, _ := src.Position()
	log, err := os.ReadFile(src.WALFile(gen))
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for n, ok := persist.NextFrame(log); ok; n, ok = persist.NextFrame(log) {
		frames, log = append(frames, log[:n]), log[n:]
	}
	if len(frames) != 3 {
		t.Fatalf("%d frames in the source WAL, want 3", len(frames))
	}
	markFrame, addFrame, raiseFrame := frames[0], frames[1], frames[2]

	encode := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	helloAt := func(seq int64) wireMsg {
		return wireMsg{msgHello, encode(hello{From: seq, LeaderSeq: seq, Epoch: 1, Marks: []persist.EpochMark{mark1}})}
	}
	addr, scripts, done := scriptedLeader(t)
	fl := testFollower(t, addr, FollowerOptions{Backoff: backoffFast()})
	session := func(what string, script ...wireMsg) {
		t.Helper()
		scripts <- script
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	// The mute leader: the hello carries mark 1, which the follower adopts,
	// and the re-shipped mark 1 raises nothing.
	for i := 0; i < 5; i++ {
		session("re-shipped mark", helloAt(0), wireMsg{msgFrame, markFrame})
		if last := fl.lastContactAt(); !last.IsZero() {
			t.Fatalf("session %d: a hello and a re-shipped mark stamped leader contact at %v", i, last)
		}
	}
	if got := fl.Store().Epoch(); got != 1 {
		t.Fatalf("follower epoch %d after the hellos, want 1", got)
	}

	session("heartbeat", helloAt(0), wireMsg{msgHeartbeat, encode(heartbeat{Epoch: 1})})
	if fl.lastContactAt().IsZero() {
		t.Fatal("a heartbeat did not stamp leader contact")
	}

	fl.lastContact.Store(0)
	session("mutation", helloAt(0), wireMsg{msgFrame, addFrame})
	if fl.lastContactAt().IsZero() || fl.Store().Seq() != 1 {
		t.Fatalf("an applied frame (seq now %d) did not stamp leader contact", fl.Store().Seq())
	}

	fl.lastContact.Store(0)
	session("raising mark", helloAt(1), wireMsg{msgFrame, raiseFrame})
	if fl.lastContactAt().IsZero() || fl.Store().Epoch() != 2 {
		t.Fatalf("a mark that raised the epoch (now %d) did not stamp leader contact", fl.Store().Epoch())
	}
}
