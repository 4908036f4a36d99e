package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vadalink/internal/pg"
)

func encodeFrame(t *testing.T, r Record) []byte {
	t.Helper()
	payload, err := appendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

func TestRecordCodecRoundTrip(t *testing.T) {
	cases := []Record{
		addNodeRec(0, "Company", pg.Properties{"name": "ACME"}),
		addNodeRec(1<<40, "Person",
			pg.Properties{"name": "X", "age": int64(-3), "pep": false, "w": 0.25}),
		addNodeRec(2, "", nil),
		addEdgeRec(7, "Shareholding", 1, 2, pg.Properties{"weight": 0.51}),
		removeEdgeRec(7),
	}
	for _, want := range cases {
		buf, err := appendRecord(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		// int properties are canonicalised to int64 on the wire.
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestRecordEncodeRejectsUnloggableProp: a property the WAL cannot log
// never reaches it. A slice value is refused where it enters the graph, so
// no element holds one and no mutation carrying one is fired to the log.
func TestRecordEncodeRejectsUnloggableProp(t *testing.T) {
	bad := pg.Properties{"bad": []string{"not", "loggable"}}
	if _, err := pg.NewRecord(bad); err == nil {
		t.Fatal("slice-valued property accepted")
	}
	g := pg.New()
	var logged [][]byte
	g.SetMutationHook(func(m pg.Mutation) {
		buf, err := appendRecord(nil, Record{Mutation: m})
		if err != nil {
			t.Fatal(err)
		}
		logged = append(logged, buf)
	})
	a := g.AddNode("X", nil)
	if _, err := g.AddEdge("X", a, a, bad); err == nil {
		t.Fatal("slice-valued property added silently")
	}
	if len(logged) != 1 || g.NumEdges() != 0 {
		t.Fatalf("%d records logged, %d edges, want the node's record alone", len(logged), g.NumEdges())
	}
}

func TestScanFramesCleanLog(t *testing.T) {
	var log []byte
	want := []Record{
		addNodeRec(0, "Company", pg.Properties{"name": "A"}),
		addEdgeRec(0, "Shareholding", 0, 0, pg.Properties{"weight": 1.0}),
		removeEdgeRec(0),
	}
	for _, r := range want {
		log = append(log, encodeFrame(t, r)...)
	}
	var got []Record
	goodLen, torn, err := scanFrames(log, func(p []byte) error {
		r, err := decodeRecord(p)
		got = append(got, r)
		return err
	})
	if err != nil || torn {
		t.Fatalf("clean log: torn=%v err=%v", torn, err)
	}
	if goodLen != len(log) {
		t.Errorf("goodLen %d != %d", goodLen, len(log))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scan returned %+v, want %+v", got, want)
	}
}

func TestScanFramesTornTails(t *testing.T) {
	full := encodeFrame(t, addNodeRec(0, "Company", nil))
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)-1] ^= 0x01
	huge := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(huge[0:4], maxFramePayload+1)

	cases := map[string][]byte{
		"short header":      append(append([]byte(nil), full...), 0x01, 0x02),
		"short payload":     append(append([]byte(nil), full...), full[:frameHeaderLen+1]...),
		"checksum mismatch": append(append([]byte(nil), full...), flipped...),
		"impossible length": append(append([]byte(nil), full...), huge...),
	}
	for name, log := range cases {
		goodLen, torn, err := scanFrames(log, nil)
		if err != nil {
			t.Errorf("%s: scan error %v", name, err)
		}
		if !torn {
			t.Errorf("%s: tail not reported torn", name)
		}
		if goodLen != len(full) {
			t.Errorf("%s: goodLen %d, want %d (the one valid frame)", name, goodLen, len(full))
		}
	}
}

func TestReplayWALTruncatesInPlace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0.log")
	full := encodeFrame(t, addNodeRec(0, "Company", nil))
	log := append(append([]byte(nil), full...), full[:5]...) // torn second frame
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	n, torn, err := replayWAL(path, func(Record) error { return nil })
	if err != nil || n != 1 || !torn {
		t.Fatalf("replay: n=%d torn=%v err=%v", n, torn, err)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(after, full) {
		t.Fatalf("file not truncated to the valid prefix: %d bytes, want %d", len(after), len(full))
	}
	// Missing file replays as empty.
	n, torn, err = replayWAL(filepath.Join(dir, "nope.log"), nil)
	if err != nil || n != 0 || torn {
		t.Fatalf("missing file: n=%d torn=%v err=%v", n, torn, err)
	}
}

func TestWALAppendSyncReopenAppend(t *testing.T) {
	// The append-only contract across restarts: records written in two
	// separate openWAL sessions all replay, in order.
	path := filepath.Join(t.TempDir(), "wal-0.log")
	w, err := openWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(addNodeRec(0, "A", nil)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := openWAL(path, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(addNodeRec(1, "B", nil)); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	var ids []pg.NodeID
	n, torn, err := replayWAL(path, func(r Record) error { ids = append(ids, r.Mutation.Node.ID); return nil })
	if err != nil || torn || n != 2 {
		t.Fatalf("replay: n=%d torn=%v err=%v", n, torn, err)
	}
	if ids[0] != 0 || ids[1] != 1 {
		t.Fatalf("replay order %v", ids)
	}
}
