package persist

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vadalink/internal/pg"
)

// Record builders for tests: one per wire op.

func addNodeRec(id pg.NodeID, label pg.Label, props pg.Properties) Record {
	return Record{Mutation: pg.Mutation{Kind: pg.MutAddNode,
		Node: &pg.Node{ID: id, Label: label, Props: props}}}
}

func addEdgeRec(id pg.EdgeID, label pg.Label, from, to pg.NodeID, props pg.Properties) Record {
	return Record{Mutation: pg.Mutation{Kind: pg.MutAddEdge,
		Edge: &pg.Edge{ID: id, Label: label, From: from, To: to, Props: props}}}
}

func removeEdgeRec(id pg.EdgeID) Record {
	return Record{Mutation: pg.Mutation{Kind: pg.MutRemoveEdge, Edge: &pg.Edge{ID: id}}}
}

func removeNodeRec(id pg.NodeID) Record {
	return Record{Mutation: pg.Mutation{Kind: pg.MutRemoveNode, Node: &pg.Node{ID: id}}}
}

func weightRec(id pg.EdgeID, w float64) Record {
	return Record{Mutation: pg.Mutation{Kind: pg.MutSetEdgeWeight,
		Edge: &pg.Edge{ID: id, Props: pg.Properties{pg.WeightProp: w}}}}
}

func epochRec(epoch uint64, start int64) Record {
	return Record{Epoch: EpochMark{Epoch: epoch, StartSeq: start}}
}

// intOnWire is the "every property tag" record as it decodes.
var intOnWire = addNodeRec(42, "Person", pg.Properties{
	"name": "Ada", "share": 0.5, "age": int64(-3), "pep": true, "n": int64(9)})

// goldenRecords pins the WAL wire format: each payload was captured from
// the encoder before Record carried a pg.Mutation, and must still encode
// from its record and decode back to it byte for byte. A change here is a
// format change, which breaks every log already on disk.
var goldenRecords = []struct {
	name string
	rec  Record
	// decoded is what the payload decodes to when that differs from rec
	// (an int property goes on the wire as int64).
	decoded *Record
	hex     string
}{
	{name: "add node", rec: addNodeRec(0, "Company", pg.Properties{"name": "ACME"}),
		hex: "010007436f6d70616e7901046e616d65730441434d45"},
	{name: "add edge", rec: addEdgeRec(3, "Shareholding", 1, 2, pg.Properties{"w": 0.51}),
		hex: "02060c5368617265686f6c64696e6702040101776652b81e85eb51e03f"},
	{name: "remove edge", rec: removeEdgeRec(3), hex: "0306"},
	{name: "set edge weight", rec: weightRec(3, 0.25), hex: "0406000000000000d03f"},
	{name: "remove node", rec: removeNodeRec(2), hex: "0504"},
	{name: "epoch", rec: epochRec(7, 3), hex: "060e06"},
	{name: "every property tag",
		rec: addNodeRec(42, "Person", pg.Properties{
			"name": "Ada", "share": 0.5, "age": int64(-3), "pep": true, "n": int(9)}),
		decoded: &intOnWire,
		hex:     "015406506572736f6e05036167656905016e6912046e616d65730341646103706570620105736861726566000000000000e03f"},
	{name: "large and negative ids", rec: addEdgeRec(1<<40, "Control", -1, 1<<62, nil),
		hex: "0280808080804007436f6e74726f6c018080808080808080800100"},
	{name: "negative id", rec: removeNodeRec(-5), hex: "0509"},
}

func TestWALGoldenPayloads(t *testing.T) {
	for _, c := range goldenRecords {
		want, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendRecord(nil, c.rec)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encodes to %x, pinned %s", c.name, got, c.hex)
		}
		dec, err := decodeRecord(want)
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		wantDec := c.rec
		if c.decoded != nil {
			wantDec = *c.decoded
		}
		if !reflect.DeepEqual(dec, wantDec) {
			t.Errorf("%s: decodes to %+v, want %+v", c.name, dec, wantDec)
		}
	}
}

// writeGoldenDir builds the store checked in under testdata/datadir: an
// imported graph (snapshot generation 1), then a WAL holding every mutation
// kind and an epoch mark. Only the public graph and store API is used, so
// any version of the store writes the same log.
func writeGoldenDir(t *testing.T, dir string) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	p := g.AddNode(pg.LabelPerson, pg.Properties{"name": "P", "age": int64(51), "pep": true})
	g.MustAddEdgeWeighted(p, a, 0.6)
	if err := s.Import(g); err != nil {
		t.Fatal(err)
	}
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C", "capital": 1.5e6})
	e, err := g.AddShare(a, c, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SetEdgeWeight(e, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordEpoch(EpochMark{Epoch: 3, StartSeq: s.Seq()}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddShare(b, c, 0.2); err != nil {
		t.Fatal(err)
	}
	g.RemoveEdge(e)
	g.RemoveNode(g.AddNode(pg.LabelCompany, nil))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

const (
	goldenWAL  = "wal-0000000000000001.log"
	goldenSnap = "snap-0000000000000001.vsnap"
)

// copyGoldenDir copies the checked-in data dir testdata/<name> into a fresh
// temp dir and returns it.
func copyGoldenDir(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, file := range []string{goldenSnap, goldenWAL} {
		data, err := os.ReadFile(filepath.Join("testdata", name, file))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// The checked-in data dirs: testdata/datadir3 holds the WAL written before
// Record carried a pg.Mutation and a VKGSNAP3 snapshot, and recovers to the
// state it was written with. testdata/datadir holds the same WAL beside the
// VKGSNAP2 (gob) snapshot earlier builds wrote: Open refuses it with an error
// naming the format and leaves both files in place.
func TestOpenGoldenDataDir(t *testing.T) {
	dir := copyGoldenDir(t, "datadir3")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Graph()
	rec := s.Recovery()
	if g.NumNodes() != 4 || g.NumEdges() != 2 || s.Seq() != 11 || s.Epoch() != 3 ||
		rec.SnapshotGen != 1 || rec.RecordsReplayed != 7 {
		t.Fatalf("recovered %d nodes, %d edges, seq %d, epoch %d, gen %d, %d records; want 4, 2, 11, 3, 1, 7",
			g.NumNodes(), g.NumEdges(), s.Seq(), s.Epoch(), rec.SnapshotGen, rec.RecordsReplayed)
	}
	if marks := s.EpochMarks(); len(marks) != 1 || marks[0] != (EpochMark{Epoch: 3, StartSeq: 7}) {
		t.Fatalf("epoch marks %v, want [{3 7}]", marks)
	}
	if n := g.Node(3); n == nil || n.Props["capital"] != 1.5e6 {
		t.Fatalf("node 3 = %+v, want company C", n)
	}
	if e := g.Edge(2); e == nil || e.From != 1 || e.To != 3 {
		t.Fatalf("edge 2 = %+v, want B→C", e)
	}
	if g.Edge(1) != nil || g.Node(4) != nil || g.WeightEdits() != 1 {
		t.Fatal("a removal or the weight edit did not replay")
	}

	wal3, err := os.ReadFile(filepath.Join("testdata", "datadir3", goldenWAL))
	if err != nil {
		t.Fatal(err)
	}
	old := copyGoldenDir(t, "datadir")
	wal2, err := os.ReadFile(filepath.Join(old, goldenWAL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wal2, wal3) {
		t.Fatal("the two checked-in data dirs hold different WALs")
	}
	if s, err := Open(old, Options{}); !errors.Is(err, errOldSnapshot) || !strings.Contains(err.Error(), "VKGSNAP2") {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open of a VKGSNAP2 data dir: err %v, want the old-format error naming VKGSNAP2", err)
	}
	for _, file := range []string{goldenSnap, goldenWAL} {
		got, err := os.ReadFile(filepath.Join(old, file))
		want, _ := os.ReadFile(filepath.Join("testdata", "datadir", file))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("refused Open moved %s: %v", file, err)
		}
	}
}

// A store written today cuts exactly the bytes of the checked-in VKGSNAP3
// snapshot.
func TestSnapshotBytesMatchGoldenDataDir(t *testing.T) {
	dir := t.TempDir()
	writeGoldenDir(t, dir)
	got, err := os.ReadFile(filepath.Join(dir, goldenSnap))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "datadir3", goldenSnap))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot differs from the checked-in one:\n got %x\nwant %x", got, want)
	}
}

// A store written today logs exactly the bytes of the checked-in WAL.
func TestWALBytesMatchGoldenDataDir(t *testing.T) {
	dir := t.TempDir()
	writeGoldenDir(t, dir)
	got, err := os.ReadFile(filepath.Join(dir, goldenWAL))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "datadir", goldenWAL))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL differs from the checked-in one:\n got %x\nwant %x", got, want)
	}
}

// A record the graph refuses reaches neither the WAL nor the sequence
// number: on a store-backed graph each refusal leaves Seq, the log and the
// graph as they were.
func TestRefusedRecordLeavesStore(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	g := s.Graph()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	g.MustAddEdgeWeighted(a, b, 0.5)
	refused := []Record{
		addNodeRec(5, "Company", nil),
		addEdgeRec(4, "Shareholding", a, b, nil),
		removeEdgeRec(9),
		removeNodeRec(a),
		{Mutation: pg.Mutation{Kind: pg.MutSetEdgeWeight, Edge: &pg.Edge{ID: 0}}},
	}
	seq, appends := s.Seq(), s.Stats().WALAppends
	for _, r := range refused {
		if _, err := g.Replay(r.Mutation); err == nil {
			t.Errorf("replay of %+v accepted", r.Mutation)
		}
	}
	if s.Seq() != seq || s.Stats().WALAppends != appends || g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("refusals moved the store: seq %d→%d, appends %d→%d, %d nodes, %d edges",
			seq, s.Seq(), appends, s.Stats().WALAppends, g.NumNodes(), g.NumEdges())
	}
}
