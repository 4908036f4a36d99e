package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vadalink/internal/control"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

// encodeSnapshot is appendSnapshot for tests.
func encodeSnapshot(t testing.TB, g *pg.Graph, marks []EpochMark) []byte {
	t.Helper()
	data, err := appendSnapshot(nil, g, marks)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// roundTrip encodes g and decodes it again.
func roundTrip(t testing.TB, g *pg.Graph, marks []EpochMark) (*pg.Graph, []EpochMark) {
	t.Helper()
	got, gotMarks, err := DecodeSnapshotMarks(encodeSnapshot(t, g, marks))
	if err != nil {
		t.Fatal(err)
	}
	return got, gotMarks
}

// sameGraph reports how got differs from want — counters, sequence number,
// and every element's label, endpoints and properties — or "".
func sameGraph(got, want *pg.Graph) string {
	if got.Seq() != want.Seq() || got.NextNodeID() != want.NextNodeID() || got.NextEdgeID() != want.NextEdgeID() ||
		got.WeightEdits() != want.WeightEdits() || got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		return "counters differ"
	}
	for _, id := range want.Nodes() {
		if a, b := got.Node(id), want.Node(id); a == nil || !reflect.DeepEqual(*a, *b) {
			return "node differs"
		}
	}
	for _, id := range want.Edges() {
		if a, b := got.Edge(id), want.Edge(id); a == nil || !reflect.DeepEqual(*a, *b) {
			return "edge differs"
		}
	}
	return ""
}

// goldenSnapshotGraph has a node gap, an edge gap, a weight edit and every
// property tag.
func goldenSnapshotGraph() *pg.Graph {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A", "capital": 1.5, "employees": int64(12), "listed": true})
	p := g.AddNode(pg.LabelPerson, pg.Properties{"name": "P"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	e0 := g.MustAddEdgeWeighted(a, b, 0.5)
	g.MustAddEdgeWeighted(p, b, 0.3)
	g.MustAddEdgeWeighted(b, a, 0.2)
	if err := g.SetEdgeWeight(e0, 0.75); err != nil {
		panic(err)
	}
	g.RemoveNode(p) // removes edge 1 first
	return g
}

// goldenSnapshotHex pins the snapshot format, one line per part: magic,
// epoch header, weight edits, seq, then frames — node 0 (every property
// tag), node 1's placeholder add and removal, node 2, edge 0 (its weight
// edited), edge 1's placeholder self-loop on node 0 and its removal, edge 2
// — then the trailer. A change here is a format change, which breaks every
// snapshot already on disk.
const goldenSnapshotHex = "564b47534e415033" +
	"01000000" + "0200000000000000" + "0500000000000000" +
	"0100000000000000" +
	"0900000000000000" +
	"390000009dbd0f23" + "010007436f6d70616e7904076361706974616c66000000000000f83f09656d706c6f79656573691806" +
	"6c69737465646201046e616d65730141" +
	"0400000072b34dda" + "01020000" +
	"020000008efe724d" + "0502" +
	"13000000da379c81" + "010407436f6d70616e7901046e616d65730142" +
	"1d000000fb7856ef" + "02000c5368617265686f6c64696e67000401017766000000000000e83f" +
	"06000000110384fc" + "020200000000" +
	"02000000bcafbd24" + "0302" +
	"1d0000003e77f300" + "02040c5368617265686f6c64696e670400010177669a9999999999c93f" +
	"f800000000000000" + "fa8b30a2"

func TestSnapshotGoldenBytes(t *testing.T) {
	marks := []EpochMark{{Epoch: 2, StartSeq: 5}}
	got := encodeSnapshot(t, goldenSnapshotGraph(), marks)
	want, err := hex.DecodeString(goldenSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encodes to\n%x\npinned\n%s", got, goldenSnapshotHex)
	}
	dec, decMarks, err := DecodeSnapshotMarks(got)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameGraph(dec, goldenSnapshotGraph()); d != "" || !reflect.DeepEqual(decMarks, marks) {
		t.Fatalf("golden snapshot decodes wrong: %s, marks %v", d, decMarks)
	}
}

// One graph always encodes to one byte string: property maps are written in
// sorted key order, elements in ID order.
func TestSnapshotEncodingIsDeterministic(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 30, Companies: 20, Seed: 3})
	first := encodeSnapshot(t, it.Graph, nil)
	for i := 1; i < 20; i++ {
		if again := encodeSnapshot(t, it.Graph, nil); !bytes.Equal(again, first) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
}

// Seeded churn — share adds, reweights, edge and node removals, node adds —
// survives a round trip: counters, seq, weight edits and every element.
func TestSnapshotRoundTripProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 20, Companies: 15, Seed: seed}).Graph
		for c := 0; c < 60; c++ {
			o := pg.NewOverlay(g)
			graphgen.RandomCommit(rng, o)
			journal, _ := o.Journal()
			for _, m := range journal {
				if _, err := g.Replay(m); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		marks := []EpochMark{{Epoch: 1, StartSeq: 0}, {Epoch: uint64(seed) + 1, StartSeq: g.Seq()}}
		got, gotMarks := roundTrip(t, g, marks)
		if d := sameGraph(got, g); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		if !reflect.DeepEqual(gotMarks, marks) {
			t.Fatalf("seed %d: marks %v, want %v", seed, gotMarks, marks)
		}
	}
}

// Node 0 removed and edge IDs removed: the placeholder edges hang on node
// 0's placeholder, which is removed after the last edge.
func TestSnapshotNodeZeroGap(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, nil)
	b := g.AddNode(pg.LabelCompany, nil)
	c := g.AddNode(pg.LabelCompany, nil)
	g.MustAddEdgeWeighted(a, b, 0.5)
	g.MustAddEdgeWeighted(b, c, 0.5)
	g.MustAddEdgeWeighted(c, b, 0.4)
	g.RemoveNode(a)
	g.RemoveEdge(1)
	got, _ := roundTrip(t, g, nil)
	if d := sameGraph(got, g); d != "" {
		t.Fatal(d)
	}
	if got.NumNodes() != 2 || got.NumEdges() != 1 || len(got.Out(0))+len(got.In(0)) != 0 {
		t.Fatalf("got %d nodes, %d edges", got.NumNodes(), got.NumEdges())
	}
	// Every node and every edge removed.
	g.RemoveNode(b)
	g.RemoveNode(c)
	got, _ = roundTrip(t, g, nil)
	if d := sameGraph(got, g); d != "" || got.NumNodes() != 0 {
		t.Fatalf("emptied graph: %s", d)
	}
}

// reseal wraps payload in the snapshot envelope with a valid trailer.
func reseal(payload []byte) []byte {
	data := append([]byte(snapMagic), payload...)
	data = binary.LittleEndian.AppendUint64(data, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(data, crc32.Checksum(payload, crcTable))
}

// snapshotPayload builds a checksummed payload by hand: no marks, the given
// weight edits and seq, then the records as frames.
func snapshotPayload(t *testing.T, weightEdits, seq int64, recs ...Record) []byte {
	t.Helper()
	p := binary.LittleEndian.AppendUint32(nil, 0)
	p = binary.LittleEndian.AppendUint64(p, uint64(weightEdits))
	p = binary.LittleEndian.AppendUint64(p, uint64(seq))
	for _, r := range recs {
		var err error
		if p, err = appendFrame(p, r); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// A checksum-valid snapshot whose frames do not rebuild what its header
// says is refused.
func TestSnapshotRefusesInconsistentPayload(t *testing.T) {
	node0 := addNodeRec(0, "Company", nil)
	good := snapshotPayload(t, 0, 1, node0)
	if _, _, err := DecodeSnapshotMarks(reseal(good)); err != nil {
		t.Fatalf("hand-built snapshot refused: %v", err)
	}
	cases := map[string][]byte{
		"seq mismatch":     snapshotPayload(t, 0, 2, node0),
		"weight edits off": snapshotPayload(t, 3, 1, node0),
		"id out of order":  snapshotPayload(t, 0, 1, addNodeRec(1, "Company", nil)),
		"epoch record":     snapshotPayload(t, 0, 1, node0, epochRec(2, 1)),
		"torn frame":       good[:len(good)-1],
		"no seq":           good[:4+8],
		"no epoch header":  good[:3],
		"lying mark count": append([]byte{9, 0, 0, 0}, good[4:]...),
	}
	for name, payload := range cases {
		if _, _, err := DecodeSnapshotMarks(reseal(payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// Snapshots written by earlier builds hold gob payloads; they are refused
// with an error naming their format, not read and not taken for corruption.
func TestOldSnapshotFormatsRefused(t *testing.T) {
	for _, magic := range []string{"VKGSNAP1", "VKGSNAP2"} {
		data := append([]byte(magic), make([]byte, 40)...)
		_, _, err := DecodeSnapshotMarks(data)
		if !errors.Is(err, errOldSnapshot) || !strings.Contains(err.Error(), magic) {
			t.Errorf("%s: err %v, want the old-format error naming it", magic, err)
		}
	}
}

// A corrupt snapshot with no older generation's WAL to fall back to fails
// Open and stays on disk: falling back would serve the empty graph, and the
// stale-file sweep would delete the snapshot.
func TestCorruptSoleSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 40, Companies: 35, Seed: 5})
	if err := s.Import(it.Graph); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	p := snapPath(dir, 1)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Fatalf("Open served %d nodes from a corrupt sole snapshot", s.Graph().NumNodes())
	}
	if after, err := os.ReadFile(p); err != nil || !bytes.Equal(after, data) {
		t.Fatalf("failed Open touched the snapshot: %v", err)
	}
}

func TestRoundTripFigure2(t *testing.T) {
	g, _ := pg.Figure2()
	got, _ := roundTrip(t, g, nil)
	if d := sameGraph(got, g); d != "" {
		t.Fatal(d)
	}
	// Reasoning gives identical answers on the restored graph.
	if want, pairs := control.AllPairs(g), control.AllPairs(got); !reflect.DeepEqual(pairs, want) {
		t.Fatalf("control pairs differ after a round trip: %v vs %v", pairs, want)
	}
}

func TestRoundTripLargeGenerated(t *testing.T) {
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 500, Companies: 300, Seed: 7})
	got, _ := roundTrip(t, it.Graph, nil)
	if d := sameGraph(got, it.Graph); d != "" {
		t.Fatal(d)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kg.snapshot")
	g, _ := pg.Figure1()
	if _, err := WriteSnapshot(path, g, nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := sameGraph(got, g); d != "" {
		t.Fatal(d)
	}
	// Overwriting is atomic: saving again leaves a readable snapshot and no
	// temp litter.
	if _, err := WriteSnapshot(path, got, nil); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after re-save, want 1", len(entries))
	}
	if _, _, err := readSnapshot(path); err != nil {
		t.Fatal(err)
	}
}

// Edge identifiers (sparse after removals) and the ID counters survive, so
// WAL records logged against the live graph replay against the loaded one.
func TestRoundTripPreservesEdgeIDsAndCounters(t *testing.T) {
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	e0 := g.MustAddEdgeWeighted(a, b, 0.5)
	e1 := g.MustAddEdgeWeighted(b, a, 0.4)
	g.RemoveEdge(e0)
	got, _ := roundTrip(t, g, nil)
	if got.Edge(e0) != nil {
		t.Error("removed edge resurrected")
	}
	if e := got.Edge(e1); e == nil || e.From != b || e.To != a {
		t.Fatalf("edge %d not preserved: %+v", e1, got.Edge(e1))
	}
	if got.NextNodeID() != g.NextNodeID() || got.NextEdgeID() != g.NextEdgeID() {
		t.Errorf("counters = %d/%d, want %d/%d",
			got.NextNodeID(), got.NextEdgeID(), g.NextNodeID(), g.NextEdgeID())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC-XXX\x01garbagegarbage"),
		append([]byte("VKGSNAP9"), make([]byte, 40)...), // future format
	}
	for _, c := range cases {
		if _, _, err := DecodeSnapshotMarks(c); err == nil {
			t.Errorf("DecodeSnapshotMarks(%q) accepted garbage", c)
		}
	}
}

func TestReadRejectsTruncatedPayload(t *testing.T) {
	g, _ := pg.Figure2()
	data := encodeSnapshot(t, g, nil)
	if _, _, err := DecodeSnapshotMarks(data[:len(data)/2]); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := readSnapshot(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file accepted")
	}
}
