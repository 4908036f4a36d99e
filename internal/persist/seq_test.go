package persist

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"vadalink/internal/pg"
)

// The replication sequence number is a pure function of graph state: every
// mutation kind advances it by exactly one, and recovery — from the
// snapshot, the WAL, or both — reproduces it.
func TestSeqTracksEveryMutationKind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Graph()
	if got := s.Seq(); got != 0 {
		t.Fatalf("fresh store Seq = %d, want 0", got)
	}
	a := g.AddNode(pg.LabelCompany, nil) // seq 1
	b := g.AddNode(pg.LabelCompany, nil) // seq 2
	e := g.MustAddEdgeWeighted(a, b, 0.5)
	g.MustAddEdgeWeighted(a, b, 0.3) // parallel edge, seq 4
	g.RemoveEdge(e)                  // seq 5
	if got := s.Seq(); got != 5 {
		t.Fatalf("Seq after 5 mutations = %d, want 5", got)
	}
	if got := g.Seq(); got != 5 {
		t.Fatalf("Seq = %d, want 5", got)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery from the WAL alone reproduces the sequence number.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Seq(); got != 5 {
		t.Fatalf("recovered Seq = %d, want 5", got)
	}
	gen, base, seq := s2.Position()
	if gen != 0 || base != 0 || seq != 5 {
		t.Fatalf("Position = (%d, %d, %d), want (0, 0, 5)", gen, base, seq)
	}
}

// Rotation moves base up to the current sequence number: the new WAL's
// frames continue the global numbering, and recovery after a rotation
// reports the same position.
func TestPositionAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Graph()
	for i := 0; i < 7; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	gen, base, seq := s.Position()
	if gen != 1 || base != 7 || seq != 7 {
		t.Fatalf("Position after rotation = (%d, %d, %d), want (1, 7, 7)", gen, base, seq)
	}
	g.AddNode(pg.LabelCompany, nil)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	gen, base, seq = s2.Position()
	if gen != 1 || base != 7 || seq != 8 {
		t.Fatalf("recovered Position = (%d, %d, %d), want (1, 7, 8)", gen, base, seq)
	}
}

// ReplaceGraphMarks adopts a foreign graph wholesale (the snapshot-bootstrap
// path): the store's position jumps to the new graph's sequence number, the
// state is durable immediately, and capture follows the new graph.
func TestReplaceGraph(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Graph().AddNode(pg.LabelPerson, nil) // local state that will be discarded

	leader := pg.New()
	for i := 0; i < 4; i++ {
		leader.AddNode(pg.LabelCompany, pg.Properties{"i": int64(i)})
	}
	leader.MustAddEdgeWeighted(0, 1, 0.6)
	adopted := leader.Clone()
	if err := s.ReplaceGraphMarks(adopted, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Seq(), leader.Seq(); got != want {
		t.Fatalf("Seq after ReplaceGraphMarks = %d, want %d", got, want)
	}
	if s.Graph() != adopted {
		t.Fatal("Graph() does not return the adopted graph")
	}
	// Mutations of the adopted graph are captured and replayable.
	adopted.AddNode(pg.LabelCompany, nil)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, want := s2.Seq(), leader.Seq()+1; got != want {
		t.Fatalf("recovered Seq = %d, want %d", got, want)
	}
	if n := s2.Graph().NumNodes(); n != 5 {
		t.Fatalf("recovered %d nodes, want 5", n)
	}
	if s2.Graph().Node(0).Label != pg.LabelCompany {
		t.Fatal("recovered graph kept the pre-bootstrap node")
	}
}

// NextFrame cuts exactly the frames scanFrames would accept, and
// DecodeFrame round-trips a record while rejecting corruption.
func TestNextFrameAndDecodeFrame(t *testing.T) {
	rec := addNodeRec(7, "Company", pg.Properties{"name": "ACME"})
	payload, err := appendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	frame := frameFor(payload)

	if _, ok := NextFrame(frame[:5]); ok {
		t.Fatal("NextFrame accepted a short header")
	}
	if _, ok := NextFrame(frame[:len(frame)-1]); ok {
		t.Fatal("NextFrame accepted a short payload")
	}
	n, ok := NextFrame(append(frame, frame...))
	if !ok || n != len(frame) {
		t.Fatalf("NextFrame = (%d, %v), want (%d, true)", n, ok, len(frame))
	}

	got, err := DecodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n := got.Mutation.Node; got.Mutation.Kind != pg.MutAddNode || n.ID != 7 || n.Label != "Company" || n.Props["name"] != "ACME" {
		t.Fatalf("DecodeFrame = %+v, want %+v", got, rec)
	}

	corrupt := append([]byte(nil), frame...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if _, ok := NextFrame(corrupt); ok {
		t.Fatal("NextFrame accepted a CRC-corrupt frame")
	}
	if _, err := DecodeFrame(corrupt); err == nil {
		t.Fatal("DecodeFrame accepted a CRC-corrupt frame")
	}
	if _, err := DecodeFrame(append(frame, frame...)); err == nil {
		t.Fatal("DecodeFrame accepted two concatenated frames")
	}
}

// DecodeSnapshotMarks accepts exactly what readSnapshot accepts and rejects a
// flipped byte anywhere in the payload.
func TestDecodeSnapshotBytes(t *testing.T) {
	dir := t.TempDir()
	g := pg.New()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	g.MustAddEdgeWeighted(a, b, 0.9)
	path := snapPath(dir, 3)
	if _, err := WriteSnapshot(path, g, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeSnapshotMarks(data)
	if err != nil {
		t.Fatalf("DecodeSnapshotMarks: %v", err)
	}
	if got.NumNodes() != 2 || got.NumEdges() != 1 {
		t.Fatalf("decoded %d nodes / %d edges, want 2 / 1", got.NumNodes(), got.NumEdges())
	}
	if got.Seq() != g.Seq() {
		t.Fatalf("decoded seq %d != original %d", got.Seq(), g.Seq())
	}
	for i := range data {
		if i%7 != 0 { // sampling keeps the test fast; corruption anywhere must fail
			continue
		}
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x55
		if _, _, err := DecodeSnapshotMarks(bad); err == nil {
			t.Fatalf("DecodeSnapshotMarks accepted a byte flip at offset %d", i)
		}
	}
}

// frameFor wraps a record payload in the on-disk frame envelope, mirroring
// walWriter.Append.
func frameFor(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}
