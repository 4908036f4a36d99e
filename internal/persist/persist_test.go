package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/graphgen"
	"vadalink/internal/pg"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// Build a small graph through a store, reopen, and check everything came back
// with identical identifiers.
func TestOpenRecoversAppendedMutations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	g := s.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "ACME"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "Banca"})
	p := g.AddNode(pg.LabelPerson, pg.Properties{"name": "Alice", "age": int64(52), "pep": true, "score": 0.75})
	e1 := g.MustAddEdgeWeighted(a, b, 0.6)
	e2 := g.MustAddEdgeWeighted(p, a, 0.3)
	g.RemoveEdge(e1)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	g2 := s2.Graph()
	if g2.NumNodes() != 3 || g2.NumEdges() != 1 {
		t.Fatalf("recovered %d nodes / %d edges, want 3/1", g2.NumNodes(), g2.NumEdges())
	}
	if n := g2.Node(p); n == nil || n.Props["name"] != "Alice" || n.Props["age"] != int64(52) ||
		n.Props["pep"] != true || n.Props["score"] != 0.75 {
		t.Fatalf("person node lost properties: %+v", g2.Node(p))
	}
	if g2.Edge(e1) != nil {
		t.Error("removed edge resurrected by recovery")
	}
	if e := g2.Edge(e2); e == nil || e.From != p || e.To != a {
		t.Fatalf("edge %d not recovered: %+v", e2, g2.Edge(e2))
	}
	// Post-recovery IDs continue where the log left off.
	if g2.NextNodeID() != g.NextNodeID() || g2.NextEdgeID() != g.NextEdgeID() {
		t.Errorf("counters %d/%d, want %d/%d", g2.NextNodeID(), g2.NextEdgeID(), g.NextNodeID(), g.NextEdgeID())
	}
	rec := s2.Recovery()
	if rec.RecordsReplayed != 6 {
		t.Errorf("RecordsReplayed = %d, want 6", rec.RecordsReplayed)
	}
	if rec.Nodes != 3 || rec.Edges != 1 {
		t.Errorf("recovery reports %d/%d, want 3/1", rec.Nodes, rec.Edges)
	}
}

// Snapshot rotates generations, deletes superseded files, and recovery from
// the snapshot alone (plus the fresh WAL) reproduces the state.
func TestSnapshotRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	g := s.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	g.MustAddEdgeWeighted(a, b, 1.0)

	info, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen != 1 || info.Nodes != 2 || info.Edges != 1 {
		t.Fatalf("snapshot info %+v", info)
	}
	// More mutations after the snapshot land in the new generation's WAL.
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	g.MustAddEdgeWeighted(b, c, 0.9)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("dir after rotation = %v, want exactly snap+wal of gen 1", names)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotGen != 1 {
		t.Errorf("recovered from gen %d, want 1", rec.SnapshotGen)
	}
	if rec.RecordsReplayed != 2 {
		t.Errorf("RecordsReplayed = %d, want 2 (post-snapshot tail)", rec.RecordsReplayed)
	}
	if s2.Graph().NumNodes() != 3 || s2.Graph().NumEdges() != 2 {
		t.Fatalf("recovered %d/%d, want 3/2", s2.Graph().NumNodes(), s2.Graph().NumEdges())
	}
}

// A corrupt newest snapshot is skipped; recovery falls back to the previous
// generation's snapshot and replays its WAL, which still spans everything.
func TestRecoverySkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	g := s.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	g.MustAddEdgeWeighted(a, b, 1.0)
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload bit in the gen-1 snapshot.
	p := snapPath(dir, 1)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(snapMagic)+3] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Gen-0 files were deleted at rotation, so there is no older snapshot —
	// but gen-1's WAL can't rebuild pre-snapshot state either. Recovery must
	// refuse (apply fails on the dangling edge) rather than serve a partial
	// graph.
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open served state despite corrupt snapshot and no fallback")
	}
}

// With an older snapshot still present (simulated retained generation),
// recovery falls back to it and replays forward across generations.
func TestRecoveryFallsBackAcrossGenerations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	g := s.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	g.MustAddEdgeWeighted(a, b, 1.0)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// Keep a copy of the gen-0 WAL; rotation will delete it.
	wal0, err := os.ReadFile(walPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Restore the old WAL and corrupt the gen-1 snapshot: recovery should
	// fall back to empty + wal-0 + wal-1 and still reach the full state.
	if err := os.WriteFile(walPath(dir, 0), wal0, 0o644); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(snapPath(dir, 1))
	data[len(snapMagic)+3] ^= 0xff
	if err := os.WriteFile(snapPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotsSkipped != 1 || rec.SnapshotGen != 0 {
		t.Errorf("recovery %+v, want skipped=1 gen=0", rec)
	}
	if s2.Graph().NumNodes() != 3 || s2.Graph().NumEdges() != 1 {
		t.Fatalf("fallback recovered %d/%d, want 3/1", s2.Graph().NumNodes(), s2.Graph().NumEdges())
	}
}

// An injected fault in the fsync-to-rename window leaves the temp file behind
// and the previous state authoritative — exactly a crash-before-rename.
func TestSnapshotCrashBeforeRenameLeavesOldStateAuthoritative(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	g := s.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("crash before rename")
	faultinject.SetErr(faultinject.SitePersistRename, func() error { return boom })
	defer faultinject.Reset()
	if _, err := s.Snapshot(); !errors.Is(err, boom) {
		t.Fatalf("Snapshot error = %v, want injected crash", err)
	}
	faultinject.Reset()
	s.Close()

	// The failed publication left a *.tmp; Open must ignore and remove it.
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Graph().NumNodes() != 1 {
		t.Fatalf("recovered %d nodes, want 1", s2.Graph().NumNodes())
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("stray temp file %s survived recovery", e.Name())
		}
	}
}

// Import seeds an empty store and makes the seed durable immediately.
func TestImportSeedsAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	seed := pg.New()
	a := seed.AddNode(pg.LabelCompany, pg.Properties{"name": "Seed"})
	if err := s.Import(seed); err != nil {
		t.Fatal(err)
	}
	if s.Graph() != seed {
		t.Fatal("store did not adopt the imported graph")
	}
	// Mutations after import are captured.
	b := seed.AddNode(pg.LabelCompany, pg.Properties{"name": "Post"})
	seed.MustAddEdgeWeighted(a, b, 1.0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Graph().NumNodes() != 2 || s2.Graph().NumEdges() != 1 {
		t.Fatalf("recovered %d/%d after import, want 2/1", s2.Graph().NumNodes(), s2.Graph().NumEdges())
	}
	if err := s2.Import(pg.New()); err == nil {
		t.Error("Import over non-empty store accepted")
	}
}

// Group commit: with a long interval, un-synced appends are made durable by
// an explicit Sync; Stats reflects the activity.
func TestGroupCommitAndStats(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: time.Hour})
	g := s.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALAppends != 2 || st.WALSyncs < 1 || st.WALBytes == 0 {
		t.Errorf("stats %+v", st)
	}
	if st.SyncEveryMS != time.Hour.Milliseconds() {
		t.Errorf("SyncEveryMS = %d", st.SyncEveryMS)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	if s2.Graph().NumNodes() != 2 {
		t.Fatalf("recovered %d nodes, want 2", s2.Graph().NumNodes())
	}
}

// Flushed closes when new frames reach the file and on every rotation — and
// not before, nor on a Sync that had nothing to flush.
func TestFlushedSignal(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{SyncEvery: time.Hour})
	defer s.Close()
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	ch := s.Flushed()
	s.Graph().AddNode(pg.LabelCompany, nil)
	if closed(ch) {
		t.Fatal("Flushed closed before the append was flushed")
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("Flushed not closed by the Sync that flushed the append")
	}
	ch = s.Flushed()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if closed(ch) {
		t.Fatal("Flushed closed by a Sync with nothing to flush")
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if !closed(ch) {
		t.Fatal("Flushed not closed by a rotation")
	}
}

// fsync failure is fail-stop: the first error sticks, Sync keeps refusing,
// and no later acknowledgement can pretend durability.
func TestSyncFailureIsSticky(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: time.Hour})
	defer s.Close()
	g := s.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})

	diskFull := errors.New("injected fsync failure")
	faultinject.SetErr(faultinject.SitePersistSync, func() error { return diskFull })
	defer faultinject.Reset()
	if err := s.Sync(); !errors.Is(err, diskFull) {
		t.Fatalf("Sync = %v, want injected failure", err)
	}
	faultinject.Reset()
	// Fault cleared, but the WAL must stay failed.
	if err := s.Sync(); !errors.Is(err, diskFull) {
		t.Fatalf("Sync after clear = %v, want sticky failure", err)
	}
	if _, err := s.Snapshot(); err == nil {
		t.Error("Snapshot succeeded on a failed store")
	}
	if st := s.Stats(); st.LastError == "" {
		t.Error("Stats does not surface the sticky error")
	}
}

// A torn final append (injected short write) is truncated on recovery; every
// record synced before it survives.
func TestTornFinalAppendIsTruncated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: time.Hour})
	g := s.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	torn := errors.New("torn write")
	faultinject.SetErr(faultinject.SitePersistAppend, func() error { return torn })
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "HalfWritten"})
	faultinject.Reset()
	if err := s.Sync(); !errors.Is(err, torn) {
		t.Fatalf("Sync = %v, want capture failure surfaced", err)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.TornTails != 1 {
		t.Errorf("TornTails = %d, want 1", rec.TornTails)
	}
	if s2.Graph().NumNodes() != 2 {
		t.Fatalf("recovered %d nodes, want the 2 acknowledged ones", s2.Graph().NumNodes())
	}
	// The truncation is in place: a second recovery sees a clean log.
	s2.Close()
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	if s3.Recovery().TornTails != 0 {
		t.Error("torn tail not truncated in place")
	}
}

// A CRC-valid frame holding an undecodable record is corruption, not a torn
// tail: Open must refuse.
func TestRecoveryRefusesUndecodableRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	s.Graph().AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	s.Sync()
	s.Close()

	w, err := openWAL(walPath(dir, 0), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-append a frame whose payload is garbage but whose CRC is correct.
	payload := []byte{0xee, 0xee, 0xee}
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	putFrameHeader(frame, payload)
	frame = append(frame, payload...)
	if _, err := w.f.Write(frame); err != nil {
		t.Fatal(err)
	}
	w.f.Close()

	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open served a log with an undecodable record")
	}
}

// The acceptance bar from the issue: a 10k-company graph recovers from
// snapshot + WAL tail in under five seconds, reported in RecoveryInfo.
func TestLargeGraphRecoveryUnderFiveSeconds(t *testing.T) {
	if testing.Short() {
		t.Skip("large recovery benchmark-test skipped in -short")
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: 2 * time.Millisecond})
	it := graphgen.NewItalian(graphgen.ItalianConfig{Persons: 10000, Companies: 10000, Seed: 42})
	if err := s.Import(it.Graph); err != nil {
		t.Fatal(err)
	}
	// A WAL tail on top of the snapshot so recovery exercises both paths.
	g := s.Graph()
	for i := 0; i < 2000; i++ {
		g.AddNode(pg.LabelCompany, pg.Properties{"name": "tail"})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.Nodes < 20000 {
		t.Fatalf("recovered only %d nodes", rec.Nodes)
	}
	if rec.RecordsReplayed != 2000 {
		t.Errorf("RecordsReplayed = %d, want 2000", rec.RecordsReplayed)
	}
	if rec.DurationMillis >= 5000 {
		t.Errorf("recovery took %dms, acceptance bar is <5000ms", rec.DurationMillis)
	}
}

// putFrameHeader stamps length+CRC for payload into the 8-byte header.
func putFrameHeader(hdr []byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
}

// Weight edits and node removals are first-class WAL records: a store that
// logs them recovers to the identical graph (same weights, same missing
// node, same counters and sequence number), whether replay starts from the
// WAL alone or from a snapshot cut after the mutations.
func TestWALRoundTripWeightEditAndNodeRemoval(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	g := s.Graph()
	a := g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	b := g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	c := g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	ab := g.MustAddEdgeWeighted(a, b, 0.6)
	g.MustAddEdgeWeighted(b, c, 0.8)
	g.MustAddEdgeWeighted(c, a, 0.5)
	if err := g.SetEdgeWeight(ab, 0.35); err != nil {
		t.Fatal(err)
	}
	if !g.RemoveNode(c) { // removes c plus its two incident edges
		t.Fatal("RemoveNode(c) = false")
	}
	wantSeq := s.Seq()
	// 3 adds + 3 edges + 1 weight edit + 2 incident removals + 1 node = 10.
	if wantSeq != 10 {
		t.Fatalf("seq after mutations = %d, want 10", wantSeq)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(stage string, g2 *pg.Graph, seq int64) {
		t.Helper()
		if seq != wantSeq {
			t.Fatalf("%s: recovered seq = %d, want %d", stage, seq, wantSeq)
		}
		if g2.Node(c) != nil {
			t.Fatalf("%s: removed node resurrected", stage)
		}
		if g2.NumNodes() != 2 || g2.NumEdges() != 1 {
			t.Fatalf("%s: recovered %d nodes / %d edges, want 2/1", stage, g2.NumNodes(), g2.NumEdges())
		}
		if w, _ := g2.Edge(ab).Weight(); w != 0.35 {
			t.Fatalf("%s: recovered weight = %v, want 0.35", stage, w)
		}
		if g2.WeightEdits() != 1 {
			t.Fatalf("%s: recovered WeightEdits = %d, want 1", stage, g2.WeightEdits())
		}
		if g2.NextNodeID() != 3 || g2.NextEdgeID() != 3 {
			t.Fatalf("%s: counters %d/%d, want 3/3", stage, g2.NextNodeID(), g2.NextEdgeID())
		}
	}

	// Recovery replays the records from the WAL.
	s2 := mustOpen(t, dir, Options{})
	check("wal replay", s2.Graph(), s2.Seq())
	// Cut a snapshot so the next recovery loads state (including the
	// weight-edit counter) from the snapshot instead of the log.
	if _, err := s2.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := mustOpen(t, dir, Options{})
	defer s3.Close()
	check("snapshot", s3.Graph(), s3.Seq())
}
