package persist

import (
	"testing"

	"vadalink/internal/pg"
)

// RecordEpoch survives kill -9-style reopen: marks come back from the WAL,
// the current epoch is the newest mark, and the replication position is
// unaffected (epoch records are sequence-neutral).
func TestEpochSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "B"})
	wantSeq := s.Seq()
	if wantSeq != 2 {
		t.Fatalf("seq = %d, want 2", wantSeq)
	}
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", s.Epoch())
	}
	if err := s.RecordEpoch(EpochMark{Epoch: 1, StartSeq: wantSeq}); err != nil {
		t.Fatal(err)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch after RecordEpoch = %d, want 1", s.Epoch())
	}
	if got := s.Seq(); got != wantSeq {
		t.Fatalf("RecordEpoch moved seq %d -> %d; epoch records must be seq-neutral", wantSeq, got)
	}
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "C"})
	if err := s.RecordEpoch(EpochMark{Epoch: 3, StartSeq: s.Seq()}); err != nil {
		t.Fatal(err)
	}
	// No Close: reopening the same directory is the kill -9 recovery path.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Epoch() != 3 {
		t.Fatalf("recovered epoch = %d, want 3", s2.Epoch())
	}
	marks := s2.EpochMarks()
	if len(marks) != 2 || marks[0] != (EpochMark{1, 2}) || marks[1] != (EpochMark{3, 3}) {
		t.Fatalf("recovered marks = %v, want [{1 2} {3 3}]", marks)
	}
	if got := s2.Seq(); got != 3 {
		t.Fatalf("recovered seq = %d, want 3", got)
	}
	_, base, seq := s2.Position()
	if base != seq-3 {
		t.Fatalf("recovered base %d with seq %d: epoch records leaked into base arithmetic", base, seq)
	}
}

// Epoch marks survive snapshot rotation: after Snapshot deletes the WAL
// that held the OpEpoch records, the history must come back from the
// snapshot header.
func TestEpochSurvivesSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph()
	g.AddNode(pg.LabelCompany, pg.Properties{"name": "A"})
	if err := s.RecordEpoch(EpochMark{Epoch: 2, StartSeq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Epoch() != 2 {
		t.Fatalf("epoch after rotation+reopen = %d, want 2", s2.Epoch())
	}
	if marks := s2.EpochMarks(); len(marks) != 1 || marks[0] != (EpochMark{2, 1}) {
		t.Fatalf("marks after rotation+reopen = %v, want [{2 1}]", marks)
	}
}

// Epochs only move forward: recording a non-advancing epoch is an error and
// leaves the history untouched.
func TestEpochMustAdvance(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.RecordEpoch(EpochMark{Epoch: 5, StartSeq: 0}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordEpoch(EpochMark{Epoch: 5, StartSeq: 0}); err == nil {
		t.Fatal("RecordEpoch accepted a non-advancing epoch")
	}
	if err := s.RecordEpoch(EpochMark{Epoch: 4, StartSeq: 0}); err == nil {
		t.Fatal("RecordEpoch accepted a regressing epoch")
	}
	if s.Epoch() != 5 || len(s.EpochMarks()) != 1 {
		t.Fatalf("history disturbed: epoch %d, marks %v", s.Epoch(), s.EpochMarks())
	}
}

// DivergedSince implements the fencing rule: a peer's tail is fenced off
// iff some later epoch opened below the peer's sequence number.
func TestDivergedSince(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Graph()
	// The fence opens at seq 5, then the new epoch writes five more records
	// (RecordEpoch clamps StartSeq to the live seq, so the mark must be
	// recorded at its fence time, like a real promotion).
	for i := 0; i < 5; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	if err := s.RecordEpoch(EpochMark{Epoch: 2, StartSeq: 5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	cases := []struct {
		epoch uint64
		seq   int64
		want  bool
	}{
		{0, 3, false},  // stopped before the fence point: clean prefix
		{0, 5, false},  // stopped exactly at the fence point: clean prefix
		{0, 7, true},   // logged past the fence under the old epoch: fenced off
		{2, 7, false},  // already in the new epoch: its records are canon
		{1, 10, true},  // old epoch, past the fence
		{2, 10, false}, // current epoch, any seq
	}
	for _, c := range cases {
		if got := s.DivergedSince(c.epoch, c.seq); got != c.want {
			t.Errorf("DivergedSince(%d, %d) = %v, want %v", c.epoch, c.seq, got, c.want)
		}
	}
}

// FrameOp classifies frames without decoding them.
func TestFrameOp(t *testing.T) {
	payload, err := appendRecord(nil, epochRec(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	frame := frameFor(payload)
	op, ok := FrameOp(frame)
	if !ok || op != OpEpoch {
		t.Fatalf("FrameOp = %v, %v; want OpEpoch, true", op, ok)
	}
	if _, ok := FrameOp(frame[:frameHeaderLen]); ok {
		t.Fatal("FrameOp accepted a payload-less frame")
	}
	rec, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mutation.Kind != 0 || rec.Epoch != (EpochMark{Epoch: 7, StartSeq: 3}) {
		t.Fatalf("decoded epoch record = %+v", rec)
	}
}

// A fence mark can only describe records appended after it: RecordEpoch
// clamps StartSeq up to the current sequence number. This is the honesty
// invariant behind DivergedSince — a member that wrote past a fence point
// and then grants a newer fence at a lower StartSeq must not retroactively
// file its divergent tail under the new epoch, or the reset bootstrap that
// truncates the tail would never trigger.
func TestRecordEpochClampsStartSeq(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.Graph()
	for i := 0; i < 10; i++ {
		g.AddNode(pg.LabelCompany, nil)
	}
	// Grant below our seq (candidate with a newer fact epoch but a shorter
	// log): the mark must land at 10, not 6.
	if err := s.RecordEpoch(EpochMark{Epoch: 2, StartSeq: 6}); err != nil {
		t.Fatal(err)
	}
	marks := s.EpochMarks()
	if len(marks) != 1 || marks[0] != (EpochMark{Epoch: 2, StartSeq: 10}) {
		t.Fatalf("marks = %v, want [{2 10}]", marks)
	}
	// Our ten records predate the fence: the newest fact's epoch is still 0.
	if got := s.LastEpoch(); got != 0 {
		t.Fatalf("LastEpoch after clamped grant = %d, want 0", got)
	}
	// A record appended after the mark belongs to the new epoch.
	g.AddNode(pg.LabelCompany, nil)
	if got := s.LastEpoch(); got != 2 {
		t.Fatalf("LastEpoch after post-fence record = %d, want 2", got)
	}
	// Granting above our seq (we are behind the fence point) is untouched.
	if err := s.RecordEpoch(EpochMark{Epoch: 3, StartSeq: 15}); err != nil {
		t.Fatal(err)
	}
	if marks = s.EpochMarks(); marks[len(marks)-1] != (EpochMark{Epoch: 3, StartSeq: 15}) {
		t.Fatalf("marks = %v, want tail {3 15}", marks)
	}
	// The clamp is durable: reopen and re-check.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if marks = s2.EpochMarks(); len(marks) != 2 || marks[0] != (EpochMark{2, 10}) {
		t.Fatalf("recovered marks = %v, want [{2 10} {3 15}]", marks)
	}
}
