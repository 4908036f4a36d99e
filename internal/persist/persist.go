// Package persist is the crash-safe durability layer of the knowledge graph
// store: an append-only write-ahead log of graph mutations plus periodic
// checksummed full snapshots, with recovery that survives torn writes.
//
// The paper's §5 architecture assumes the augmented KG outlives the process
// (the KGMS persists what the reasoner derives); this package provides that
// without leaving the stdlib. Layout of a data directory:
//
//	snap-<gen>.vsnap   full snapshot opening generation <gen>
//	wal-<gen>.log      mutations since that snapshot
//
// Invariants:
//
//   - a fact is durable once Sync returns (callers sync before
//     acknowledging; the group-commit loop bounds the window for the rest);
//   - recovery loads the newest snapshot that verifies (passing over a
//     corrupt one only when the older generation's WAL is still there to
//     rebuild from), then replays every WAL of that generation and later,
//     truncating a torn final record instead of failing;
//   - recovery REFUSES to serve corrupt state: a CRC-valid record that does
//     not decode, or one whose replay diverges from the log (wrong IDs,
//     unknown endpoints), is an Open error, not a shrug.
package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/pg"
)

// Options tunes a Store.
type Options struct {
	// SyncEvery is the WAL group-commit interval: how often buffered
	// records are fsynced in the background. Zero syncs every append inline
	// (maximum safety, minimum throughput). Explicit Store.Sync calls are
	// independent of the interval.
	SyncEvery time.Duration
}

// RecoveryInfo reports what Open did to bring the graph back.
type RecoveryInfo struct {
	// SnapshotGen is the generation of the snapshot that loaded (0 = none,
	// recovery started from an empty graph).
	SnapshotGen uint64 `json:"snapshotGen"`
	// SnapshotsSkipped counts newer snapshots that failed verification and
	// were passed over for an older generation whose WAL was still on disk.
	SnapshotsSkipped int `json:"snapshotsSkipped,omitempty"`
	// WALFiles is the number of log files replayed.
	WALFiles int `json:"walFiles"`
	// RecordsReplayed is the number of WAL records applied on top of the
	// snapshot.
	RecordsReplayed int `json:"recordsReplayed"`
	// TornTails counts WAL files whose final record was torn and truncated.
	TornTails int `json:"tornTails,omitempty"`
	// Nodes and Edges are the recovered graph's size.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// DurationMillis is the wall-clock cost of recovery.
	DurationMillis int64 `json:"durationMillis"`
}

// SnapshotInfo reports one Snapshot call.
type SnapshotInfo struct {
	Gen            uint64 `json:"gen"`
	Nodes          int    `json:"nodes"`
	Edges          int    `json:"edges"`
	Bytes          int64  `json:"bytes"`
	DurationMillis int64  `json:"durationMillis"`
}

// Stats is the live counter snapshot of a Store.
type Stats struct {
	Gen         uint64 `json:"gen"`
	WALAppends  int64  `json:"walAppends"`
	WALSyncs    int64  `json:"walSyncs"`
	WALBytes    int64  `json:"walBytes"`
	Snapshots   int64  `json:"snapshots"`
	LastError   string `json:"lastError,omitempty"`
	SyncEveryMS int64  `json:"syncEveryMillis"`
}

// Store is a durable property graph: every committed mutation of Graph() is
// captured into the WAL, and Snapshot()/Sync() control when state is
// compacted and when it is guaranteed down.
//
// Concurrency: Append capture is internally serialized, but the graph
// itself keeps pg's rules — one mutator at a time. Snapshot must not run
// concurrently with mutations (reasonapi runs it under its version chain's
// commit lock).
type Store struct {
	mu   sync.Mutex
	dir  string
	opts Options
	g    *pg.Graph
	wal  *walWriter
	gen  uint64
	rec  RecoveryInfo

	// seq is the replication sequence number: the count of mutation records
	// ever applied to this graph (snapshot state included). It is a pure
	// function of graph state — see pg.Graph.Seq — maintained incrementally
	// here so readers never touch the graph's counters concurrently with a
	// mutator. base is seq as of the current generation's snapshot, i.e. the
	// sequence number the first frame of the current WAL follows.
	seq  atomic.Int64
	base int64

	// epochs is the replication-epoch history, oldest first: each mark says
	// "epoch E opened at sequence number S". Durable via OpEpoch WAL records
	// and the snapshot header; recovered by Open the same stateless way as
	// the position. epoch mirrors the newest mark's number atomically so
	// fencing checks never take the store lock.
	epochs []EpochMark
	epoch  atomic.Uint64

	snapshots int64
	capErr    error // first record-capture failure (sticky, surfaced by Sync)

	// flushed backs Flushed: nil until someone waits, closed and dropped on
	// every WAL flush and rotation.
	flushMu sync.Mutex
	flushed chan struct{}
}

// EpochMark records the opening of one replication epoch: a leader that
// fenced itself into Epoch did so when its log held exactly StartSeq
// records. The history of marks is what lets a store decide whether a
// rejoining peer's tail was fenced off — see DivergedSince.
type EpochMark struct {
	Epoch    uint64 `json:"epoch"`
	StartSeq int64  `json:"startSeq"`
}

// Open recovers the store in dir (creating it if empty) and arms change
// capture on the recovered graph.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: creating data dir: %w", err)
	}
	start := time.Now()
	s := &Store{dir: dir, opts: opts}

	snaps, wals, stray, err := scanDir(dir)
	if err != nil {
		return nil, err
	}

	// Newest verifiable snapshot wins. A corrupt one (disk rot, a torn
	// rename survivor) is skipped, falling back to the next older
	// generation, but only while that generation's WAL still exists (wal-0
	// for the empty graph): without it the fallback would serve a graph
	// missing everything the snapshot held, and the sweep below would delete
	// the snapshot. An old format is never skipped.
	var g *pg.Graph
	for i := len(snaps) - 1; i >= 0; i-- {
		loaded, marks, err := readSnapshot(snapPath(dir, snaps[i]))
		if err != nil {
			fallback := uint64(0)
			if i > 0 {
				fallback = snaps[i-1]
			}
			if errors.Is(err, errOldSnapshot) || !slices.Contains(wals, fallback) {
				return nil, err
			}
			s.rec.SnapshotsSkipped++
			continue
		}
		g = loaded
		s.epochs = marks
		s.rec.SnapshotGen = snaps[i]
		break
	}
	if g == nil {
		g = pg.New()
	}

	// Replay every WAL at or after the loaded generation, oldest first. When
	// a snapshot was skipped as corrupt this re-derives its state from the
	// previous generation's log — records carry explicit IDs, so the replay
	// either reproduces exactly the state the log describes or fails.
	maxGen := s.rec.SnapshotGen
	perGen := make(map[uint64]int, len(wals))
	for _, wg := range wals {
		if wg < s.rec.SnapshotGen {
			continue
		}
		if wg > maxGen {
			maxGen = wg
		}
		// Epoch marks are intercepted before graph replay: they are
		// sequence-neutral, so only true mutations count toward the base
		// arithmetic below.
		applied := 0
		_, torn, err := replayWAL(walPath(dir, wg), func(r Record) error {
			if r.Mutation.Kind == 0 {
				s.noteEpoch(r.Epoch)
				return nil
			}
			applied++
			_, err := g.Replay(r.Mutation)
			return err
		})
		if err != nil {
			return nil, err
		}
		perGen[wg] = applied
		s.rec.WALFiles++
		s.rec.RecordsReplayed += applied
		if torn {
			s.rec.TornTails++
		}
	}

	s.g = g
	s.gen = maxGen
	s.seq.Store(g.Seq())
	s.base = s.seq.Load() - int64(perGen[maxGen])
	if n := len(s.epochs); n > 0 {
		s.epoch.Store(s.epochs[n-1].Epoch)
	}
	w, err := openWAL(walPath(dir, s.gen), opts.SyncEvery, s.notifyFlushed)
	if err != nil {
		return nil, err
	}
	s.wal = w

	// Stale generations and orphaned temp files are dead weight now.
	for _, gen := range snaps {
		if gen != s.rec.SnapshotGen {
			os.Remove(snapPath(dir, gen))
		}
	}
	for _, gen := range wals {
		if gen < s.rec.SnapshotGen {
			os.Remove(walPath(dir, gen))
		}
	}
	for _, p := range stray {
		os.Remove(p)
	}

	s.rec.Nodes = g.NumNodes()
	s.rec.Edges = g.NumEdges()
	s.rec.DurationMillis = time.Since(start).Milliseconds()
	g.SetMutationHook(s.capture)
	return s, nil
}

// capture is the pg mutation hook: encode and append. Failures are sticky
// and surface on the next Sync — the mutation already happened in memory,
// so the only honest report is "stop acknowledging".
func (s *Store) capture(m pg.Mutation) {
	s.seq.Add(1)
	if err := s.wal.Append(Record{Mutation: m}); err != nil {
		s.mu.Lock()
		if s.capErr == nil {
			s.capErr = err
		}
		s.mu.Unlock()
	}
}

// Graph returns the recovered, change-captured graph. Mutate it under the
// same discipline as any pg.Graph; call Sync before acknowledging.
func (s *Store) Graph() *pg.Graph { return s.g }

// Recovery reports what Open replayed.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Sync makes every captured mutation durable. A nil return is the
// acknowledgement barrier: facts logged before this call survive a crash.
func (s *Store) Sync() error {
	s.mu.Lock()
	capErr := s.capErr
	s.mu.Unlock()
	if capErr != nil {
		return capErr
	}
	return s.wal.Sync()
}

// Snapshot writes a checksummed full snapshot, rotates the WAL to a fresh
// generation and deletes the superseded files. The caller must exclude
// concurrent graph mutations for the duration.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SnapshotInfo{Gen: s.gen + 1, Nodes: s.g.NumNodes(), Edges: s.g.NumEdges()}
	if s.capErr != nil {
		return info, s.capErr
	}
	n, err := s.rotateLocked()
	if err != nil {
		return info, err
	}
	info.Bytes = n
	info.DurationMillis = time.Since(start).Milliseconds()
	return info, nil
}

// rotateLocked cuts a snapshot of the current graph as generation gen+1,
// switches the WAL to that generation and deletes the superseded files.
// The caller holds s.mu and excludes concurrent graph mutations.
func (s *Store) rotateLocked() (int64, error) {
	// Everything the old generation's log holds must be down before the
	// snapshot that supersedes it is cut.
	if err := s.wal.Sync(); err != nil {
		return 0, err
	}
	n, err := WriteSnapshot(snapPath(s.dir, s.gen+1), s.g, s.epochs)
	if err != nil {
		return 0, err
	}
	w, err := openWAL(walPath(s.dir, s.gen+1), s.opts.SyncEvery, s.notifyFlushed)
	if err != nil {
		return 0, err
	}
	old := s.wal
	oldGen := s.gen
	s.wal = w
	s.gen++
	s.snapshots++
	// The new snapshot holds every record logged so far: the fresh WAL's
	// first frame will carry sequence number base+1.
	s.base = s.seq.Load()
	_ = old.Close()
	os.Remove(walPath(s.dir, oldGen))
	if oldGen > 0 {
		os.Remove(snapPath(s.dir, oldGen))
	}
	// Waiters re-read Position under s.mu, so they see the new generation.
	s.notifyFlushed()
	return n, nil
}

// Flushed returns a channel that is closed the next time new WAL bytes reach
// the file (a successful flush and fsync) or the WAL rotates. Take it before
// reading the log: a reader that then finds nothing new can block on it
// without missing a flush. Drained replication streams wait here.
func (s *Store) Flushed() <-chan struct{} {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	if s.flushed == nil {
		s.flushed = make(chan struct{})
	}
	return s.flushed
}

// notifyFlushed wakes every Flushed waiter. Free when nobody waits.
func (s *Store) notifyFlushed() {
	s.flushMu.Lock()
	if s.flushed != nil {
		close(s.flushed)
		s.flushed = nil
	}
	s.flushMu.Unlock()
}

// ReplaceGraphMarks swaps the store's graph for g and its epoch history for
// marks wholesale, and makes the new state durable as a fresh snapshot
// generation — the follower-side half of a replication snapshot bootstrap: a
// replica that lagged past the leader's log truncation (or diverged ahead of
// a restarted leader) adopts the leader's snapshot and resumes tailing from
// its sequence number. The shipped snapshot carries the marks, and a replica
// that adopts the state must adopt the history that produced it or its own
// divergence answers would lie. The caller must exclude concurrent mutations
// for the duration (a follower runs it under its version chain's commit
// lock), and must stop using the previous Graph().
func (s *Store) ReplaceGraphMarks(g *pg.Graph, marks []EpochMark) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.capErr != nil {
		return s.capErr
	}
	s.g.SetMutationHook(nil)
	s.g = g
	g.SetMutationHook(s.capture)
	s.seq.Store(g.Seq())
	s.epochs = append([]EpochMark(nil), marks...)
	if n := len(s.epochs); n > 0 {
		s.epoch.Store(s.epochs[n-1].Epoch)
	} else {
		s.epoch.Store(0)
	}
	_, err := s.rotateLocked()
	return err
}

// Epoch returns the store's current replication epoch (0 before any leader
// ever fenced). Lock-free: fencing checks run on every shipped frame.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// EpochMarks returns a copy of the epoch history, oldest first.
func (s *Store) EpochMarks() []EpochMark {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]EpochMark(nil), s.epochs...)
}

// RecordEpoch durably opens a new epoch: the mark is appended to the WAL as
// an OpEpoch record, fsynced, and added to the in-memory history. A
// non-advancing epoch is refused — epochs are fencing tokens and only ever
// move forward. This is the promotion barrier: a candidate that returns from
// RecordEpoch holds its fence on disk and cannot un-promote by crashing.
func (s *Store) RecordEpoch(m EpochMark) error {
	s.mu.Lock()
	if s.capErr != nil {
		err := s.capErr
		s.mu.Unlock()
		return err
	}
	if cur := s.epoch.Load(); m.Epoch <= cur {
		s.mu.Unlock()
		return fmt.Errorf("persist: epoch %d does not advance current epoch %d", m.Epoch, cur)
	}
	// A mark can only describe records appended after it: clamp StartSeq up
	// to the current sequence number. Without this, a member granting a
	// fence whose start point lies below its own seq (legal when the
	// candidate's newest fact carries a strictly newer epoch) would
	// retroactively attribute its pre-existing — possibly divergent — tail
	// to the new epoch, inflating LastEpoch and hiding the divergence from
	// DivergedSince, so the reset bootstrap that should truncate the tail
	// never fires.
	if seq := s.seq.Load(); m.StartSeq < seq {
		m.StartSeq = seq
	}
	if err := s.wal.Append(Record{Epoch: m}); err != nil {
		s.mu.Unlock()
		return err
	}
	s.noteEpoch(m)
	s.epoch.Store(m.Epoch)
	s.mu.Unlock()
	return s.Sync()
}

// noteEpoch appends a mark to the history if it advances it (recovery may
// replay marks already present in the snapshot header). Caller holds s.mu
// or is single-threaded (Open).
func (s *Store) noteEpoch(m EpochMark) {
	if n := len(s.epochs); n > 0 && m.Epoch <= s.epochs[n-1].Epoch {
		return
	}
	s.epochs = append(s.epochs, m)
}

// LastEpoch returns the epoch under which the newest mutation was appended:
// the highest mark whose StartSeq precedes the current sequence number. A
// fence mark opened at the current sequence number doesn't count — no
// mutation has happened under it yet. This, paired with Seq, is the store's
// history identity: two stores agree on every fact iff their (LastEpoch,
// Seq) pairs are comparable prefixes, which is what elections and fence
// grants compare. Zero means the store predates all epochs (or is empty).
func (s *Store) LastEpoch() uint64 {
	seq := s.Seq()
	s.mu.Lock()
	defer s.mu.Unlock()
	var last uint64
	for _, m := range s.epochs {
		if m.StartSeq < seq && m.Epoch > last {
			last = m.Epoch
		}
	}
	return last
}

// DivergedSince reports whether a peer whose newest fact was written under
// lastEpoch, at sequence number seq, holds records this store's history
// fenced off: true iff some later epoch opened at a sequence number below
// the peer's. Such a peer logged records past a fence point under a deposed
// leader — its tail is not a prefix of this history and must be discarded
// via snapshot bootstrap. Pass the peer's LastEpoch, not its durable epoch:
// a granted fence advances the durable epoch without validating the facts
// beneath it, so only the fact-bearing epoch identifies the history.
func (s *Store) DivergedSince(lastEpoch uint64, seq int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range s.epochs {
		if m.Epoch > lastEpoch && m.StartSeq < seq {
			return true
		}
	}
	return false
}

// Seq returns the store's replication sequence number: the count of mutation
// records ever applied to its graph. Safe to call concurrently with
// mutations (the counter is atomic); a frame with sequence number N is the
// Nth record ever logged.
func (s *Store) Seq() int64 { return s.seq.Load() }

// Position reports the store's replication position: the current WAL
// generation, the sequence number its snapshot covers (base — the current
// WAL's frames carry sequence numbers base+1..seq) and the current sequence
// number. gen and base are read together under the store lock so a
// concurrent rotation cannot tear them.
func (s *Store) Position() (gen uint64, base, seq int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen, s.base, s.seq.Load()
}

// WALFile returns the path of the log file of a generation. The file exists
// for the current generation (and may be deleted at any rotation); the
// replication leader streams it.
func (s *Store) WALFile(gen uint64) string { return walPath(s.dir, gen) }

// SnapshotFile returns the path of a generation's snapshot file. Generation
// 0 has none (stores are born empty); the current generation's snapshot
// exists until the next rotation supersedes it.
func (s *Store) SnapshotFile(gen uint64) string { return snapPath(s.dir, gen) }

// Import seeds a freshly opened, still-empty store with g: the store adopts
// the graph, arms change capture on it and cuts an initial snapshot so the
// state is durable immediately. Importing over existing state is refused.
func (s *Store) Import(g *pg.Graph) error {
	s.mu.Lock()
	if s.g.NumNodes() > 0 || s.g.NumEdges() > 0 {
		s.mu.Unlock()
		return fmt.Errorf("persist: refusing to import over a non-empty store (%d nodes)", s.g.NumNodes())
	}
	s.g.SetMutationHook(nil)
	s.g = g
	g.SetMutationHook(s.capture)
	s.seq.Store(g.Seq())
	s.mu.Unlock()
	_, err := s.Snapshot()
	return err
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, sy, b := s.wal.stats()
	st := Stats{
		Gen:         s.gen,
		WALAppends:  a,
		WALSyncs:    sy,
		WALBytes:    b,
		Snapshots:   s.snapshots,
		SyncEveryMS: s.opts.SyncEvery.Milliseconds(),
	}
	err := s.capErr
	if err == nil {
		err = s.wal.Err()
	}
	if err != nil {
		st.LastError = err.Error()
	}
	return st
}

// Close syncs and closes the WAL and detaches change capture. The graph
// remains usable in memory; further mutations are no longer logged.
func (s *Store) Close() error {
	s.mu.Lock()
	g, w, capErr := s.g, s.wal, s.capErr
	s.mu.Unlock()
	g.SetMutationHook(nil)
	err := w.Close()
	if capErr != nil && err == nil {
		err = capErr
	}
	return err
}

// scanDir inventories a data directory: snapshot generations, WAL
// generations (each sorted ascending) and stray temp files.
func scanDir(dir string) (snaps, wals []uint64, stray []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("persist: reading data dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".vsnap"):
			if gen, ok := parseGen(name, "snap-", ".vsnap"); ok {
				snaps = append(snaps, gen)
			} else {
				stray = append(stray, filepath.Join(dir, name))
			}
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			if gen, ok := parseGen(name, "wal-", ".log"); ok {
				wals = append(wals, gen)
			} else {
				stray = append(stray, filepath.Join(dir, name))
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".tmp"):
			stray = append(stray, filepath.Join(dir, name))
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, stray, nil
}

func parseGen(name, prefix, suffix string) (uint64, bool) {
	body := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if body == "" {
		return 0, false
	}
	var gen uint64
	for _, c := range body {
		if c < '0' || c > '9' {
			return 0, false
		}
		gen = gen*10 + uint64(c-'0')
	}
	return gen, true
}
