// Checksummed full snapshots. A snapshot is the compacted log that rebuilds
// the graph: WAL frames in the WAL's record codec, replayed through
// pg.Graph.Replay exactly as a WAL is, inside an envelope that makes
// corruption detectable:
//
//	[8-byte magic "VKGSNAP3"][payload][u64le payload length][u32le CRC32C(payload)]
//	payload := [u32le count][count × (u64le epoch, u64le startSeq)]
//	           [u64le weight edits][u64le seq][frames]
//
// The epoch header is the replication-epoch history, inside the checksummed
// payload so a corrupted mark is caught like any other corruption. The
// frames hold the graph in ID order: an add-node for every node ID below
// NextNodeID, then an add-edge for every edge ID below NextEdgeID. An ID a
// removal left unused is written as an add of an empty placeholder followed
// by its removal, so every add names the ID the graph assigns next (Replay's
// rule) and the ID counters come back exactly. A placeholder edge is a
// self-loop on node 0, removed right after its add; when node 0 is itself a
// placeholder, its removal follows the last edge. After the frames the
// loader sets the weight-edit count and refuses the file unless the graph's
// Seq equals the stored seq. The same graph always encodes to the same bytes.
//
// VKGSNAP1 and VKGSNAP2 files (gob payloads, written before this format) are
// refused with an error naming the format, never skipped as corrupt.
//
// Publication is crash-atomic: the file is written to a temp file in the
// same directory, fsynced, renamed over the final name, and the directory
// fsynced — a crash at any point leaves either the previous snapshot or the
// new one, never a half-written file under the real name.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vadalink/internal/faultinject"
	"vadalink/internal/pg"
)

const snapMagic = "VKGSNAP3"

// snapTrailerLen = u64 payload length + u32 CRC32C.
const snapTrailerLen = 12

// errOldSnapshot marks a snapshot in a format this build no longer reads.
// Open fails on it rather than fall back past it.
var errOldSnapshot = errors.New("persist: snapshot format no longer read")

// WriteSnapshot publishes g and the epoch history marks as the snapshot
// file at path, crash-atomically, and returns the file's size.
func WriteSnapshot(path string, g *pg.Graph, marks []EpochMark) (n int64, err error) {
	data, err := appendSnapshot(nil, g, marks)
	if err != nil {
		return 0, err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("persist: creating snapshot temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err != nil {
		return 0, fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err = tmp.Sync(); err != nil {
		return 0, fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return 0, fmt.Errorf("persist: closing snapshot: %w", err)
	}
	// The crash-between-fsync-and-rename window: an injected fault here
	// leaves the temp file behind and the old generation authoritative,
	// exactly like a real crash would.
	if err = faultinject.FireErr(faultinject.SitePersistRename); err != nil {
		return 0, fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// appendSnapshot appends the snapshot file of g and marks to buf.
func appendSnapshot(buf []byte, g *pg.Graph, marks []EpochMark) ([]byte, error) {
	buf = append(buf, snapMagic...)
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(marks)))
	for _, m := range marks {
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.StartSeq))
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.WeightEdits()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(g.Seq()))
	buf, err := appendGraphFrames(buf, g)
	if err != nil {
		return nil, err
	}
	crc := crc32.Checksum(buf[start:], crcTable)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(buf)-start))
	return binary.LittleEndian.AppendUint32(buf, crc), nil
}

// appendGraphFrames appends the frames that rebuild g: every node ID, then
// every edge ID, a removed one as a placeholder's add and removal.
func appendGraphFrames(buf []byte, g *pg.Graph) ([]byte, error) {
	var err error
	put := func(kind pg.MutationKind, n *pg.Node, e *pg.Edge) {
		if err == nil {
			buf, err = appendFrame(buf, Record{Mutation: pg.Mutation{Kind: kind, Node: n, Edge: e}})
		}
	}
	var hole0 *pg.Node
	for id := range g.NextNodeID() {
		if n := g.Node(id); n != nil {
			put(pg.MutAddNode, n, nil)
			continue
		}
		hole := &pg.Node{ID: id}
		put(pg.MutAddNode, hole, nil)
		if id == 0 {
			hole0 = hole // placeholder edges hang on it
			continue
		}
		put(pg.MutRemoveNode, hole, nil)
	}
	for id := range g.NextEdgeID() {
		if e := g.Edge(id); e != nil {
			put(pg.MutAddEdge, nil, e)
			continue
		}
		hole := &pg.Edge{ID: id}
		put(pg.MutAddEdge, nil, hole)
		put(pg.MutRemoveEdge, nil, hole)
	}
	if hole0 != nil {
		put(pg.MutRemoveNode, hole0, nil)
	}
	return buf, err
}

// readSnapshot loads and verifies the snapshot at path.
func readSnapshot(path string) (*pg.Graph, []EpochMark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: reading snapshot: %w", err)
	}
	g, marks, err := DecodeSnapshotMarks(data)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: snapshot %s: %w", path, err)
	}
	return g, marks, nil
}

// DecodeSnapshotMarks verifies the contents of a snapshot file and rebuilds
// the graph and epoch history it holds. Corruption — wrong magic, bad
// trailer, checksum mismatch, a frame that does not decode or replay, a seq
// that does not match the graph — is an error, and so is an old format
// (wrapping errOldSnapshot). The replication follower runs the bytes a
// leader ships through it, so a snapshot corrupted on the wire is rejected
// by the same checks that reject one corrupted on disk.
func DecodeSnapshotMarks(data []byte) (*pg.Graph, []EpochMark, error) {
	if len(data) < len(snapMagic)+snapTrailerLen {
		return nil, nil, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	switch magic := string(data[:len(snapMagic)]); magic {
	case snapMagic:
	case "VKGSNAP1", "VKGSNAP2":
		return nil, nil, fmt.Errorf("%w: %s holds a gob payload; this build reads %s only", errOldSnapshot, magic, snapMagic)
	default:
		return nil, nil, fmt.Errorf("persist: not a snapshot (magic %q)", magic)
	}
	payload := data[len(snapMagic) : len(data)-snapTrailerLen]
	trailer := data[len(data)-snapTrailerLen:]
	if wantLen := binary.LittleEndian.Uint64(trailer[0:8]); wantLen != uint64(len(payload)) {
		return nil, nil, fmt.Errorf("persist: snapshot length %d != trailer %d", len(payload), wantLen)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(trailer[8:12]); got != want {
		return nil, nil, fmt.Errorf("persist: snapshot checksum %08x != trailer %08x", got, want)
	}
	if len(payload) < 4 {
		return nil, nil, fmt.Errorf("persist: snapshot epoch header truncated")
	}
	count := uint64(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if count*16+16 > uint64(len(payload)) {
		return nil, nil, fmt.Errorf("persist: snapshot epoch count %d exceeds payload", count)
	}
	var marks []EpochMark
	for i := range count {
		marks = append(marks, EpochMark{
			Epoch:    binary.LittleEndian.Uint64(payload[i*16:]),
			StartSeq: int64(binary.LittleEndian.Uint64(payload[i*16+8:])),
		})
	}
	payload = payload[count*16:]
	weightEdits := int64(binary.LittleEndian.Uint64(payload))
	seq := int64(binary.LittleEndian.Uint64(payload[8:]))

	g := pg.New()
	_, torn, err := replayFrames(payload[16:], func(r Record) error {
		if r.Mutation.Kind == 0 {
			return fmt.Errorf("persist: epoch record among a snapshot's frames")
		}
		_, err := g.Replay(r.Mutation)
		return err
	})
	if err == nil && torn {
		err = fmt.Errorf("persist: torn frame")
	}
	if err != nil {
		return nil, nil, fmt.Errorf("persist: snapshot frames: %w", err)
	}
	g.SetWeightEdits(weightEdits)
	if g.Seq() != seq {
		return nil, nil, fmt.Errorf("persist: snapshot rebuilds seq %d, header says %d", g.Seq(), seq)
	}
	return g, marks, nil
}

func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.vsnap", gen))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016d.log", gen))
}

// syncDir fsyncs a directory so renames and creates within it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("persist: opening dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("persist: syncing dir: %w", err)
	}
	return nil
}
