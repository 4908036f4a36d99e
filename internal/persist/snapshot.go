// Checksummed full snapshots. A snapshot file wraps the internal/store
// binary format (which preserves IDs and counters) in an envelope that makes
// corruption detectable:
//
//	[8-byte magic "VKGSNAP2"][epoch header][store payload][u64le payload length][u32le CRC32C(payload)]
//
// where the epoch header is [u32le count][count × (u64le epoch, u64le
// startSeq)] — the replication-epoch history, inside the checksummed
// payload so a corrupted mark is caught like any other corruption.
// VKGSNAP1 files (no epoch header) still load, as epoch history ∅.
//
// Publication is crash-atomic: the body is written to a temp file in the
// same directory, fsynced, renamed over the final name, and the directory
// fsynced — a crash at any point leaves either the previous snapshot or the
// new one, never a half-written file under the real name. A snapshot that
// fails its trailer check on load is skipped, falling back to the previous
// generation plus the surviving WALs.
package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"vadalink/internal/faultinject"
	"vadalink/internal/pg"
	"vadalink/internal/store"
)

const (
	snapMagicV1 = "VKGSNAP1"
	snapMagic   = "VKGSNAP2"
)

// snapTrailerLen = u64 payload length + u32 CRC32C.
const snapTrailerLen = 12

// writeSnapshot publishes the graph (and the epoch history) as the snapshot
// for generation gen.
func writeSnapshot(dir string, gen uint64, g *pg.Graph, marks []EpochMark) (path string, bytesWritten int64, err error) {
	var body bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(marks)))
	body.Write(hdr[:])
	for _, m := range marks {
		var rec [16]byte
		binary.LittleEndian.PutUint64(rec[0:8], m.Epoch)
		binary.LittleEndian.PutUint64(rec[8:16], uint64(m.StartSeq))
		body.Write(rec[:])
	}
	if err := store.Write(&body, g); err != nil {
		return "", 0, err
	}
	payload := body.Bytes()

	final := snapPath(dir, gen)
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", 0, fmt.Errorf("persist: creating snapshot temp: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	var trailer [snapTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:8], uint64(len(payload)))
	binary.LittleEndian.PutUint32(trailer[8:12], crc32.Checksum(payload, crcTable))
	for _, chunk := range [][]byte{[]byte(snapMagic), payload, trailer[:]} {
		if _, err = tmp.Write(chunk); err != nil {
			return "", 0, fmt.Errorf("persist: writing snapshot: %w", err)
		}
	}
	if err = tmp.Sync(); err != nil {
		return "", 0, fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return "", 0, fmt.Errorf("persist: closing snapshot: %w", err)
	}
	// The crash-between-fsync-and-rename window: an injected fault here
	// leaves the temp file behind and the old generation authoritative,
	// exactly like a real crash would.
	if err = faultinject.FireErr(faultinject.SitePersistRename); err != nil {
		return "", 0, fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err = os.Rename(tmp.Name(), final); err != nil {
		return "", 0, fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	if err = syncDir(dir); err != nil {
		return "", 0, err
	}
	total := int64(len(snapMagic) + len(payload) + snapTrailerLen)
	return final, total, nil
}

// readSnapshot loads and verifies the snapshot at path. Corruption —
// wrong magic, bad trailer, checksum mismatch, undecodable payload — is an
// error; the caller falls back to an older generation.
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

// DecodeSnapshotMarks verifies and decodes the contents of a snapshot file
// (VKGSNAP2 envelope; VKGSNAP1 accepted with an empty epoch history). The
// replication follower runs the bytes a leader ships through it, so a
// snapshot corrupted on the wire is rejected by the same checks that reject
// one corrupted on disk.
func DecodeSnapshotMarks(data []byte) (*pg.Graph, []EpochMark, error) {
	if len(data) < len(snapMagic)+snapTrailerLen {
		return nil, nil, fmt.Errorf("persist: snapshot too short (%d bytes)", len(data))
	}
	magic := string(data[:len(snapMagic)])
	if magic != snapMagic && magic != snapMagicV1 {
		return nil, nil, fmt.Errorf("persist: not a snapshot (magic %q)", data[:len(snapMagic)])
	}
	payload := data[len(snapMagic) : len(data)-snapTrailerLen]
	trailer := data[len(data)-snapTrailerLen:]
	if wantLen := binary.LittleEndian.Uint64(trailer[0:8]); wantLen != uint64(len(payload)) {
		return nil, nil, fmt.Errorf("persist: snapshot length %d != trailer %d", len(payload), wantLen)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(trailer[8:12]); got != want {
		return nil, nil, fmt.Errorf("persist: snapshot checksum %08x != trailer %08x", got, want)
	}
	var marks []EpochMark
	if magic == snapMagic {
		if len(payload) < 4 {
			return nil, nil, fmt.Errorf("persist: snapshot epoch header truncated")
		}
		count := binary.LittleEndian.Uint32(payload[:4])
		payload = payload[4:]
		if uint64(count)*16 > uint64(len(payload)) {
			return nil, nil, fmt.Errorf("persist: snapshot epoch count %d exceeds payload", count)
		}
		if count > 0 {
			marks = make([]EpochMark, count)
			for i := range marks {
				marks[i] = EpochMark{
					Epoch:    binary.LittleEndian.Uint64(payload[i*16:]),
					StartSeq: int64(binary.LittleEndian.Uint64(payload[i*16+8:])),
				}
			}
			payload = payload[int(count)*16:]
		}
	}
	g, err := store.Read(bytes.NewReader(payload))
	if err != nil {
		return nil, nil, fmt.Errorf("persist: snapshot payload: %w", err)
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
