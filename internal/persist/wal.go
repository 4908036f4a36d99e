// The write-ahead log: an append-only file of length-prefixed, CRC32C-
// checksummed frames, one per graph mutation.
//
//	frame := [u32le payload length][u32le CRC32C(payload)][payload]
//
// Appends are buffered; durability is batched. A background group-commit
// loop fsyncs every SyncEvery (bounding the loss window for writes nobody
// waited on), and Sync() forces the batch down before a fact is
// acknowledged. With SyncEvery zero every append syncs inline.
//
// On fsync failure the WAL goes fail-stop: the first error is sticky and
// every later Append/Sync returns it. Retrying fsync after a failure lies
// about durability (the kernel may have dropped the dirty pages), so the
// only honest options are "stop acknowledging" or "crash"; we stop.
package persist

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"vadalink/internal/faultinject"
)

const (
	frameHeaderLen = 8
	// maxFramePayload bounds one record; anything larger in a header is
	// treated as corruption, not an allocation request.
	maxFramePayload = 16 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walWriter is the append side of the log. Safe for concurrent use.
type walWriter struct {
	mu        sync.Mutex
	f         *os.File
	bw        *bufio.Writer
	path      string
	syncEvery time.Duration
	dirty     bool
	closed    bool
	err       error // sticky first failure; fail-stop
	// onFlush runs (under mu) after every sync that put new bytes on disk.
	onFlush func()

	appends int64
	syncs   int64
	bytes   int64

	stopc  chan struct{}
	doneWG sync.WaitGroup
}

// openWAL opens (creating if needed) the log at path for appending and
// starts the group-commit loop when syncEvery > 0. onFlush, if non-nil, is
// called after each sync that flushed new frames to the file.
func openWAL(path string, syncEvery time.Duration, onFlush func()) (*walWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: opening wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat wal: %w", err)
	}
	w := &walWriter{
		f:         f,
		bw:        bufio.NewWriterSize(f, 1<<16),
		path:      path,
		syncEvery: syncEvery,
		onFlush:   onFlush,
		bytes:     st.Size(),
		stopc:     make(chan struct{}),
	}
	if syncEvery > 0 {
		w.doneWG.Add(1)
		go w.groupCommitLoop()
	}
	return w, nil
}

func (w *walWriter) groupCommitLoop() {
	defer w.doneWG.Done()
	t := time.NewTicker(w.syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = w.Sync()
		case <-w.stopc:
			return
		}
	}
}

// Append encodes r as a frame and writes it to the log buffer. It returns
// once the bytes are buffered — call Sync before acknowledging the mutation
// to anyone. With SyncEvery zero the frame is also synced before returning.
func (w *walWriter) Append(r Record) error {
	frame, err := appendFrame(nil, r)
	if err != nil {
		return w.fail(err)
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if ferr := faultinject.FireErr(faultinject.SitePersistAppend); ferr != nil {
		// Simulated torn write: half the frame reaches the file, then the
		// "process dies". Flush what made it so the torn tail is on disk for
		// the recovery path to find.
		_, _ = w.bw.Write(frame[:len(frame)/2])
		_ = w.bw.Flush()
		w.err = ferr
		return ferr
	}
	if _, err := w.bw.Write(frame); err != nil {
		w.err = fmt.Errorf("persist: appending wal record: %w", err)
		return w.err
	}
	w.dirty = true
	w.appends++
	w.bytes += int64(len(frame))
	if w.syncEvery == 0 {
		return w.syncLocked()
	}
	return nil
}

// appendFrame appends r to buf as one frame: header, then the record.
func appendFrame(buf []byte, r Record) ([]byte, error) {
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderLen)...)
	buf, err := appendRecord(buf, r)
	if err != nil {
		return nil, err
	}
	payload := buf[start+frameHeaderLen:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf, nil
}

// Sync flushes buffered frames and fsyncs the file. After Sync returns nil,
// every previously appended record survives a crash.
func (w *walWriter) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.syncLocked()
}

func (w *walWriter) syncLocked() error {
	if !w.dirty {
		return nil
	}
	if err := w.bw.Flush(); err != nil {
		w.err = fmt.Errorf("persist: flushing wal: %w", err)
		return w.err
	}
	if err := faultinject.FireErr(faultinject.SitePersistSync); err != nil {
		w.err = fmt.Errorf("persist: syncing wal: %w", err)
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("persist: syncing wal: %w", err)
		return w.err
	}
	w.dirty = false
	w.syncs++
	if w.onFlush != nil {
		w.onFlush()
	}
	return nil
}

func (w *walWriter) fail(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
	}
	return err
}

// Err returns the sticky failure, if any.
func (w *walWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the group-commit loop, syncs outstanding frames and closes
// the file. The sync error (if any) is returned — callers acking on Close
// must check it. Closing twice is a no-op.
func (w *walWriter) Close() error {
	w.mu.Lock()
	if w.closed {
		err := w.err
		w.mu.Unlock()
		return err
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stopc)
	w.doneWG.Wait()
	syncErr := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Close(); err != nil && syncErr == nil {
		syncErr = err
	}
	return syncErr
}

// stats snapshots the writer's counters.
func (w *walWriter) stats() (appends, syncs, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appends, w.syncs, w.bytes
}

// NextFrame examines the head of data for one complete, CRC-valid WAL frame
// and returns its total length (header + payload). ok is false when the
// bytes at the head are not yet (or never will be) a whole valid frame — a
// short header, an impossible length, a short payload or a checksum
// mismatch all look the same from here: wait for more bytes or give up,
// the caller knows which. The replication leader uses it to cut frames out
// of a growing log file; the follower to validate frames off the wire.
func NextFrame(data []byte) (frameLen int, ok bool) {
	if len(data) < frameHeaderLen {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(data[0:4])
	if n > maxFramePayload || int(n) > len(data)-frameHeaderLen {
		return 0, false
	}
	payload := data[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:8]) {
		return 0, false
	}
	return frameHeaderLen + int(n), true
}

// FrameOp peeks at the operation byte of a complete frame without decoding
// it. The replication leader uses it to classify frames on the hot shipping
// path: epoch marks are sequence-neutral and must not count against the
// skip arithmetic, but must always ship.
func FrameOp(frame []byte) (Op, bool) {
	if len(frame) <= frameHeaderLen {
		return 0, false
	}
	return Op(frame[frameHeaderLen]), true
}

// DecodeFrame decodes exactly one complete frame into its Record. The frame
// must be whole (NextFrame-validated length equal to len(frame)); anything
// else — including a CRC-valid payload that does not decode — is corruption.
func DecodeFrame(frame []byte) (Record, error) {
	n, ok := NextFrame(frame)
	if !ok || n != len(frame) {
		return Record{}, fmt.Errorf("persist: corrupt frame (%d bytes)", len(frame))
	}
	return decodeRecord(frame[frameHeaderLen:n])
}

// scanFrames walks the framed log in data, calling fn for each payload that
// checks out. It returns the byte offset up to which the log is valid and
// whether the tail beyond that offset is torn (short header, impossible
// length, short payload, or checksum mismatch — the signatures of a crash
// mid-write). An error from fn aborts the scan and is returned as scanErr;
// torn tails are NOT errors, they are what recovery truncates.
func scanFrames(data []byte, fn func(payload []byte) error) (goodLen int, torn bool, scanErr error) {
	off := 0
	for {
		rest := data[off:]
		if len(rest) == 0 {
			return off, false, nil
		}
		if len(rest) < frameHeaderLen {
			return off, true, nil
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		if n > maxFramePayload || int(n) > len(rest)-frameHeaderLen {
			return off, true, nil
		}
		payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rest[4:8]) {
			return off, true, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, false, err
			}
		}
		off += frameHeaderLen + int(n)
	}
}

// replayFrames decodes the framed log in data and hands each record to fn,
// in order: the one loop that rebuilds graph state, over a snapshot's frames
// and a WAL's alike. goodLen and torn are scanFrames'; a record that does
// not decode, or an error from fn, aborts the walk and is returned.
func replayFrames(data []byte, fn func(Record) error) (goodLen int, torn bool, err error) {
	return scanFrames(data, func(payload []byte) error {
		rec, err := decodeRecord(payload)
		if err != nil {
			return err
		}
		return fn(rec)
	})
}

// replayWAL reads the log at path, applies every valid record via fn, and
// truncates a torn tail in place so the next append continues from a clean
// boundary. Missing files replay as empty. It returns the number of records
// applied and whether a torn tail was cut.
func replayWAL(path string, fn func(Record) error) (records int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, false, nil
		}
		return 0, false, fmt.Errorf("persist: reading wal: %w", err)
	}
	goodLen, torn, err := replayFrames(data, func(r Record) error {
		records++
		return fn(r)
	})
	if err != nil {
		return records, torn, fmt.Errorf("persist: wal %s: %w", path, err)
	}
	if torn {
		if err := os.Truncate(path, int64(goodLen)); err != nil {
			return records, torn, fmt.Errorf("persist: truncating torn wal tail: %w", err)
		}
	}
	return records, torn, nil
}
