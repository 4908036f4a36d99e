package replication

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vadalink/internal/faultinject"
	"vadalink/internal/persist"
)

// LeaderOptions tunes the serving side of replication.
type LeaderOptions struct {
	// Heartbeat is how often an idle stream sends a 'P' message so
	// followers can measure freshness. Default 500ms.
	Heartbeat time.Duration
	// RequestTimeout bounds how long the leader waits for a follower's
	// request line before dropping the connection. Default 10s.
	RequestTimeout time.Duration
	// OnHigherEpoch, when set, is called whenever the leader observes a
	// higher epoch than its own — in a follower's stream request or in a
	// durable ack. A replica-group node steps down on it: someone fenced a
	// newer epoch, so this leader is deposed and must stop acknowledging.
	OnHigherEpoch func(epoch uint64)
	// API is this leader's advertised HTTP API address, stamped into every
	// stream hello so followers learn where writes belong without static
	// configuration.
	API string
	// Logger receives connection lifecycle events. Default: discard.
	Logger *slog.Logger
}

// LeaderStatus is a snapshot of the leader's replication counters.
type LeaderStatus struct {
	Connected        int64  `json:"connectedFollowers"`
	Accepted         int64  `json:"accepted"`
	FramesShipped    int64  `json:"framesShipped"`
	SnapshotsShipped int64  `json:"snapshotsShipped"`
	Seq              int64  `json:"seq"`
	Epoch            uint64 `json:"epoch,omitempty"`
	Addr             string `json:"addr,omitempty"`
}

// Leader serves a Store's WAL as a replication stream. One Leader serves
// any number of concurrent followers; each connection gets its own reader
// over the log file, so a slow follower never stalls a fast one — or the
// writer.
type Leader struct {
	store *persist.Store
	opts  LeaderOptions

	connected atomic.Int64
	accepted  atomic.Int64
	frames    atomic.Int64
	snapshots atomic.Int64
	addr      atomic.Value // string

	// acks tracks each follower's latest durable ack, keyed by its node ID
	// (fallback: remote address). Entries are never evicted — replica
	// groups are small — and reconnecting followers overwrite their slot.
	ackMu sync.Mutex
	acks  map[string]ackState

	// changed fires on every durable ack, and the node layer fires it on
	// every deposition and role change: the events Node.Commit waits on.
	changed broadcast
}

// broadcast wakes every waiter at once: a waiter takes wait() before it
// checks its condition, then blocks on the channel; fire closes it.
type broadcast struct {
	mu sync.Mutex
	ch chan struct{}
}

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

func (b *broadcast) fire() {
	b.mu.Lock()
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
	b.mu.Unlock()
}

// ackState is one follower's newest durable ack and when it arrived.
type ackState struct {
	seq   int64
	epoch uint64
	at    time.Time
}

// NewLeader wraps a store with a replication serving tier. The store keeps
// working exactly as before; the leader only ever reads its files.
func NewLeader(store *persist.Store, opts LeaderOptions) *Leader {
	if opts.Heartbeat <= 0 {
		opts.Heartbeat = 500 * time.Millisecond
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Leader{store: store, opts: opts, acks: make(map[string]ackState)}
}

// Addr reports the listener address once Serve is running ("" before).
func (l *Leader) Addr() string {
	if v, ok := l.addr.Load().(string); ok {
		return v
	}
	return ""
}

// Status snapshots the leader's counters.
func (l *Leader) Status() LeaderStatus {
	return LeaderStatus{
		Connected:        l.connected.Load(),
		Accepted:         l.accepted.Load(),
		FramesShipped:    l.frames.Load(),
		SnapshotsShipped: l.snapshots.Load(),
		Seq:              l.store.Seq(),
		Epoch:            l.store.Epoch(),
		Addr:             l.Addr(),
	}
}

// observeAck records one follower's durable-progress line. An ack from a
// higher epoch means this leader was deposed while it wasn't looking.
func (l *Leader) observeAck(id string, a ack) {
	l.ackMu.Lock()
	cur := l.acks[id]
	if a.Epoch > cur.epoch || (a.Epoch == cur.epoch && a.Seq >= cur.seq) {
		l.acks[id] = ackState{seq: a.Seq, epoch: a.Epoch, at: time.Now()}
	}
	l.ackMu.Unlock()
	if a.Epoch > l.store.Epoch() && l.opts.OnHigherEpoch != nil {
		l.opts.OnHigherEpoch(a.Epoch)
	}
	l.changed.fire()
}

// AckedAtLeast counts distinct followers whose newest durable ack covers
// seq, carries exactly epoch, and arrived within window. The replica-group
// leader uses it both as the commit barrier (majority-1 followers hold the
// fact fsynced at the current epoch) and as the lease signal (fresh acks
// prove the followers still follow this leader).
func (l *Leader) AckedAtLeast(seq int64, epoch uint64, window time.Duration) int {
	l.ackMu.Lock()
	defer l.ackMu.Unlock()
	n := 0
	now := time.Now()
	for _, a := range l.acks {
		if a.seq >= seq && a.epoch == epoch && now.Sub(a.at) <= window {
			n++
		}
	}
	return n
}

// Serve accepts follower connections on ln until ctx is cancelled. Each
// follower is handled on its own goroutine; Serve returns only after every
// stream has wound down.
func (l *Leader) Serve(ctx context.Context, ln net.Listener) error {
	l.addr.Store(ln.Addr().String())
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("replication: accept: %w", err)
		}
		if ferr := faultinject.FireErr(faultinject.SiteReplAccept); ferr != nil {
			// Injected accept-time crash: the follower sees the connection
			// vanish before the hello, exactly like a leader dying between
			// accept and negotiate.
			conn.Close()
			continue
		}
		l.accepted.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.connected.Add(1)
			defer l.connected.Add(-1)
			// Cancellation closes the socket out from under the stream
			// loop, which surfaces as a write/read error and unwinds it.
			stopConn := context.AfterFunc(ctx, func() { conn.Close() })
			defer stopConn()
			defer conn.Close()
			if err := l.handle(ctx, conn); err != nil && ctx.Err() == nil {
				l.opts.Logger.Debug("replication stream ended", "remote", conn.RemoteAddr().String(), "err", err)
			}
		}()
	}
}

// handle negotiates with one follower and streams until error, rotation or
// cancellation.
func (l *Leader) handle(ctx context.Context, conn net.Conn) error {
	req, br, err := readRequest(conn, l.opts.RequestTimeout)
	if err != nil {
		return err
	}
	return l.serveStream(ctx, conn, br, req)
}

// readRequest reads and validates the single JSON request line that opens
// every connection. The returned reader holds any bytes read past the
// newline (the follower's first ack may already be buffered behind it).
func readRequest(conn net.Conn, timeout time.Duration) (request, *bufio.Reader, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	br := bufio.NewReaderSize(conn, 4096)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return request{}, nil, fmt.Errorf("replication: reading request: %w", err)
	}
	var req request
	if err := json.Unmarshal(line, &req); err != nil || req.Seq < 0 {
		return request{}, nil, fmt.Errorf("replication: bad request %q", line)
	}
	conn.SetReadDeadline(time.Time{})
	return req, br, nil
}

// serveStream answers one stream request: negotiate a start position, ship
// a bootstrap snapshot if needed, then stream frames while a side goroutine
// consumes the follower's durable-ack lines off the same connection.
func (l *Leader) serveStream(ctx context.Context, conn net.Conn, br *bufio.Reader, req request) error {
	myEpoch := l.store.Epoch()
	if req.Epoch > myEpoch {
		// The follower is fenced into a newer epoch than ours: we are the
		// deposed one. Tell the node layer, answer not-a-leader, drop.
		if l.opts.OnHigherEpoch != nil {
			l.opts.OnHigherEpoch(req.Epoch)
		}
		hb, err := json.Marshal(hello{Epoch: myEpoch, NotLeader: true})
		if err != nil {
			return err
		}
		_ = l.send(conn, msgHello, hb)
		return fmt.Errorf("replication: follower at epoch %d outranks leader at %d", req.Epoch, myEpoch)
	}

	gen, base, seqNow := l.store.Position()
	h := hello{Gen: gen, Base: base, From: req.Seq, LeaderSeq: seqNow,
		Epoch: myEpoch, Marks: l.store.EpochMarks(), LeaderAPI: l.opts.API}
	switch {
	case req.Seq > seqNow:
		// The follower holds mutations this leader never durably had — the
		// leader lost an unsynced tail in a crash and the follower applied
		// it before the loss. The leader's durable state is authoritative;
		// the follower must discard and re-bootstrap.
		h.Reset = true
		h.Snapshot = gen > 0
		h.From = base
	case l.store.DivergedSince(req.LastEpoch, req.Seq):
		// The follower's tail was written under an epoch that a later fence
		// cut off: its last records are not a prefix of this history. The
		// reset bootstrap is the "truncate the divergent tail" step — the
		// follower discards local state and adopts the fenced history.
		h.Reset = true
		h.Snapshot = gen > 0
		h.From = base
	case req.Seq < base:
		// Lagged past log truncation: the frames between the follower's
		// position and base were rotated away. Bootstrap from the current
		// generation's snapshot (generation 0 has none — the base state is
		// the empty graph).
		h.Snapshot = gen > 0
		h.From = base
	}

	hb, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := l.send(conn, msgHello, hb); err != nil {
		return err
	}
	if h.Snapshot {
		snap, err := os.ReadFile(l.store.SnapshotFile(gen))
		if err != nil {
			return fmt.Errorf("replication: reading snapshot for bootstrap: %w", err)
		}
		if err := l.send(conn, msgSnapshot, snap); err != nil {
			return err
		}
		l.snapshots.Add(1)
	}

	// Drain the follower's ack lines for the life of the stream. The reader
	// owns br; closing the connection (below, or via Serve's AfterFunc)
	// unblocks it.
	ackID := req.ID
	if ackID == "" {
		ackID = conn.RemoteAddr().String()
	}
	ackerDone := make(chan struct{})
	go func() {
		defer close(ackerDone)
		for {
			line, err := br.ReadBytes('\n')
			if err != nil {
				return
			}
			var a ack
			if json.Unmarshal(line, &a) != nil || a.Seq < 0 {
				return
			}
			l.observeAck(ackID, a)
		}
	}()
	err = l.stream(ctx, conn, gen, h.From-base)
	conn.Close()
	<-ackerDone
	return err
}

// stream ships WAL frames of generation gen starting at frame index
// skip, then follows the file as it grows, waking on the store's flush
// signal (persist.Store.Flushed) and otherwise only to heartbeat an idle
// follower. It returns nil when the store rotates to a new generation and
// every frame of the old one has been shipped — the follower reconnects
// and renegotiates at the new base.
func (l *Leader) stream(ctx context.Context, conn net.Conn, gen uint64, skip int64) error {
	f, err := os.Open(l.store.WALFile(gen))
	if err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("replication: opening wal for streaming: %w", err)
		}
		// A fresh generation may not have a WAL file yet (no mutation since
		// rotation). Treat it as empty and retry the open on each wake-up.
		f = nil
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()

	var (
		buf      []byte // bytes read but not yet cut into frames
		chunk    = make([]byte, 64<<10)
		lastSend = time.Now()
		hbEvery  = l.opts.Heartbeat
	)
	for {
		if ctx.Err() != nil {
			return nil
		}
		// Take the flush signal before draining: a flush or rotation that
		// lands after this line closes it, so the wait below cannot sleep
		// through bytes the drain missed.
		flushed := l.store.Flushed()
		// Drain what the file has beyond what we've consumed.
		grew := false
		if f == nil {
			if nf, err := os.Open(l.store.WALFile(gen)); err == nil {
				f = nf
			}
		}
		for f != nil {
			n, err := f.Read(chunk)
			if n > 0 {
				buf = append(buf, chunk[:n]...)
				grew = true
			}
			if err != nil {
				if errors.Is(err, io.EOF) {
					break
				}
				return fmt.Errorf("replication: reading wal: %w", err)
			}
			if n == 0 {
				break
			}
		}
		// Cut complete frames out of the buffer and ship them.
		for {
			n, ok := persist.NextFrame(buf)
			if !ok {
				break
			}
			frame := buf[:n:n]
			buf = buf[n:]
			// Epoch marks are sequence-neutral: they never consume the skip
			// budget (which counts mutations the follower already holds) and
			// always ship — a follower that already holds the mark ignores
			// it, one that doesn't needs it to fence correctly.
			if op, ok := persist.FrameOp(frame); ok && op == persist.OpEpoch {
				if err := l.send(conn, msgFrame, frame); err != nil {
					return err
				}
				l.frames.Add(1)
				lastSend = time.Now()
				continue
			}
			if skip > 0 {
				skip--
				continue
			}
			if ferr := faultinject.FireErr(faultinject.SiteReplFrame); ferr != nil {
				// Injected wire corruption: flip one payload byte in a copy
				// (never in the file's bytes). The follower's CRC re-check
				// must reject it.
				frame = append([]byte(nil), frame...)
				frame[len(frame)-1] ^= 0x01
			}
			if err := l.send(conn, msgFrame, frame); err != nil {
				return err
			}
			l.frames.Add(1)
			lastSend = time.Now()
		}
		if grew {
			continue // more may already be in the file
		}
		// File is drained. If the store rotated, this generation is final
		// and fully shipped — end the stream so the follower renegotiates.
		if curGen, _, _ := l.store.Position(); curGen != gen && len(buf) == 0 {
			return nil
		}
		if time.Since(lastSend) >= hbEvery {
			if ferr := faultinject.FireErr(faultinject.SiteReplHeartbeat); ferr != nil {
				// Injected heartbeat loss: the connection stays up but goes
				// mute, so follower lease deadlines expire under a live
				// leader. Stamp lastSend so the silence persists.
				lastSend = time.Now()
				continue
			}
			hb, err := json.Marshal(heartbeat{Seq: l.store.Seq(), Epoch: l.store.Epoch()})
			if err != nil {
				return err
			}
			if err := l.send(conn, msgHeartbeat, hb); err != nil {
				return err
			}
			lastSend = time.Now()
		}
		// Sleep until the WAL flushes or rotates, or the heartbeat is due.
		hb := time.NewTimer(hbEvery - time.Since(lastSend))
		select {
		case <-ctx.Done():
		case <-flushed:
		case <-hb.C:
		}
		hb.Stop()
	}
}

// send writes one protocol message. The injected fault here cuts the stream
// mid-message: half the bytes go out, then the connection dies — the
// follower must treat the torn message as a disconnect, not as data.
func (l *Leader) send(conn net.Conn, typ byte, payload []byte) error {
	msg := encodeMsg(typ, payload)
	if ferr := faultinject.FireErr(faultinject.SiteReplSend); ferr != nil {
		_, _ = conn.Write(msg[:len(msg)/2])
		conn.Close()
		return fmt.Errorf("replication: injected stream cut: %w", ferr)
	}
	if _, err := conn.Write(msg); err != nil {
		return fmt.Errorf("replication: writing %q message: %w", typ, err)
	}
	return nil
}
