// Package replication ships the write-ahead log from a leader to followers
// over a plain TCP stream, and runs self-healing replica groups on top of it
// (node.go).
//
// The protocol is deliberately small. Every connection opens with one JSON
// request line (see request); the answering side replies with typed
// messages, and a streaming follower writes durable-ack lines back:
//
//	requester → answerer:  {"seq": N, "epoch": E, ...}\n   (single request line)
//	answerer → requester:  [1-byte type][u32le length][payload]...
//	follower → leader:     {"ack": N, "epoch": E}\n ...    (stream only)
//
// The request line has three shapes: a stream request (the follower's seq,
// epoch and identity), a status probe and a fence request. Message types:
//
//	'H'  hello      JSON: generation, base, first shipped seq, whether a
//	                snapshot precedes the frames, whether the follower must
//	                discard local state, the leader's current seq, epoch,
//	                epoch history and API address — or notLeader with a hint
//	                of who leads.
//	'S'  snapshot   one snapshot file, byte-for-byte (VKGSNAP3: the epoch
//	                header, then the graph as WAL frames, which the follower
//	                verifies and replays with the same code used on disk).
//	'F'  frame      one WAL frame, byte-for-byte ([len][crc][payload]); the
//	                follower re-verifies the CRC, so corruption on the wire
//	                is detected exactly like corruption on disk.
//	'P'  heartbeat  JSON: the leader's current seq and epoch, sent when the
//	                stream has been idle for a heartbeat interval; lets an
//	                idle follower measure its freshness and renews the lease.
//	'T'  status     JSON PeerStatus: the one-shot answer to a probe or fence
//	                request, after which the connection closes.
//
// A follower acks (fsync, then the ack line) after the handshake, after
// every heartbeat and whenever it has drained a burst of frames; the leader
// counts fresh acks to renew its lease and to release Node.Commit.
//
// The sequence number is a pure function of graph state
// (pg.Graph.Seq), so position negotiation is stateless: any anomaly —
// torn stream, bad frame, rotation, leader restart — is handled by dropping
// the connection and reconnecting with whatever sequence number the
// follower's recovered graph implies. Acks are progress reports, not session
// state: a lost one is superseded by the next.
package replication

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"vadalink/internal/persist"
)

// Protocol message types.
const (
	msgHello     byte = 'H'
	msgSnapshot  byte = 'S'
	msgFrame     byte = 'F'
	msgHeartbeat byte = 'P'
	// msgStatus is a replica-group peer's one-shot reply to a probe or
	// fence request: a PeerStatus JSON payload, then the connection closes.
	msgStatus byte = 'T'
)

// msgHeaderLen = 1 type byte + u32le payload length.
const msgHeaderLen = 5

// maxMsgLen bounds one message; a longer length in a header is treated as
// corruption, not an allocation request. Snapshots are the only large
// payloads and a 256 MiB graph snapshot is far beyond anything this system
// serves.
const maxMsgLen = 256 << 20

// hello is the leader's first message on every connection: where the stream
// starts and what the follower must do to receive it.
type hello struct {
	// Gen is the leader's current WAL generation.
	Gen uint64 `json:"gen"`
	// Base is the sequence number at the start of that generation's WAL.
	Base int64 `json:"base"`
	// From is the sequence number of the first frame that will be shipped;
	// after any snapshot is applied the follower must be at exactly From.
	From int64 `json:"from"`
	// Snapshot announces an 'S' message before the first frame.
	Snapshot bool `json:"snapshot"`
	// Reset tells the follower its local state is ahead of (or diverged
	// from) the leader — discard it and adopt the bootstrap state. Set when
	// a leader lost unsynced tail writes in a crash.
	Reset bool `json:"reset"`
	// LeaderSeq is the leader's sequence number at connection time.
	LeaderSeq int64 `json:"leaderSeq"`
	// Epoch is the leader's replication epoch. A follower whose own durable
	// epoch is higher knows this leader is deposed and must drop the stream.
	Epoch uint64 `json:"epoch,omitempty"`
	// Marks is the leader's full epoch history. A follower resuming
	// mid-generation adopts any marks it is missing here — the OpEpoch
	// frames that carried them may live in WAL generations already rotated
	// away, so the handshake is the only reliable carrier.
	Marks []persist.EpochMark `json:"marks,omitempty"`
	// NotLeader means the answering node is not the group's leader and will
	// not stream; Leader/LeaderAPI carry its best hint of who is (may be
	// empty when unknown). The follower redials the hinted address. On a
	// successful stream (NotLeader false) LeaderAPI is the streaming
	// leader's OWN advertised API address, so followers learn where writes
	// belong from the handshake alone.
	NotLeader bool   `json:"notLeader,omitempty"`
	Leader    string `json:"leader,omitempty"`
	LeaderAPI string `json:"leaderAPI,omitempty"`
}

// heartbeat is the leader's periodic 'P' payload. Epoch stamps the liveness
// signal: a follower fenced into a newer epoch rejects heartbeats from the
// deposed epoch instead of treating them as leader health.
type heartbeat struct {
	Seq   int64  `json:"seq"`
	Epoch uint64 `json:"epoch,omitempty"`
}

// request is the connecting side's single JSON request line. Three shapes
// share it: a stream request (Seq set, the PR 5 protocol), a status probe
// (Probe true — the peer answers one msgStatus and closes), and a fence
// request (Fence > 0 — a promotion candidate asking the peer to durably
// enter a new epoch).
type request struct {
	Seq int64 `json:"seq"`
	// Epoch is the requester's durable replication epoch (its newest fence
	// mark, whether or not facts followed it). A leader outranked by it
	// knows it is deposed.
	Epoch uint64 `json:"epoch,omitempty"`
	// LastEpoch is the epoch under which the requester's newest FACT was
	// written (persist.Store.LastEpoch). The leader uses it, with Seq, to
	// detect a fenced-off divergent tail; elections and fence grants use it
	// to order candidate histories. Distinct from Epoch: a granted fence
	// advances Epoch without validating the facts beneath it.
	LastEpoch uint64 `json:"lastEpoch,omitempty"`
	// ID identifies the requesting node across reconnects (its advertised
	// replication address); the leader keys durable-ack tracking by it.
	ID string `json:"id,omitempty"`
	// API is the requester's advertised HTTP API address, forwarded to
	// followers as the leader hint when the requester wins an election.
	API string `json:"api,omitempty"`
	// Probe asks for a one-shot PeerStatus instead of a stream.
	Probe bool `json:"probe,omitempty"`
	// Fence, when non-zero, asks the peer to durably fence itself into
	// epoch Fence, granted only if Fence advances the peer's epoch, the
	// peer's leader contact is stale, and the candidate's history
	// (LastEpoch, FenceStart) is at least as up to date as the peer's — so
	// no fact the peer may have acknowledged can be orphaned.
	Fence      uint64 `json:"fence,omitempty"`
	FenceStart int64  `json:"fenceStart,omitempty"`
}

// ack is the follower→leader durable-progress line, sent on the same
// connection as the stream: "everything up to Seq is fsynced here, and my
// epoch is Epoch". The leader counts distinct fresh epoch-matching acks to
// renew its lease and to release quorum-committed writes.
type ack struct {
	Seq   int64  `json:"ack"`
	Epoch uint64 `json:"epoch"`
}

// PeerStatus is the msgStatus payload: one node's view of itself and of the
// group's leadership, answered to probes and fence requests.
type PeerStatus struct {
	Addr  string `json:"addr"`
	Role  string `json:"role"` // "leader" or "follower"
	Epoch uint64 `json:"epoch"`
	// LastEpoch is the epoch of the peer's newest fact (see request); with
	// Seq it is the peer's history identity, compared lexicographically to
	// pick election candidates.
	LastEpoch uint64 `json:"lastEpoch"`
	Seq       int64  `json:"seq"`
	// LeaderAddr/LeaderAPI are the peer's current belief of the leader.
	LeaderAddr string `json:"leaderAddr,omitempty"`
	LeaderAPI  string `json:"leaderAPI,omitempty"`
	// LeaderFreshMS is how long ago the peer last heard from a live leader
	// (0 when the peer is the leader; -1 when it never heard from one).
	LeaderFreshMS int64 `json:"leaderFreshMillis"`
	// Granted reports whether a fence request was granted.
	Granted bool `json:"granted,omitempty"`
}

// encodeMsg wraps a payload in the wire envelope.
func encodeMsg(typ byte, payload []byte) []byte {
	msg := make([]byte, msgHeaderLen, msgHeaderLen+len(payload))
	msg[0] = typ
	binary.LittleEndian.PutUint32(msg[1:5], uint32(len(payload)))
	return append(msg, payload...)
}

// readMsg reads one complete message. Short reads, absurd lengths and
// unknown types are errors — the caller's only recovery is to drop the
// connection and renegotiate.
func readMsg(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [msgHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	typ = hdr[0]
	switch typ {
	case msgHello, msgSnapshot, msgFrame, msgHeartbeat, msgStatus:
	default:
		return 0, nil, fmt.Errorf("replication: unknown message type %q", typ)
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxMsgLen {
		return 0, nil, fmt.Errorf("replication: message length %d exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("replication: short message body: %w", err)
	}
	return typ, payload, nil
}

// decodeJSON strictly parses a JSON payload into v.
func decodeJSON(payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("replication: bad message payload: %w", err)
	}
	return nil
}
