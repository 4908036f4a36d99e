package persist

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"vadalink/internal/pg"
)

// FuzzWALDecode feeds arbitrary bytes — truncations, bit flips, hostile
// lengths — through the frame scanner and record decoder. The invariants
// under attack:
//
//   - neither ever panics or over-allocates on a lying length prefix;
//   - scanFrames' goodLen is always a valid frame boundary within the input;
//   - any record that decodes reaches an encoding fixed point: encoding it
//     and decoding that again yields byte-identical output (so state can
//     cycle through log→memory→log forever without silent drift).
func FuzzWALDecode(f *testing.F) {
	seedRecords := []Record{
		addNodeRec(0, "Company", nil),
		addNodeRec(42, "Person", map[string]any{"name": "A", "w": 0.5, "n": int64(9), "b": true}),
		addEdgeRec(3, "Shareholding", 1, 2, map[string]any{"weight": 0.51}),
		removeEdgeRec(3),
		weightRec(3, 0.25),
		removeNodeRec(2),
		epochRec(7, 3),
	}
	for _, r := range seedRecords {
		payload, err := appendRecord(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
		f.Add(encodeFrameBytes(payload))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) // huge length prefix
	f.Fuzz(func(t *testing.T, data []byte) {
		// The record decoder must be total — a failed decode returns an
		// error, never a panic — and encode∘decode must be a fixed point.
		if rec, err := decodeRecord(data); err == nil {
			enc1, err := appendRecord(nil, rec)
			if err != nil {
				t.Fatalf("decoded record %+v does not re-encode: %v", rec, err)
			}
			rec2, err := decodeRecord(enc1)
			if err != nil {
				t.Fatalf("re-encoded record does not decode: %v", err)
			}
			enc2, err := appendRecord(nil, rec2)
			if err != nil {
				t.Fatalf("twice-decoded record does not re-encode: %v", err)
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("encoding not a fixed point:\n 1st %x\n 2nd %x", enc1, enc2)
			}
		}
		// The frame scanner must stop at a frame boundary inside the input.
		goodLen, _, _ := scanFrames(data, func(payload []byte) error {
			_, _ = decodeRecord(payload) // decoding corrupt-but-CRC-valid payloads must not panic
			return nil
		})
		if goodLen < 0 || goodLen > len(data) {
			t.Fatalf("goodLen %d outside input of %d bytes", goodLen, len(data))
		}
	})
}

func encodeFrameBytes(payload []byte) []byte {
	frame := make([]byte, frameHeaderLen, frameHeaderLen+len(payload))
	putFrameHeader(frame, payload)
	return append(frame, payload...)
}

// FuzzDecodeSnapshot feeds arbitrary bytes through DecodeSnapshotMarks, the
// decoder a follower runs on every shipped snapshot: as a whole file, and
// sealed as a payload with a valid trailer so mutations reach the frames
// past the checksum. It must never panic, and whatever it accepts must
// re-encode and decode to an equal graph, seq and epoch history — compared
// by their canonical encoding, which is exact even for NaN properties.
func FuzzDecodeSnapshot(f *testing.F) {
	golden, err := hex.DecodeString(goldenSnapshotHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[len(snapMagic) : len(golden)-snapTrailerLen])
	f.Add(encodeSnapshot(f, pg.New(), nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(data)} {
			g, marks, err := DecodeSnapshotMarks(in)
			if err != nil {
				continue
			}
			enc := encodeSnapshot(t, g, marks)
			again, againMarks, err := DecodeSnapshotMarks(enc)
			if err != nil {
				t.Fatalf("accepted snapshot re-encodes to one that is refused: %v", err)
			}
			if again.Seq() != g.Seq() || !reflect.DeepEqual(againMarks, marks) ||
				!bytes.Equal(encodeSnapshot(t, again, againMarks), enc) {
				t.Fatalf("accepted snapshot does not survive a re-encoding")
			}
		}
	})
}
