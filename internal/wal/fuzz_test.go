package wal

import (
	"bytes"
	"testing"
	"testing/iotest"
)

// FuzzWALDecode hammers the segment replay with truncated, bit-flipped,
// and adversarial inputs. Invariants: never panic, account for every
// byte as either valid prefix or torn tail, never accept a record whose
// re-encoding differs, and always make progress on valid prefixes.
func FuzzWALDecode(f *testing.F) {
	valid := appendRecord(nil, 1, []byte("observation batch"))
	valid = appendRecord(valid, 2, []byte{})
	valid = appendRecord(valid, 3, bytes.Repeat([]byte{0xAA}, 300))
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // torn tail
	f.Add(valid[:headerSize-1]) // partial header
	f.Add([]byte{})             // empty log
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+2] ^= 0x01 // payload bit flip
	f.Add(flipped)
	huge := make([]byte, headerSize)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F // absurd length prefix
	f.Add(huge)

	const maxPayload = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		var replayed int
		// A small first buffer and half-size reads drive the refill,
		// compaction, and growth paths a real segment rarely reaches.
		sr := segReader{maxRec: maxPayload, buf: make([]byte, 1+len(data)%24)}
		sr.reset(iotest.HalfReader(bytes.NewReader(data)), 1, -1)
		records, torn, err := sr.replay(func(seq uint64, payload []byte) error {
			if seq != uint64(replayed+1) {
				t.Fatalf("out-of-order replay: seq %d at position %d", seq, replayed)
			}
			if len(payload) > maxPayload {
				t.Fatalf("payload of %d bytes exceeds cap", len(payload))
			}
			replayed++
			return nil
		})
		if err != nil {
			t.Fatalf("replay error without a failing reader or callback: %v", err)
		}
		off := sr.off
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside [0, %d]", off, len(data))
		}
		if records != replayed {
			t.Fatalf("records=%d but callback ran %d times", records, replayed)
		}
		if off+torn != int64(len(data)) {
			t.Fatalf("valid prefix %d + torn %d != %d bytes", off, torn, len(data))
		}
		// Every accepted record must re-encode to the exact bytes read:
		// the scanner accepts nothing it could not itself have written.
		var reenc []byte
		seq := uint64(1)
		scanOff := 0
		for i := 0; i < records; i++ {
			_, payload, n, derr := decodeRecord(data[scanOff:], maxPayload)
			if derr != nil {
				t.Fatalf("record %d unreadable on second pass: %v", i, derr)
			}
			reenc = appendRecord(reenc[:0], seq, payload)
			if !bytes.Equal(reenc, data[scanOff:scanOff+n]) {
				t.Fatalf("record %d does not round-trip", i)
			}
			scanOff += n
			seq++
		}
	})
}
