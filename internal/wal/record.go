// Record format: the length-prefixed, CRC32C-checksummed frame every
// observation batch is appended as. The codec is isolated here (pure
// functions over byte slices, no I/O) so the fuzzer can hammer it
// directly with truncated and bit-flipped inputs.
package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record layout, little-endian:
//
//	offset 0  uint32  payload length
//	offset 4  uint32  CRC32C over seq bytes + payload
//	offset 8  uint64  sequence number
//	offset 16 []byte  payload
const headerSize = 16

// castagnoli is the CRC32C table; CRC32C has hardware support on every
// deployment target and catches the bit flips and torn tails a plain
// length prefix cannot.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. errShort marks a frame that does not fit the
// remaining bytes — at the end of a segment that is a torn tail, not
// corruption.
var (
	errShort    = errors.New("wal: record extends past end of data")
	errTooBig   = errors.New("wal: record length exceeds the record cap")
	errChecksum = errors.New("wal: record checksum mismatch")
)

// appendRecord encodes one record onto buf and returns the extended
// slice.
func appendRecord(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	crc := crc32.Update(0, castagnoli, hdr[8:16])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc)
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// decodeRecord reads one record from the front of b. It returns the
// sequence number, the payload (aliasing b), and the encoded size.
// maxPayload bounds the length field so a corrupt prefix cannot demand
// gigabytes.
func decodeRecord(b []byte, maxPayload int) (seq uint64, payload []byte, n int, err error) {
	if len(b) < headerSize {
		return 0, nil, 0, errShort
	}
	plen := int(binary.LittleEndian.Uint32(b[0:4]))
	if plen > maxPayload {
		return 0, nil, 0, errTooBig
	}
	if len(b) < headerSize+plen {
		return 0, nil, 0, errShort
	}
	crc := crc32.Update(0, castagnoli, b[8:16])
	crc = crc32.Update(crc, castagnoli, b[headerSize:headerSize+plen])
	if crc != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, nil, 0, errChecksum
	}
	seq = binary.LittleEndian.Uint64(b[8:16])
	return seq, b[headerSize : headerSize+plen], headerSize + plen, nil
}
