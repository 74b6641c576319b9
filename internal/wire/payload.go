// Per-type payload codecs. The observation codec is the hot one: its
// encoded bytes travel client → frame payload → WAL record payload
// unchanged, so a batch is serialized exactly once on the phone and
// never re-encoded server-side. The codec self-identifies with a magic
// byte, so WAL replay can tell a binary batch from any other record.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
)

// ObsMagic is the first byte of every binary observation payload. It is
// deliberately outside the ASCII range so no JSON document can start
// with it.
const ObsMagic = 0xB1

// obsVersion versions the observation payload independently of the
// frame header, because these bytes outlive the connection: they are
// replayed from the WAL across restarts and upgrades.
const obsVersion = 1

// obsEntrySize is the encoded size of one observation: u32 from, u32
// to, f64 dir, f64 off.
const obsEntrySize = 24

// obsHeaderSize is magic + version + u16 reserved + u32 count.
const obsHeaderSize = 8

var (
	errObsMagic   = errors.New("wire: not a binary observation payload")
	errObsVersion = errors.New("wire: unsupported observation payload version")
	errObsSize    = errors.New("wire: observation payload length does not match its count")
)

// IsObsPayload reports whether payload starts like a binary observation
// batch.
func IsObsPayload(payload []byte) bool {
	return len(payload) > 0 && payload[0] == ObsMagic
}

// AppendObservations encodes a batch onto buf and returns the extended
// slice.
func AppendObservations(buf []byte, obs []motiondb.Observation) []byte {
	var hdr [obsHeaderSize]byte
	hdr[0] = ObsMagic
	hdr[1] = obsVersion
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(obs)))
	buf = append(buf, hdr[:]...)
	for i := range obs {
		var e [obsEntrySize]byte
		binary.LittleEndian.PutUint32(e[0:4], uint32(obs[i].From))
		binary.LittleEndian.PutUint32(e[4:8], uint32(obs[i].To))
		binary.LittleEndian.PutUint64(e[8:16], math.Float64bits(obs[i].RLM.Dir))
		binary.LittleEndian.PutUint64(e[16:24], math.Float64bits(obs[i].RLM.Off))
		buf = append(buf, e[:]...)
	}
	return buf
}

// DecodeObservations decodes a binary observation payload into scratch
// (reused: the result reuses scratch's capacity, so steady-state
// decodes allocate nothing).
//
//moloc:reuse
func DecodeObservations(payload []byte, scratch []motiondb.Observation) ([]motiondb.Observation, error) {
	if !IsObsPayload(payload) {
		return nil, errObsMagic
	}
	if len(payload) < obsHeaderSize {
		return nil, errObsSize
	}
	if payload[1] != obsVersion {
		return nil, fmt.Errorf("%w: got %d, speak %d", errObsVersion, payload[1], obsVersion)
	}
	if payload[2] != 0 || payload[3] != 0 {
		return nil, errors.New("wire: observation payload reserved bytes are not zero")
	}
	count := int(binary.LittleEndian.Uint32(payload[4:8]))
	if len(payload) != obsHeaderSize+count*obsEntrySize {
		return nil, fmt.Errorf("%w: count %d, %d payload bytes", errObsSize, count, len(payload))
	}
	scratch = scratch[:0]
	for i := 0; i < count; i++ {
		e := payload[obsHeaderSize+i*obsEntrySize:]
		scratch = append(scratch, motiondb.Observation{
			From: int(int32(binary.LittleEndian.Uint32(e[0:4]))),
			To:   int(int32(binary.LittleEndian.Uint32(e[4:8]))),
			RLM: motion.RLM{
				Dir: math.Float64frombits(binary.LittleEndian.Uint64(e[8:16])),
				Off: math.Float64frombits(binary.LittleEndian.Uint64(e[16:24])),
			},
		})
	}
	return scratch, nil
}

// ObsCount reads the batch size out of a binary observation payload
// without decoding the entries (for metrics and replay accounting).
func ObsCount(payload []byte) (int, error) {
	if !IsObsPayload(payload) || len(payload) < obsHeaderSize {
		return 0, errObsMagic
	}
	return int(binary.LittleEndian.Uint32(payload[4:8])), nil
}

// Hello payload: u16-length-prefixed stream ID, then u16-length-prefixed
// tracking session ID (empty when the stream carries only observation
// batches).

// AppendHello encodes a hello payload onto buf.
func AppendHello(buf []byte, streamID, sessionID string) []byte {
	buf = appendString(buf, streamID)
	return appendString(buf, sessionID)
}

// DecodeHello decodes a hello payload. The returned strings are copies;
// hellos are once-per-connection, so this is off the hot path.
func DecodeHello(payload []byte) (streamID, sessionID string, err error) {
	streamID, payload, err = decodeString(payload)
	if err != nil {
		return "", "", fmt.Errorf("wire: hello stream id: %w", err)
	}
	sessionID, payload, err = decodeString(payload)
	if err != nil {
		return "", "", fmt.Errorf("wire: hello session id: %w", err)
	}
	if len(payload) != 0 {
		return "", "", errors.New("wire: hello payload has trailing bytes")
	}
	return streamID, sessionID, nil
}

// Ack/HelloAck payload: u32 credit window.

// AppendWindow encodes an ack's credit-window payload onto buf.
func AppendWindow(buf []byte, window uint32) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], window)
	return append(buf, w[:]...)
}

// DecodeWindow decodes an ack's credit-window payload.
func DecodeWindow(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, fmt.Errorf("wire: ack window payload is %d bytes, want 4", len(payload))
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// IMU payload: u32 count, then per sample f64 t, accel, compass, gyro.

const imuEntrySize = 32

// AppendIMU encodes an IMU sample batch onto buf.
func AppendIMU(buf []byte, samples []sensors.Sample) []byte {
	var c [4]byte
	binary.LittleEndian.PutUint32(c[:], uint32(len(samples)))
	buf = append(buf, c[:]...)
	for i := range samples {
		var e [imuEntrySize]byte
		binary.LittleEndian.PutUint64(e[0:8], math.Float64bits(samples[i].T))
		binary.LittleEndian.PutUint64(e[8:16], math.Float64bits(samples[i].Accel))
		binary.LittleEndian.PutUint64(e[16:24], math.Float64bits(samples[i].Compass))
		binary.LittleEndian.PutUint64(e[24:32], math.Float64bits(samples[i].Gyro))
		buf = append(buf, e[:]...)
	}
	return buf
}

// DecodeIMU decodes an IMU payload into scratch (reused).
//
//moloc:reuse
func DecodeIMU(payload []byte, scratch []sensors.Sample) ([]sensors.Sample, error) {
	if len(payload) < 4 {
		return nil, errors.New("wire: imu payload shorter than its count")
	}
	count := int(binary.LittleEndian.Uint32(payload[0:4]))
	if len(payload) != 4+count*imuEntrySize {
		return nil, fmt.Errorf("wire: imu payload count %d does not match %d bytes", count, len(payload))
	}
	scratch = scratch[:0]
	for i := 0; i < count; i++ {
		e := payload[4+i*imuEntrySize:]
		scratch = append(scratch, sensors.Sample{
			T:       math.Float64frombits(binary.LittleEndian.Uint64(e[0:8])),
			Accel:   math.Float64frombits(binary.LittleEndian.Uint64(e[8:16])),
			Compass: math.Float64frombits(binary.LittleEndian.Uint64(e[16:24])),
			Gyro:    math.Float64frombits(binary.LittleEndian.Uint64(e[24:32])),
		})
	}
	return scratch, nil
}

// Scan payload: f64 t, u32 count, then per reading u32 AP index + f64
// RSS. Tick payload: f64 t. Fix payload: f64 t, u32 loc, u8 moved.

// AppendScan encodes a scan payload onto buf. rss is indexed by AP.
func AppendScan(buf []byte, t float64, rss []float64) []byte {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], math.Float64bits(t))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(rss)))
	buf = append(buf, hdr[:]...)
	for _, v := range rss {
		var e [8]byte
		binary.LittleEndian.PutUint64(e[:], math.Float64bits(v))
		buf = append(buf, e[:]...)
	}
	return buf
}

// DecodeScan decodes a scan payload into scratch (reused).
//
//moloc:reuse
func DecodeScan(payload []byte, scratch []float64) (t float64, rss []float64, err error) {
	if len(payload) < 12 {
		return 0, nil, errors.New("wire: scan payload shorter than its header")
	}
	t = math.Float64frombits(binary.LittleEndian.Uint64(payload[0:8]))
	count := int(binary.LittleEndian.Uint32(payload[8:12]))
	if len(payload) != 12+count*8 {
		return 0, nil, fmt.Errorf("wire: scan payload count %d does not match %d bytes", count, len(payload))
	}
	scratch = scratch[:0]
	for i := 0; i < count; i++ {
		scratch = append(scratch, math.Float64frombits(binary.LittleEndian.Uint64(payload[12+i*8:])))
	}
	return t, scratch, nil
}

// AppendTick encodes a tick payload onto buf.
func AppendTick(buf []byte, t float64) []byte {
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], math.Float64bits(t))
	return append(buf, e[:]...)
}

// DecodeTick decodes a tick payload.
func DecodeTick(payload []byte) (float64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("wire: tick payload is %d bytes, want 8", len(payload))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(payload)), nil
}

// AppendFix encodes a fix payload onto buf.
func AppendFix(buf []byte, t float64, loc int, moved bool) []byte {
	var e [13]byte
	binary.LittleEndian.PutUint64(e[0:8], math.Float64bits(t))
	binary.LittleEndian.PutUint32(e[8:12], uint32(loc))
	if moved {
		e[12] = 1
	}
	return append(buf, e[:]...)
}

// DecodeFix decodes a fix payload.
func DecodeFix(payload []byte) (t float64, loc int, moved bool, err error) {
	if len(payload) != 13 {
		return 0, 0, false, fmt.Errorf("wire: fix payload is %d bytes, want 13", len(payload))
	}
	t = math.Float64frombits(binary.LittleEndian.Uint64(payload[0:8]))
	loc = int(int32(binary.LittleEndian.Uint32(payload[8:12])))
	return t, loc, payload[12] != 0, nil
}

func appendString(buf []byte, s string) []byte {
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	buf = append(buf, l[:]...)
	return append(buf, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 2 {
		return "", nil, errors.New("wire: string shorter than its length prefix")
	}
	n := int(binary.LittleEndian.Uint16(b[0:2]))
	if len(b) < 2+n {
		return "", nil, errors.New("wire: string extends past end of payload")
	}
	return string(b[2 : 2+n]), b[2+n:], nil
}
