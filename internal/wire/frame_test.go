package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"net"
	"testing"
	"time"

	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("observation bytes")
	buf := AppendFrame(nil, FrameObsBatch, 42, payload)
	fr, n, err := DecodeFrame(buf, DefaultMaxPayload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
	}
	if fr.Type != FrameObsBatch || fr.Seq != 42 || !bytes.Equal(fr.Payload, payload) {
		t.Fatalf("round trip mismatch: %+v", fr)
	}
}

func TestFrameDecodeEmptyPayload(t *testing.T) {
	buf := AppendFrame(nil, FrameTick, 7, nil)
	fr, _, err := DecodeFrame(buf, DefaultMaxPayload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if fr.Seq != 7 || len(fr.Payload) != 0 {
		t.Fatalf("got %+v", fr)
	}
}

func TestFrameDecodeTorn(t *testing.T) {
	buf := AppendFrame(nil, FrameObsBatch, 1, []byte("payload"))
	for cut := 0; cut < len(buf); cut++ {
		if _, _, err := DecodeFrame(buf[:cut], DefaultMaxPayload); !errors.Is(err, ErrShort) {
			t.Fatalf("cut at %d: want ErrShort, got %v", cut, err)
		}
	}
}

func TestFrameDecodeBitFlips(t *testing.T) {
	orig := AppendFrame(nil, FrameObsBatch, 9, []byte("sensitive payload"))
	for i := range orig {
		for bit := 0; bit < 8; bit++ {
			buf := append([]byte(nil), orig...)
			buf[i] ^= 1 << bit
			fr, _, err := DecodeFrame(buf, DefaultMaxPayload)
			if err != nil {
				continue
			}
			// A flip that still decodes must have produced the identical
			// frame (impossible for a single bit) — so reaching here with
			// different content is a checksum hole.
			if fr.Seq != 9 || !bytes.Equal(fr.Payload, []byte("sensitive payload")) {
				t.Fatalf("bit flip at byte %d bit %d decoded silently", i, bit)
			}
		}
	}
}

func TestFrameDecodeVersionSkew(t *testing.T) {
	buf := AppendFrame(nil, FrameHello, 1, nil)
	buf[0] = Version + 1
	if _, _, err := DecodeFrame(buf, DefaultMaxPayload); !errors.Is(err, ErrVersion) {
		t.Fatalf("want ErrVersion, got %v", err)
	}
}

func TestFrameDecodeOversized(t *testing.T) {
	buf := AppendFrame(nil, FrameObsBatch, 1, make([]byte, 100))
	if _, _, err := DecodeFrame(buf, 50); !errors.Is(err, ErrTooBig) {
		t.Fatalf("want ErrTooBig, got %v", err)
	}
	// A hostile length prefix must be refused before any buffer sizing.
	binary.LittleEndian.PutUint32(buf[4:8], math.MaxUint32)
	if _, _, err := DecodeFrame(buf, DefaultMaxPayload); !errors.Is(err, ErrTooBig) {
		t.Fatalf("want ErrTooBig for 4 GiB claim, got %v", err)
	}
}

func TestFrameDecodeReservedBytes(t *testing.T) {
	buf := AppendFrame(nil, FrameHello, 1, nil)
	buf[2] = 1
	if _, _, err := DecodeFrame(buf, DefaultMaxPayload); !errors.Is(err, ErrReserved) {
		t.Fatalf("want ErrReserved, got %v", err)
	}
}

func TestObservationsRoundTrip(t *testing.T) {
	obs := []motiondb.Observation{
		{From: 0, To: 5, RLM: motion.RLM{Dir: 90, Off: 5.5}},
		{From: 12, To: 3, RLM: motion.RLM{Dir: 359.25, Off: 0}},
	}
	payload := AppendObservations(nil, obs)
	if !IsObsPayload(payload) {
		t.Fatal("payload does not self-identify")
	}
	if n, err := ObsCount(payload); err != nil || n != 2 {
		t.Fatalf("ObsCount = %d, %v", n, err)
	}
	got, err := DecodeObservations(payload, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(obs) {
		t.Fatalf("got %d observations, want %d", len(got), len(obs))
	}
	for i := range obs {
		if got[i] != obs[i] {
			t.Fatalf("observation %d: got %+v want %+v", i, got[i], obs[i])
		}
	}
}

func TestObservationsScratchReuse(t *testing.T) {
	obs := []motiondb.Observation{{From: 1, To: 2, RLM: motion.RLM{Dir: 1, Off: 2}}}
	payload := AppendObservations(nil, obs)
	scratch := make([]motiondb.Observation, 0, 8)
	got, err := DecodeObservations(payload, scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &scratch[:1][0] {
		t.Fatal("decode did not reuse scratch capacity")
	}
}

func TestObservationsJSONDisjoint(t *testing.T) {
	// WAL replay refuses a legacy JSON batch by this test, so the magic
	// byte must cleanly separate the two encodings.
	for _, j := range []string{`[{"from":1}]`, `{"observations":[]}`} {
		if IsObsPayload([]byte(j)) {
			t.Fatalf("JSON %q misidentified as binary", j)
		}
	}
}

func TestObservationsRejectsTruncation(t *testing.T) {
	payload := AppendObservations(nil, []motiondb.Observation{{From: 1, To: 2}})
	for cut := 1; cut < len(payload); cut++ {
		if _, err := DecodeObservations(payload[:cut], nil); err == nil {
			t.Fatalf("truncation at %d decoded silently", cut)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	payload := AppendHello(nil, "stream-7", "sess-abc")
	stream, sess, err := DecodeHello(payload)
	if err != nil || stream != "stream-7" || sess != "sess-abc" {
		t.Fatalf("got %q %q %v", stream, sess, err)
	}
	payload = AppendHello(nil, "only-stream", "")
	stream, sess, err = DecodeHello(payload)
	if err != nil || stream != "only-stream" || sess != "" {
		t.Fatalf("got %q %q %v", stream, sess, err)
	}
}

func TestIMUScanTickFixRoundTrip(t *testing.T) {
	samples := []sensors.Sample{{T: 1, Accel: 2, Compass: 3, Gyro: 4}, {T: 1.5, Accel: -2}}
	got, err := DecodeIMU(AppendIMU(nil, samples), nil)
	if err != nil || len(got) != 2 || got[0] != samples[0] || got[1] != samples[1] {
		t.Fatalf("imu: %v %v", got, err)
	}
	ts, rss, err := DecodeScan(AppendScan(nil, 2.5, []float64{-40, -71.5}), nil)
	if err != nil || ts != 2.5 || len(rss) != 2 || rss[1] != -71.5 {
		t.Fatalf("scan: %v %v %v", ts, rss, err)
	}
	tick, err := DecodeTick(AppendTick(nil, 9.75))
	if err != nil || tick != 9.75 {
		t.Fatalf("tick: %v %v", tick, err)
	}
	ft, loc, moved, err := DecodeFix(AppendFix(nil, 3, 17, true))
	if err != nil || ft != 3 || loc != 17 || !moved {
		t.Fatalf("fix: %v %v %v %v", ft, loc, moved, err)
	}
}

func TestWindowRoundTrip(t *testing.T) {
	w, err := DecodeWindow(AppendWindow(nil, 32))
	if err != nil || w != 32 {
		t.Fatalf("got %d %v", w, err)
	}
}

// TestReaderCoalescedFrames streams several frames through one socket
// write and checks the Reader hands them back one at a time, with
// FrameBuffered distinguishing complete from torn buffered frames.
func TestReaderCoalescedFrames(t *testing.T) {
	var wireBytes []byte
	for seq := uint64(1); seq <= 5; seq++ {
		wireBytes = AppendFrame(wireBytes, FrameObsBatch, seq, []byte("batch"))
	}
	a, b := net.Pipe()
	defer a.Close()
	go func() {
		a.Write(wireBytes)
	}()
	rd := NewReader(b, 0)
	for seq := uint64(1); seq <= 5; seq++ {
		fr, err := rd.ReadFrame()
		if err != nil {
			t.Errorf("frame %d: %v", seq, err)
			return
		}
		if fr.Seq != seq {
			t.Errorf("got seq %d want %d", fr.Seq, seq)
		}
		// After frames 1..4, frame 5 onward is still fully buffered.
		if seq < 5 && !rd.FrameBuffered() {
			t.Errorf("after frame %d: FrameBuffered = false, want true", seq)
		}
	}
	if rd.FrameBuffered() {
		t.Error("all frames consumed but FrameBuffered = true")
	}
	b.Close()
}

// TestReaderZeroAllocSteadyState pins the hot claim: once the buffer
// has warmed up, reading a frame allocates nothing.
func TestReaderZeroAllocSteadyState(t *testing.T) {
	const frames = 64
	var wireBytes []byte
	payload := make([]byte, 512)
	for seq := uint64(1); seq <= frames; seq++ {
		wireBytes = AppendFrame(wireBytes, FrameObsBatch, seq, payload)
	}
	rd := NewReader(bytes.NewReader(wireBytes), 0)
	// Warm up: first frames may grow the buffer.
	for i := 0; i < 8; i++ {
		if _, err := rd.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(frames-9, func() {
		if _, err := rd.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state ReadFrame allocates %.1f/op, want 0", avg)
	}
}

// TestClientResume drives a client against a scripted server: acks a
// few frames, drops the connection, and checks the client reconnects,
// resends only the unacked tail, and converges.
func TestClientResume(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type obsFrame struct {
		seq   uint64
		count int
	}
	recvd := make(chan obsFrame, 64)
	// Scripted server: conn 1 acks frames through 2 then hangs up; conn
	// 2 resumes from 2 and acks everything.
	go func() {
		for conn := 0; conn < 2; conn++ {
			cn, err := ln.Accept()
			if err != nil {
				return
			}
			rd := NewReader(cn, 0)
			wr := NewWriter(cn)
			fr, err := rd.ReadFrame()
			if err != nil || fr.Type != FrameHello {
				cn.Close()
				return
			}
			var resume uint64
			if conn == 1 {
				resume = 2
			}
			wr.WriteFrame(FrameHelloAck, resume, AppendWindow(nil, 4))
			wr.Flush()
			for {
				fr, err := rd.ReadFrame()
				if err != nil {
					break
				}
				if fr.Type != FrameObsBatch {
					continue
				}
				n, _ := ObsCount(fr.Payload)
				recvd <- obsFrame{seq: fr.Seq, count: n}
				if conn == 0 && fr.Seq >= 2 {
					wr.WriteAck(2, 4)
					wr.Flush()
					cn.Close() // drop mid-stream
					break
				}
				wr.WriteAck(fr.Seq, 4)
				wr.Flush()
			}
			if conn == 1 {
				cn.Close()
			}
		}
	}()

	c, err := DialStream(ln.Addr().String(), "stream-test", ClientOptions{
		RedialAttempts: 20, RedialWait: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	obs := []motiondb.Observation{{From: 1, To: 2, RLM: motion.RLM{Dir: 90, Off: 3}}}
	for i := 0; i < 4; i++ {
		if err := c.SendObservations(obs); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
	if got := c.Acked(); got != 4 {
		t.Fatalf("acked = %d, want 4", got)
	}
	if c.Resumes() != 1 {
		t.Fatalf("resumes = %d, want 1", c.Resumes())
	}
	// The second connection must have seen only the unacked tail (seqs
	// 3, 4 — seq 1 and 2 were acked before the drop).
	close(recvd)
	var seqs []uint64
	for f := range recvd {
		seqs = append(seqs, f.seq)
	}
	for _, s := range seqs[len(seqs)-2:] {
		if s <= 2 {
			t.Fatalf("resumed connection re-sent acked frame %d (all: %v)", s, seqs)
		}
	}
}
