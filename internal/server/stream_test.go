// Streaming-ingest tests: the binary frame plane end to end — durable
// acks through the group committer, crash recovery with zero
// acked-but-lost records, session tracking over the stream, and the
// protocol's dedup/gap discipline.
package server

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"moloc/internal/sensors"
	"moloc/internal/stats"
	"moloc/internal/wire"
)

// startStream exposes srv's streaming plane on a loopback listener and
// returns its address. The accept loop exits when Close tears the
// listener down; errc keeps the goroutine joinable by the test.
func startStream(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ServeStreams(ln) }()
	t.Cleanup(func() {
		if err := <-errc; err != nil {
			t.Errorf("ServeStreams: %v", err)
		}
	})
	return ln.Addr().String()
}

func TestStreamIngestDurableAck(t *testing.T) {
	sys := buildSys(t)
	dir := t.TempDir()
	srv := durableServer(t, sys, Options{DataDir: dir})
	defer srv.Close()
	addr := startStream(t, srv)

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 20)

	c, err := wire.DialStream(addr, "phone-1", wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const frames = 8
	for i := 0; i < frames; i++ {
		if err := c.SendObservations(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
	if got := c.Acked(); got != frames {
		t.Fatalf("acked %d frames, want %d", got, frames)
	}
	if got := srv.retrain.pendingLen(); got != frames*len(batch) {
		t.Fatalf("pending %d observations, want %d", got, frames*len(batch))
	}
	gst := srv.GroupStats()
	if gst.Batches == 0 || gst.Syncs == 0 {
		t.Fatalf("group commit idle: %+v", gst)
	}
	if gst.Syncs > gst.Batches {
		t.Fatalf("more syncs (%d) than batches (%d)", gst.Syncs, gst.Batches)
	}
	if srv.met.streamAcks.Value() == 0 || srv.met.streamConns.Value() != 1 {
		t.Fatalf("stream metrics: acks=%d conns=%d",
			srv.met.streamAcks.Value(), srv.met.streamConns.Value())
	}

	// The same batches over JSON land through the same ingest path: a
	// byte-identical WAL, the same observations_in, and every 202 waited
	// on the group committer exactly as every stream ack did.
	jsrv := durableServer(t, sys, Options{DataDir: t.TempDir()})
	defer jsrv.Close()
	ts := httptest.NewServer(jsrv.Handler())
	defer ts.Close()
	for i := 0; i < frames; i++ {
		postObs(t, ts, batch, http.StatusAccepted)
	}
	streamWAL, jsonWAL := walDump(t, srv.store.log), walDump(t, jsrv.store.log)
	if len(streamWAL) != frames || !reflect.DeepEqual(streamWAL, jsonWAL) {
		t.Fatalf("WAL records differ: stream %d records, JSON %d", len(streamWAL), len(jsonWAL))
	}
	if got, want := jsrv.met.observationsIn.Value(), srv.met.observationsIn.Value(); got != want || got != frames*int64(len(batch)) {
		t.Fatalf("observations_in: JSON %d, stream %d, want %d", got, want, frames*len(batch))
	}
	if gst := jsrv.GroupStats(); gst.Batches != frames {
		t.Fatalf("JSON ingest: wal_group_batches = %d, want one durability wait per batch (%d)", gst.Batches, frames)
	}
	if _, err := srv.RetrainNow(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCrashRecoveryNoAckedLoss is the durable-ack invariant on
// the stream plane: every acknowledged frame survives a crash (a server
// abandoned without Close) and replays on the next boot.
func TestStreamCrashRecoveryNoAckedLoss(t *testing.T) {
	sys := buildSys(t)
	dir := t.TempDir()
	srv := durableServer(t, sys, Options{DataDir: dir})
	addr := startStream(t, srv)

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)

	c, err := wire.DialStream(addr, "phone-crash", wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 5
	for i := 0; i < frames; i++ {
		if err := c.SendObservations(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Crash: no Close, no flush, no checkpoint. Only the stream Close
	// path is exercised so the listener goroutine can be joined.
	srv.closeStreams()

	srv2 := durableServer(t, sys, Options{DataDir: dir})
	defer srv2.Close()
	if got := srv2.met.walReplayed.Value(); got != frames*int64(len(batch)) {
		t.Fatalf("replayed %d observations, want %d (acked must never be lost)",
			got, frames*len(batch))
	}
}

// TestStreamResumeRedelivers: after a server restart the stream
// registry is gone, the replacement hello-acks sequence 0, and the
// client carries on — its acked tail is already in the WAL, its unacked
// tail gets resent. At-least-once, never loss.
func TestStreamResumeRedelivers(t *testing.T) {
	sys := buildSys(t)
	dir := t.TempDir()
	srv := durableServer(t, sys, Options{DataDir: dir})
	addr := startStream(t, srv)

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 4)

	// The dial target is swapped when the replacement server comes up.
	var mu sync.Mutex
	curAddr := addr
	c, err := wire.DialStream("", "phone-resume", wire.ClientOptions{
		RedialAttempts: 3,
		Dial: func() (net.Conn, error) {
			mu.Lock()
			a := curAddr
			mu.Unlock()
			return net.Dial("tcp", a)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendObservations(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}

	// Crash the first server (stream plane torn down so its goroutines
	// join; everything else abandoned) and boot a replacement on the
	// same data directory.
	srv.closeStreams()
	srv2 := durableServer(t, sys, Options{DataDir: dir})
	defer srv2.Close()
	if got := srv2.met.walReplayed.Value(); got != int64(len(batch)) {
		t.Fatalf("replayed %d observations, want %d", got, len(batch))
	}
	mu.Lock()
	curAddr = startStream(t, srv2)
	mu.Unlock()

	// The old conn was severed; the next send redials, resumes, and the
	// new frame lands past the acked one.
	if err := c.SendObservations(batch); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
	if c.Resumes() != 1 {
		t.Fatalf("resumes = %d, want 1", c.Resumes())
	}
	if got := c.Acked(); got != 2 {
		t.Fatalf("acked = %d, want 2", got)
	}
}

// TestStreamSessionTracking drives a full localization interval over
// the stream plane: IMU batch, scan, tick, fix reply.
func TestStreamSessionTracking(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{}) // in-memory: acks without WAL
	defer srv.Close()
	addr := startStream(t, srv)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68})
	if resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created createResp
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	c, err := wire.DialStream(addr, "phone-track", wire.ClientOptions{SessionID: created.SessionID})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	g, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	loc := 1
	samples, _ := g.Walk(nil, 0, 4, 1.8, 90, sensors.Device{}, 0, stats.NewRNG(7))
	if err := c.SendIMU(samples); err != nil {
		t.Fatal(err)
	}
	rss := sys.Model.Sample(sys.Plan.LocPos(loc), stats.NewRNG(107))
	if err := c.SendScan(1, rss); err != nil {
		t.Fatal(err)
	}
	fixLoc, _, ok, err := c.Tick(10)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("tick produced no fix despite a scan in the interval")
	}
	if fixLoc < 1 || fixLoc > sys.Plan.NumLocs() {
		t.Fatalf("fix location %d out of range [1,%d]", fixLoc, sys.Plan.NumLocs())
	}
	// An unknown session must be refused at hello.
	if _, err := wire.DialStream(addr, "phone-bad", wire.ClientOptions{SessionID: "nope"}); err == nil {
		t.Fatal("hello with unknown session succeeded")
	}
}

// TestStreamRefusesNonFiniteScan drives the raw protocol: a Scan frame
// carrying a NaN or +Inf RSS reading, or a finite one outside the
// physical dBm window, is answered with an Error frame instead of
// reaching the tracker, where it would turn every candidate probability
// into NaN; POST /scan answers the out-of-window reading with a 400.
// The session stays usable: a valid scan and tick on a fresh connection
// return a fix.
func TestStreamRefusesNonFiniteScan(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{})
	defer srv.Close()
	addr := startStream(t, srv)

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68})
	if resp.StatusCode != 201 {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created createResp
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	g, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := g.Walk(nil, 0, 4, 1.8, 90, sensors.Device{}, 0, stats.NewRNG(7))
	rss := sys.Model.Sample(sys.Plan.LocPos(1), stats.NewRNG(107))

	// walk sends IMU, one scan and a tick on a fresh connection bound to
	// the session, and returns the first reply frame.
	walk := func(scan []float64) wire.Frame {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		rd, wr := wire.NewReader(conn, 0), wire.NewWriter(conn)
		wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "raw-scan", created.SessionID))
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		if fr, err := rd.ReadFrame(); err != nil || fr.Type != wire.FrameHelloAck {
			t.Fatalf("hello-ack: %v type %d", err, fr.Type)
		}
		wr.WriteFrame(wire.FrameIMUBatch, 0, wire.AppendIMU(nil, samples))
		wr.WriteFrame(wire.FrameScan, 7, wire.AppendScan(nil, 1, scan))
		wr.WriteFrame(wire.FrameTick, 8, wire.AppendTick(nil, 10))
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		fr, err := rd.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		scan := append([]float64(nil), rss...)
		scan[len(scan)/2] = bad
		fr := walk(scan)
		if fr.Type != wire.FrameError || fr.Seq != 7 || !strings.Contains(string(fr.Payload), "non-finite") {
			t.Fatalf("scan with RSS %v: frame type %d seq %d %q, want an Error frame for seq 7",
				bad, fr.Type, fr.Seq, fr.Payload)
		}
	}
	// A finite reading outside the physical dBm window overflows every
	// dissimilarity just the same; both transports refuse it.
	for _, bad := range []float64{-1e200, 1e200, minRSSdBm - 1, maxRSSdBm + 1} {
		scan := append([]float64(nil), rss...)
		scan[len(scan)/2] = bad
		fr := walk(scan)
		if fr.Type != wire.FrameError || fr.Seq != 7 || !strings.Contains(string(fr.Payload), "outside") {
			t.Fatalf("scan with RSS %v: frame type %d seq %d %q, want an Error frame for seq 7",
				bad, fr.Type, fr.Seq, fr.Payload)
		}
		resp, body := postJSON(t, ts, "/v1/sessions/"+created.SessionID+"/scan", scanReq{T: 1, RSS: scan})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "outside") {
			t.Fatalf("POST /scan with RSS %v: status %d body %s, want 400", bad, resp.StatusCode, body)
		}
	}
	// The window's own edges are readings, not refusals.
	for _, edge := range []float64{minRSSdBm, maxRSSdBm} {
		scan := append([]float64(nil), rss...)
		scan[len(scan)/2] = edge
		if resp, body := postJSON(t, ts, "/v1/sessions/"+created.SessionID+"/scan", scanReq{T: 1, RSS: scan}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /scan with RSS %v: status %d body %s, want 202", edge, resp.StatusCode, body)
		}
	}
	fr := walk(rss)
	if fr.Type != wire.FrameFix || fr.Seq != 8 {
		t.Fatalf("valid scan: frame type %d seq %d %q, want a Fix for seq 8", fr.Type, fr.Seq, fr.Payload)
	}
	ft, loc, _, err := wire.DecodeFix(fr.Payload)
	if err != nil || math.IsNaN(ft) || math.IsInf(ft, 0) || loc < 1 || loc > sys.Plan.NumLocs() {
		t.Fatalf("fix after refused scans: t=%v loc=%d err=%v", ft, loc, err)
	}
}

// TestStreamDuplicateAndGap drives the raw protocol: a duplicate frame
// is re-acked without re-enqueueing, and a sequence gap kills the
// connection with an error frame.
func TestStreamDuplicateAndGap(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{})
	defer srv.Close()
	addr := startStream(t, srv)

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 3)
	payload := wire.AppendObservations(nil, batch)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd := wire.NewReader(conn, 0)
	wr := wire.NewWriter(conn)

	hello := func() {
		wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "raw-stream", ""))
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		fr, err := rd.ReadFrame()
		if err != nil || fr.Type != wire.FrameHelloAck {
			t.Fatalf("hello-ack: %v type %d", err, fr.Type)
		}
	}
	sendObs := func(seq uint64) wire.Frame {
		wr.WriteFrame(wire.FrameObsBatch, seq, payload)
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		fr, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("reply to seq %d: %v", seq, err)
		}
		return fr
	}

	hello()
	if fr := sendObs(1); fr.Type != wire.FrameAck || fr.Seq != 1 {
		t.Fatalf("first frame: type %d seq %d", fr.Type, fr.Seq)
	}
	before := srv.retrain.pendingLen()
	if fr := sendObs(1); fr.Type != wire.FrameAck || fr.Seq != 1 {
		t.Fatalf("duplicate: type %d seq %d", fr.Type, fr.Seq)
	}
	if got := srv.retrain.pendingLen(); got != before {
		t.Fatalf("duplicate frame re-enqueued: pending %d -> %d", before, got)
	}
	if fr := sendObs(5); fr.Type != wire.FrameError {
		t.Fatalf("gap: got frame type %d, want error", fr.Type)
	}

	// Fresh connection, same stream: resumes at the acked frame, and a
	// frame the stream already acked is tolerated.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	rd, wr = wire.NewReader(conn2, 0), wire.NewWriter(conn2)
	wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "raw-stream", ""))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	fr, err := rd.ReadFrame()
	if err != nil || fr.Type != wire.FrameHelloAck || fr.Seq != 1 {
		t.Fatalf("resume hello-ack: %v type %d seq %d", err, fr.Type, fr.Seq)
	}
}

// TestStreamIngestWakesOnDrain: a stream batch that finds the
// observation queue full waits for the retrainer's next drain, not for
// a poll. It gets no ack while the queue stays full, is acked once
// RetrainNow drains it, and a second blocked batch ends unacked, with
// Close returning promptly.
func TestStreamIngestWakesOnDrain(t *testing.T) {
	const queueCap = 8
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{ObsQueueCap: queueCap, RetrainInterval: time.Hour})
	closed := false
	defer func() {
		if !closed {
			srv.Close()
		}
	}()
	addr := startStream(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pair := firstPair(t, sys.MDB)
	postObs(t, ts, obsNear(sys.Plan, pair[0], pair[1], queueCap), http.StatusAccepted)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd, wr := wire.NewReader(conn, 0), wire.NewWriter(conn)
	wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "drain-wake", ""))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if fr, err := rd.ReadFrame(); err != nil || fr.Type != wire.FrameHelloAck {
		t.Fatalf("hello-ack: %v type %d", err, fr.Type)
	}
	type reply struct {
		typ uint8
		seq uint64
	}
	replies := make(chan reply, 8)
	go func() {
		defer close(replies)
		for {
			fr, err := rd.ReadFrame()
			if err != nil {
				return
			}
			replies <- reply{fr.Type, fr.Seq}
		}
	}()
	// sendBlocked writes one batch frame and waits until the server has
	// read it; the queue is full, so it must then sit in ingest.
	sendBlocked := func(seq uint64, n int) {
		t.Helper()
		frames := srv.met.streamFrames.Value()
		wr.WriteFrame(wire.FrameObsBatch, seq, wire.AppendObservations(nil, obsNear(sys.Plan, pair[0], pair[1], n)))
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); srv.met.streamFrames.Value() == frames; {
			if time.Now().After(deadline) {
				t.Fatalf("server never read frame %d", seq)
			}
			time.Sleep(time.Millisecond)
		}
		select {
		case r := <-replies:
			t.Fatalf("reply type %d seq %d to a batch the full queue cannot hold", r.typ, r.seq)
		case <-time.After(100 * time.Millisecond):
		}
		if got := srv.retrain.pendingLen(); got != queueCap {
			t.Fatalf("pending = %d with frame %d blocked, want the full %d", got, seq, queueCap)
		}
	}

	sendBlocked(1, 3)
	if _, err := srv.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	select {
	case r, ok := <-replies:
		if !ok || r.typ != wire.FrameAck || r.seq != 1 {
			t.Fatalf("after the drain: reply %+v (open %v), want ack 1", r, ok)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("batch 1 still unacked 5s after the drain")
	}

	// 3 queued + 6 more exceeds the cap of 8: frame 2 blocks again.
	postObs(t, ts, obsNear(sys.Plan, pair[0], pair[1], queueCap-3), http.StatusAccepted)
	sendBlocked(2, 6)
	start := time.Now()
	srv.Close()
	closed = true
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with a batch blocked in ingest", d)
	}
	for r := range replies {
		if r.typ == wire.FrameAck {
			t.Fatalf("ack %d after Close; blocked batch 2 must end unacked", r.seq)
		}
	}
}

// TestIngestRefusesBatchLargerThanQueue: a batch holding more
// observations than the whole retrain queue can never fit, however
// often the queue drains, so every ingest path refuses it at once
// instead of waiting: a JSON POST answers 413 (not a 429 no retry can
// clear), a stream ObsBatch frame gets an Error frame with no drain,
// and a follower whose queue is smaller than the leader's batch reports
// the refusal in its replication status.
func TestIngestRefusesBatchLargerThanQueue(t *testing.T) {
	const queueCap = 4
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{ObsQueueCap: queueCap, RetrainInterval: time.Hour})
	defer srv.Close()
	addr := startStream(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	pair := firstPair(t, sys.MDB)
	six := obsNear(sys.Plan, pair[0], pair[1], queueCap+2)

	postObs(t, ts, six, http.StatusRequestEntityTooLarge)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd, wr := wire.NewReader(conn, 0), wire.NewWriter(conn)
	wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "oversize", ""))
	wr.WriteFrame(wire.FrameObsBatch, 1, wire.AppendObservations(nil, six))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if fr, err := rd.ReadFrame(); err != nil || fr.Type != wire.FrameHelloAck {
		t.Fatalf("hello-ack: %v type %d", err, fr.Type)
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fr, err := rd.ReadFrame()
	if err != nil {
		t.Fatalf("no reply within 2s to a batch larger than the queue: %v", err)
	}
	if fr.Type != wire.FrameError || fr.Seq != 1 || !strings.Contains(string(fr.Payload), "larger than the queue") {
		t.Fatalf("reply type %d seq %d %q, want an error frame for seq 1 naming the queue", fr.Type, fr.Seq, fr.Payload)
	}
	if got := srv.retrain.pendingLen(); got != 0 {
		t.Fatalf("pending = %d after two refused batches, want 0", got)
	}

	// Replication: the leader's queue takes the batch, the follower's
	// cannot; Apply's refusal surfaces as the follower's LastErr.
	leader := durableServer(t, sys, Options{DataDir: t.TempDir()})
	defer leader.Close()
	laddr := startStream(t, leader)
	fol := durableServer(t, sys, Options{DataDir: t.TempDir(), ObsQueueCap: queueCap,
		FollowAddr: "leader", ReplDial: func() (net.Conn, error) { return net.Dial("tcp", laddr) }})
	defer fol.Close()
	fol.Start()
	streamFrames(t, laddr, "oversize-leader", six, 1)
	waitUntil(t, "follower refusal", func() bool {
		err := fol.ReplicationStatus().LastErr
		return err != nil && strings.Contains(err.Error(), "larger than the queue")
	})
}
