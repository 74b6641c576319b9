package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"moloc/internal/core"
	"moloc/internal/sensors"
	"moloc/internal/stats"
	"moloc/internal/wire"
)

// waitUntil polls cond for up to three seconds — stream frames are
// served asynchronously to their sender, so assertions on what a
// stream's Scan frame ticked need to wait for the frame to land.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fixKey is one fix as every transport can report it.
type fixKey struct {
	T     float64
	Loc   int
	Moved bool
	Mode  string
}

func keyOf(f fixResp) fixKey { return fixKey{f.T, f.Loc, f.Moved, f.Mode} }

// TestPacedServerEquivalence pins transport equivalence on one walk:
// per-interval /tick, per-interval /batch, one multi-interval /batch,
// stream Tick frames and server pacing (fixes read back over GET after
// each /scan) must all produce the same (t, loc, moved, mode)
// sequence, because they are codecs over one data-plane core. A
// late /tick closing every interval at once must count every fix it
// produced in fixes{mode=…} and candidate_set_size, and the stream's
// ticks must be instrumented like the HTTP ones.
func TestPacedServerEquivalence(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := startStream(t, srv)

	// The trace: a straight walk, one scan per 3-s interval. Each round
	// uploads one interval of events and ticks at its last event time —
	// the time a paced session's scan upload ticks it at.
	const rounds = 6
	g, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	walk, _ := g.Walk(nil, 0, 3*rounds, 1.8, 90, sensors.Device{}, 0, stats.NewRNG(5))
	type round struct {
		samples []sensors.Sample
		scan    scanReq
		tickT   float64
	}
	var trace []round
	var allScans []scanReq
	for r := 0; r < rounds; r++ {
		var rd round
		for _, smp := range walk {
			if smp.T >= float64(3*r) && smp.T < float64(3*r+3) {
				rd.samples = append(rd.samples, smp)
			}
		}
		loc := 1 + (2*r)%sys.Plan.NumLocs()
		rss := sys.Model.Sample(sys.Plan.LocPos(loc), stats.NewRNG(int64(100+r)))
		rd.scan = scanReq{T: float64(3*r) + 1.5, RSS: rss}
		rd.tickT = math.Max(rd.samples[len(rd.samples)-1].T, rd.scan.T)
		allScans = append(allScans, rd.scan)
		trace = append(trace, rd)
	}
	lastT := trace[rounds-1].tickT

	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68, Paced: true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create paced: %d %s", resp.StatusCode, body)
	}
	var pacedCr createResp
	if err := json.Unmarshal(body, &pacedCr); err != nil {
		t.Fatal(err)
	}
	if !pacedCr.Paced {
		t.Fatal("create response does not acknowledge pacing")
	}
	tickID, batchID, multiID, streamID, lateID :=
		createSession(t, ts), createSession(t, ts), createSession(t, ts), createSession(t, ts), createSession(t, ts)

	sc, err := wire.DialStream(addr, "eq-tick", wire.ClientOptions{SessionID: streamID})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()

	post := func(path string, body interface{}, want int) []byte {
		t.Helper()
		resp, b := postJSON(t, ts, path, body)
		if resp.StatusCode != want {
			t.Fatalf("%s: %d %s, want %d", path, resp.StatusCode, b, want)
		}
		return b
	}
	// newestFix reads a session's newest fix over GET (nil before the
	// first): how a paced client learns its fixes, and the mode of a
	// stream fix, which the binary Fix frame does not carry.
	newestFix := func(id string) *fixKey {
		t.Helper()
		var sr sessionResp
		getJSON(t, ts, "/v1/sessions/"+id, &sr)
		if sr.Fix == nil {
			return nil
		}
		fk := keyOf(*sr.Fix)
		return &fk
	}

	var tickSeq, batchSeq, streamSeq, pacedSeq []fixKey
	for r, rd := range trace {
		// Per-interval /tick.
		post("/v1/sessions/"+tickID+"/imu", imuReq{Samples: rd.samples}, http.StatusAccepted)
		post("/v1/sessions/"+tickID+"/scan", rd.scan, http.StatusAccepted)
		resp, body := postJSON(t, ts, "/v1/sessions/"+tickID+"/tick", tickReq{T: rd.tickT})
		switch resp.StatusCode {
		case http.StatusOK:
			var fx fixResp
			if err := json.Unmarshal(body, &fx); err != nil {
				t.Fatal(err)
			}
			tickSeq = append(tickSeq, keyOf(fx))
		case http.StatusNoContent:
		default:
			t.Fatalf("tick: %d %s", resp.StatusCode, body)
		}

		// Per-interval /batch.
		var br batchResp
		if err := json.Unmarshal(post("/v1/sessions/"+batchID+"/batch",
			batchReq{Samples: rd.samples, Scans: []scanReq{rd.scan}, T: rd.tickT}, http.StatusOK), &br); err != nil {
			t.Fatal(err)
		}
		if len(br.Fixes) > 1 {
			t.Fatalf("round %d closed %d intervals; the trace must close at most one per round", r, len(br.Fixes))
		}
		for _, fx := range br.Fixes {
			batchSeq = append(batchSeq, keyOf(fx))
		}

		// Stream IMU, Scan and Tick frames.
		if err := sc.SendIMU(rd.samples); err != nil {
			t.Fatal(err)
		}
		if err := sc.SendScan(rd.scan.T, rd.scan.RSS); err != nil {
			t.Fatal(err)
		}
		loc, moved, ok, err := sc.Tick(rd.tickT)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			fk := newestFix(streamID)
			if fk == nil || fk.Loc != loc || fk.Moved != moved {
				t.Fatalf("stream tick replied (%d, %v), session's last fix is %+v", loc, moved, fk)
			}
			streamSeq = append(streamSeq, *fk)
		}

		// Server pacing: upload only; the /scan ticks the session at
		// its last event time, and GET reads the fix back.
		post("/v1/sessions/"+pacedCr.SessionID+"/imu", imuReq{Samples: rd.samples}, http.StatusAccepted)
		post("/v1/sessions/"+pacedCr.SessionID+"/scan", rd.scan, http.StatusAccepted)
		if fk := newestFix(pacedCr.SessionID); fk != nil && (len(pacedSeq) == 0 || *fk != pacedSeq[len(pacedSeq)-1]) {
			pacedSeq = append(pacedSeq, *fk)
		}
	}

	// One multi-interval /batch carrying the whole trace.
	var all []sensors.Sample
	for _, rd := range trace {
		all = append(all, rd.samples...)
	}
	var mr batchResp
	if err := json.Unmarshal(post("/v1/sessions/"+multiID+"/batch",
		batchReq{Samples: all, Scans: allScans, T: lastT}, http.StatusOK), &mr); err != nil {
		t.Fatal(err)
	}
	var multiSeq []fixKey
	for _, fx := range mr.Fixes {
		multiSeq = append(multiSeq, keyOf(fx))
	}
	n := len(multiSeq)
	if n < 2 {
		t.Fatalf("trace produced %d fixes; the equivalence check needs several", n)
	}
	for name, seq := range map[string][]fixKey{
		"per-interval /tick": tickSeq, "per-interval /batch": batchSeq,
		"stream Tick": streamSeq, "paced": pacedSeq,
	} {
		if !reflect.DeepEqual(seq, multiSeq) {
			t.Errorf("%s fixes differ from the multi-interval /batch:\n got %+v\nwant %+v", name, seq, multiSeq)
		}
	}

	// A late /tick closes every interval at once: it answers the newest
	// fix, and the per-fix metrics count all n of them.
	fixesNow := func() int64 { return srv.met.fixesMoLoc.Value() + srv.met.fixesFingerprint.Value() }
	fixes0, cands0 := fixesNow(), srv.met.candidateSetSize.Count()
	post("/v1/sessions/"+lateID+"/imu", imuReq{Samples: all}, http.StatusAccepted)
	for _, scan := range allScans {
		post("/v1/sessions/"+lateID+"/scan", scan, http.StatusAccepted)
	}
	var late fixResp
	body = post("/v1/sessions/"+lateID+"/tick", tickReq{T: lastT}, http.StatusOK)
	if err := json.Unmarshal(body, &late); err != nil {
		t.Fatal(err)
	}
	if keyOf(late) != multiSeq[n-1] {
		t.Errorf("late /tick answered %+v, want the newest fix %+v", keyOf(late), multiSeq[n-1])
	}
	if got := fixesNow() - fixes0; got != int64(n) {
		t.Errorf("late /tick closing %d intervals counted %d fixes{mode=*}", n, got)
	}
	if got := srv.met.candidateSetSize.Count() - cands0; got != int64(n) {
		t.Errorf("late /tick closing %d intervals observed %d candidate_set_size samples", n, got)
	}

	// Every path counted every fix it produced (five paths plus the late
	// tick), and every client tick — stream frames included — was timed.
	if got := fixesNow(); got != int64(6*n) {
		t.Errorf("fixes{mode=*} = %d, want %d", got, 6*n)
	}
	if got := srv.met.candidateSetSize.Count(); got != int64(6*n) {
		t.Errorf("candidate_set_size count = %d, want %d", got, 6*n)
	}
	if got, want := srv.met.tickSeconds.Count(), int64(3*rounds+2); got != want {
		// Per-interval /tick, /batch and stream ticks, plus the two
		// whole-trace ticks.
		t.Errorf("tick_seconds count = %d, want %d", got, want)
	}
	// Each paced /scan ticked once, and no /imu did. paced_fix_seconds
	// is measured on the wall clock, not the fake one: every sample is
	// an upload's own service time, not the distance between the fake
	// and the real epoch.
	if got := srv.met.pacedTicks.Value(); got != rounds {
		t.Errorf("paced_ticks = %d after %d paced /scan uploads, want one each", got, rounds)
	}
	if got, sum := srv.met.pacedFixSeconds.Count(), srv.met.pacedFixSeconds.Sum(); got != int64(n) || sum >= 1 {
		t.Errorf("paced_fix_seconds: %d samples summing to %g s, want %d summing under 1 s", got, sum, n)
	}
}

// TestPacedStreamGetsNoPush pins the one fix path of a paced session
// with a stream attached: a scan upload that closes an interval sends
// nothing down the stream unasked (the connection has one writer, its
// own frame loop), and the fix is read with GET. A Tick frame on the
// same connection still runs the client-paced core, but the scan
// uploads have already closed every interval elapsed at the session's
// last event, so a Tick at that time closes nothing and is answered
// with a NoFix echoing its sequence.
func TestPacedStreamGetsNoPush(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := startStream(t, srv)

	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68, Paced: true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create paced: %d %s", resp.StatusCode, body)
	}
	var cr createResp
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rd, wr := wire.NewReader(conn, 0), wire.NewWriter(conn)
	wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "paced-no-push", cr.SessionID))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if fr, err := rd.ReadFrame(); err != nil || fr.Type != wire.FrameHelloAck {
		t.Fatalf("hello-ack: %v type %d", err, fr.Type)
	}

	// upload posts the walk's events in [from, to) with one scan per
	// 3-s interval, and returns the last event time.
	g, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	walk, _ := g.Walk(nil, 0, 12, 1.8, 90, sensors.Device{}, 0, stats.NewRNG(11))
	upload := func(from, to float64) float64 {
		t.Helper()
		var samples []sensors.Sample
		for _, smp := range walk {
			if smp.T >= from && smp.T < to {
				samples = append(samples, smp)
			}
		}
		if resp, body := postJSON(t, ts, "/v1/sessions/"+cr.SessionID+"/imu", imuReq{Samples: samples}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("imu: %d %s", resp.StatusCode, body)
		}
		for st := from + 1.5; st < to; st += 3 {
			rss := sys.Model.Sample(sys.Plan.LocPos(1+int(st)%sys.Plan.NumLocs()), stats.NewRNG(int64(200+st)))
			if resp, body := postJSON(t, ts, "/v1/sessions/"+cr.SessionID+"/scan", scanReq{T: st, RSS: rss}); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("scan: %d %s", resp.StatusCode, body)
			}
		}
		return samples[len(samples)-1].T
	}
	newest := func() *fixResp {
		t.Helper()
		var sr sessionResp
		getJSON(t, ts, "/v1/sessions/"+cr.SessionID, &sr)
		return sr.Fix
	}

	// The first scan closes the first interval; the second, whose
	// interval is still open at the last event, closes nothing.
	upload(0, 6)
	first := newest()
	if first == nil || first.T != 3 {
		t.Fatalf("GET shows %+v after the uploads of [0, 6), want the fix closing [0, 3)", first)
	}
	if err := conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fr, err := rd.ReadFrame(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("frame type %d seq %d arrived unasked (err %v), want none", fr.Type, fr.Seq, err)
	}

	// The next uploads' scans close [3, 6) and [6, 9); a stream Tick at
	// their last event time then finds nothing left to close.
	tickT := upload(6, 12)
	closed := newest()
	if closed == nil || closed.T != 9 {
		t.Fatalf("GET shows %+v after the uploads of [6, 12), want the fix closing [6, 9)", closed)
	}
	wr.WriteFrame(wire.FrameTick, 9, wire.AppendTick(nil, tickT))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fr, err := rd.ReadFrame()
	if err != nil || fr.Type != wire.FrameNoFix || fr.Seq != 9 {
		t.Fatalf("tick reply: %v, frame type %d seq %d, want a NoFix for seq 9", err, fr.Type, fr.Seq)
	}
	if got := newest(); got == nil || keyOf(*got) != keyOf(*closed) {
		t.Fatalf("GET shows %+v after a Tick that closed nothing, want %+v", got, *closed)
	}
}

// createPacedSession creates a paced session with the default interval.
func createPacedSession(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68, Paced: true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create paced: %d %s", resp.StatusCode, body)
	}
	var cr createResp
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	return cr.SessionID
}

// pacedTrace is a straight walk for the paced tests: its IMU samples
// over a time range, and one scan at the middle of each 3-s interval.
type pacedTrace struct {
	walk []sensors.Sample
	sys  *core.System
}

func newPacedTrace(t *testing.T, sys *core.System, secs float64) pacedTrace {
	t.Helper()
	g, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	walk, _ := g.Walk(nil, 0, secs, 1.8, 90, sensors.Device{}, 0, stats.NewRNG(7))
	return pacedTrace{walk: walk, sys: sys}
}

// upload returns the samples in [from, to), the scans of the intervals
// in it, and the newest event time among them.
func (p pacedTrace) upload(from, to float64) ([]sensors.Sample, []scanReq, float64) {
	var samples []sensors.Sample
	for _, smp := range p.walk {
		if smp.T >= from && smp.T < to {
			samples = append(samples, smp)
		}
	}
	var scans []scanReq
	for st := from + 1.5; st < to; st += 3 {
		loc := 1 + int(st)%p.sys.Plan.NumLocs()
		scans = append(scans, scanReq{T: st, RSS: p.sys.Model.Sample(p.sys.Plan.LocPos(loc), stats.NewRNG(int64(300+st)))})
	}
	return samples, scans, math.Max(samples[len(samples)-1].T, scans[len(scans)-1].T)
}

// sameTrackerState reports whether two session views show the same
// tracker counters and newest fix.
func sameTrackerState(a, b sessionResp) bool {
	if a.Stats != b.Stats || (a.Fix == nil) != (b.Fix == nil) {
		return false
	}
	return a.Fix == nil || keyOf(*a.Fix) == keyOf(*b.Fix)
}

// TestPacedUploadShapes pins server pacing's scan rule against client
// ticks. For each upload shape, a client-paced session is fed a group
// of uploads and ticked at the group's newest event time, and a paced
// session is fed the same group; a GET on the paced session sent as
// soon as its last request returns must show the client's tracker
// state and newest fix. IMU spanning two intervals ahead of their
// scans closes nothing early, and each /scan ticks exactly once.
func TestPacedUploadShapes(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	trace := newPacedTrace(t, sys, 18)

	type group struct {
		from, to  float64
		scanFirst bool
	}
	perInterval := func(scanFirst bool) []group {
		var gs []group
		for from := 0.0; from < 18; from += 3 {
			gs = append(gs, group{from, from + 3, scanFirst})
		}
		return gs
	}
	for _, tc := range []struct {
		name   string
		groups []group
	}{
		{"per-interval IMU first", perInterval(false)},
		{"per-interval scan first", perInterval(true)},
		{"two intervals IMU first", []group{{0, 6, false}, {6, 12, false}, {12, 18, false}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			paced, client := createPacedSession(t, ts), createSession(t, ts)
			ticks0 := srv.met.pacedTicks.Value()
			post := func(path string, body interface{}) {
				t.Helper()
				if resp, b := postJSON(t, ts, path, body); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("%s: %d %s", path, resp.StatusCode, b)
				}
			}
			send := func(id string, gr group, samples []sensors.Sample, scans []scanReq) {
				if !gr.scanFirst {
					post("/v1/sessions/"+id+"/imu", imuReq{Samples: samples})
				}
				for _, sc := range scans {
					post("/v1/sessions/"+id+"/scan", sc)
				}
				if gr.scanFirst {
					post("/v1/sessions/"+id+"/imu", imuReq{Samples: samples})
				}
			}
			nScans := 0
			for _, gr := range tc.groups {
				samples, scans, last := trace.upload(gr.from, gr.to)
				nScans += len(scans)
				send(client, gr, samples, scans)
				if resp, b := postJSON(t, ts, "/v1/sessions/"+client+"/tick", tickReq{T: last}); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
					t.Fatalf("client tick: %d %s", resp.StatusCode, b)
				}
				send(paced, gr, samples, scans)
				var got, want sessionResp
				getJSON(t, ts, "/v1/sessions/"+paced, &got)
				getJSON(t, ts, "/v1/sessions/"+client, &want)
				if !sameTrackerState(got, want) {
					t.Fatalf("after [%g, %g): paced %+v fix %+v, client-ticked %+v fix %+v",
						gr.from, gr.to, got.Stats, got.Fix, want.Stats, want.Fix)
				}
				if want.Stats.Fixes == 0 && gr.to > 6 {
					t.Fatalf("after [%g, %g): no fix yet; the comparison is vacuous", gr.from, gr.to)
				}
			}
			if got := srv.met.pacedTicks.Value() - ticks0; got != int64(nScans) {
				t.Errorf("paced_ticks rose by %d over %d scan uploads, want one each", got, nScans)
			}
		})
	}
}

// TestPacedStreamScanTicks pins that a stream Scan frame ticks a paced
// session as POST /scan does: the same uploads over HTTP and as IMU and
// Scan frames, with no Tick frame sent, leave two paced sessions with
// the same tracker state and newest fix after every interval.
func TestPacedStreamScanTicks(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	addr := startStream(t, srv)
	trace := newPacedTrace(t, sys, 18)

	httpID, streamID := createPacedSession(t, ts), createPacedSession(t, ts)
	sc, err := wire.DialStream(addr, "paced-scan", wire.ClientOptions{SessionID: streamID})
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for r := 0; r < 6; r++ {
		samples, scans, _ := trace.upload(float64(3*r), float64(3*r+3))
		if resp, b := postJSON(t, ts, "/v1/sessions/"+httpID+"/imu", imuReq{Samples: samples}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("imu: %d %s", resp.StatusCode, b)
		}
		if resp, b := postJSON(t, ts, "/v1/sessions/"+httpID+"/scan", scans[0]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan: %d %s", resp.StatusCode, b)
		}
		if err := sc.SendIMU(samples); err != nil {
			t.Fatal(err)
		}
		if err := sc.SendScan(scans[0].T, scans[0].RSS); err != nil {
			t.Fatal(err)
		}
		// The HTTP scan ticked before it returned; the frame's tick
		// lands asynchronously.
		waitUntil(t, fmt.Sprintf("round %d stream scan's paced tick", r), func() bool {
			return srv.met.pacedTicks.Value() >= int64(2*(r+1))
		})
		var viaHTTP, viaStream sessionResp
		getJSON(t, ts, "/v1/sessions/"+httpID, &viaHTTP)
		getJSON(t, ts, "/v1/sessions/"+streamID, &viaStream)
		if !sameTrackerState(viaStream, viaHTTP) {
			t.Fatalf("round %d: stream %+v fix %+v, HTTP %+v fix %+v",
				r, viaStream.Stats, viaStream.Fix, viaHTTP.Stats, viaHTTP.Fix)
		}
		if r > 0 && viaHTTP.Stats.Fixes != int64(r) {
			t.Fatalf("round %d: %d fixes, want %d (one per closed interval)", r, viaHTTP.Stats.Fixes, r)
		}
	}
}

// TestPacedIdleSessionsCostNoTicks pins that pacing runs no background
// work: paced sessions that upload no scan are never ticked, however
// long the server runs, and an IMU-only upload does not tick either.
func TestPacedIdleSessionsCostNoTicks(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 64
	for i := 0; i < n; i++ {
		id := createPacedSession(t, ts)
		if i%2 == 0 {
			resp, b := postJSON(t, ts, "/v1/sessions/"+id+"/imu", imuReq{Samples: []sensors.Sample{{T: 0.5, Accel: 9.8}}})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("imu: %d %s", resp.StatusCode, b)
			}
		}
	}
	srv.Start()
	// Many intervals pass on the server's clock, well inside the TTL,
	// while its background loops run for a second of wall time.
	clock.Advance(time.Minute)
	time.Sleep(time.Second)
	if got := srv.met.pacedTicks.Value(); got != 0 {
		t.Errorf("paced_ticks = %d for %d idle paced sessions, want 0", got, n)
	}
	if got := srv.NumSessions(); got != n {
		t.Errorf("NumSessions = %d, want %d", got, n)
	}
}

// getRaw GETs a path and returns the response and body.
func getRaw(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestPacedSessionStillExpires pins the TTL semantics of pacing: a
// paced session's ticks ride its own uploads, so once the uploads stop
// nothing keeps it alive, and the sweeper evicts it at its idle
// deadline.
func TestPacedSessionStillExpires(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{SessionTTL: time.Minute, Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := createPacedSession(t, ts)
	rss := make([]float64, srv.numAPs)
	for i := range rss {
		rss[i] = -60
	}
	resp, _ := postJSON(t, ts, "/v1/sessions/"+id+"/scan", scanReq{T: 0.5, RSS: rss})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d", resp.StatusCode)
	}
	if got := srv.met.pacedTicks.Value(); got != 1 {
		t.Fatalf("paced_ticks = %d after one paced scan, want 1", got)
	}

	clock.Advance(30 * time.Second)
	if n := srv.sweepOnce(); n != 0 {
		t.Fatalf("sweeper evicted %d sessions inside the TTL, want 0", n)
	}
	clock.Advance(time.Minute)
	if n := srv.sweepOnce(); n != 1 {
		t.Fatalf("sweeper evicted %d sessions, want the idle paced one", n)
	}
	if resp, _ := getRaw(t, ts, "/v1/sessions/"+id); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of the expired paced session: %d, want 404", resp.StatusCode)
	}
}

// TestServerShardStress hammers the striped registry and paced ticking
// from every direction at once — concurrent creates, scans (which tick
// the paced half of the fleet), ticks, deletes, and incremental sweeps
// — sized to spread sessions across every stripe. Run under -race in
// CI; the assertion here is a conservation law (created = live +
// deleted + expired), the race detector is the real judge.
func TestServerShardStress(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 1500
	}
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{
		Workers:     4,
		Shards:      8,
		MaxSessions: n + 1,
		SessionTTL:  time.Minute,
		Now:         clock.Now,
	})
	defer srv.Close()
	handler := srv.Handler()

	do := func(method, path, body string) int {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec.Code
	}

	rssB := strings.Builder{}
	rssB.WriteString(`[`)
	for i := 0; i < srv.numAPs; i++ {
		if i > 0 {
			rssB.WriteString(",")
		}
		rssB.WriteString("-60")
	}
	rssB.WriteString(`]`)
	rssJSON := rssB.String()

	// Phase 1: concurrent creates, half of them paced.
	const creators = 16
	ids := make([]string, n)
	var wg sync.WaitGroup
	for c := 0; c < creators; c++ {
		lo, hi := n*c/creators, n*(c+1)/creators
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				body := `{"height_m":1.71,"weight_kg":68}`
				if i%2 == 0 {
					body = `{"height_m":1.71,"weight_kg":68,"paced":true}`
				}
				req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(body))
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, req)
				if rec.Code != http.StatusCreated {
					t.Errorf("create %d: %d %s", i, rec.Code, rec.Body.String())
					return
				}
				var cr createResp
				if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
					t.Error(err)
					return
				}
				ids[i] = cr.SessionID
			}
		}(lo, hi)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := srv.NumSessions(); got != n {
		t.Fatalf("NumSessions = %d after %d creates", got, n)
	}

	// Phase 2: everything at once. Feeders drive data and ticks,
	// deleters remove a third of the fleet, and the sweeper walks
	// stripes incrementally — all concurrently.
	const feeders = 8
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(f)))
			for i := 0; i < 400; i++ {
				id := ids[rng.Intn(n)]
				switch i % 3 {
				case 0:
					do(http.MethodPost, "/v1/sessions/"+id+"/scan",
						fmt.Sprintf(`{"t":%d,"rss":%s}`, i/3*3, rssJSON))
				case 1:
					do(http.MethodPost, "/v1/sessions/"+id+"/imu",
						fmt.Sprintf(`{"samples":[{"t":%d,"accel":9.8}]}`, i/3*3))
				default:
					do(http.MethodPost, "/v1/sessions/"+id+"/tick",
						fmt.Sprintf(`{"t":%d}`, i/3*3))
				}
			}
		}(f)
	}
	deleted := make([]bool, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i += 3 {
			do(http.MethodDelete, "/v1/sessions/"+ids[i], "")
			deleted[i] = true
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]*session, 0, 64)
		nsh := srv.reg.numShards()
		for i := 0; i < 40; i++ {
			_, buf = srv.sweepShard(i%nsh, buf)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Phase 3: expire the remainder. Conservation: every created session
	// is exactly one of live/deleted/expired.
	clock.Advance(time.Hour)
	srv.sweepOnce()
	if got := srv.NumSessions(); got != 0 {
		t.Fatalf("NumSessions = %d after full expiry sweep", got)
	}
	created := srv.met.sessionsCreated.Value()
	del := srv.met.sessionsDeleted.Value()
	exp := srv.met.sessionsExpired.Value()
	if created != int64(n) || del+exp != int64(n) {
		t.Fatalf("conservation violated: created=%d deleted=%d expired=%d (n=%d)", created, del, exp, n)
	}
}
