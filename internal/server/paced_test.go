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

	"moloc/internal/sensors"
	"moloc/internal/stats"
	"moloc/internal/wire"
)

// waitUntil polls cond for up to three seconds — paced sweeps run
// asynchronously on pool workers, so assertions after AdvanceWheel need
// to wait for the queued sweeps to land.
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
// stream Tick frames and the server-paced wheel (fixes read back over
// GET after each sweep) must all produce the same (t, loc, moved,
// mode) sequence, because they are codecs over one data-plane core. A
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
	// the time the wheel ticks a paced session at.
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

		// Server pacing: upload only; the wheel fires on wall time and
		// ticks the session at its last event time, and GET reads the
		// fix back once the sweep has ticked it.
		post("/v1/sessions/"+pacedCr.SessionID+"/imu", imuReq{Samples: rd.samples}, http.StatusAccepted)
		post("/v1/sessions/"+pacedCr.SessionID+"/scan", rd.scan, http.StatusAccepted)
		clock.Advance(srv.opts.SessionTTL / 100) // well under TTL
		clock.Advance(4 * time.Second)
		srv.AdvanceWheel(clock.Now())
		waitUntil(t, fmt.Sprintf("round %d paced tick", r), func() bool {
			return srv.met.pacedTicks.Value() >= int64(r+1)
		})
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
		"stream Tick": streamSeq, "paced wheel": pacedSeq,
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
	// paced_fix_seconds is measured on the server's clock, which the
	// fake clock holds still during a sweep: every sample is ~0, not the
	// distance between the fake and the real epoch.
	if got, sum := srv.met.pacedFixSeconds.Count(), srv.met.pacedFixSeconds.Sum(); got != int64(n) || sum >= 1 {
		t.Errorf("paced_fix_seconds: %d samples summing to %g s, want %d summing under 1 s", got, sum, n)
	}
}

// TestPacedStreamGetsNoPush pins the one fix path of a paced session
// with a stream attached: a sweep that closes an interval sends nothing
// down the stream unasked (the connection has one writer, its own frame
// loop), the fix is read with GET, and a Tick frame on the same
// connection is answered with a Fix echoing its sequence.
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

	// A sweep closes the first interval.
	upload(0, 6)
	clock.Advance(4 * time.Second)
	srv.AdvanceWheel(clock.Now())
	waitUntil(t, "the paced tick", func() bool { return srv.met.pacedTicks.Value() >= 1 })
	swept := newest()
	if swept == nil {
		t.Fatal("GET shows no fix after a sweep that closed an interval")
	}
	if err := conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if fr, err := rd.ReadFrame(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("frame type %d seq %d arrived unasked (err %v), want none", fr.Type, fr.Seq, err)
	}

	// A client tick on the stream still runs the client-paced core.
	tickT := upload(6, 12)
	wr.WriteFrame(wire.FrameTick, 9, wire.AppendTick(nil, tickT))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fr, err := rd.ReadFrame()
	if err != nil || fr.Type != wire.FrameFix || fr.Seq != 9 {
		t.Fatalf("tick reply: %v, frame type %d seq %d, want a Fix for seq 9", err, fr.Type, fr.Seq)
	}
	ft, loc, moved, err := wire.DecodeFix(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := newest(); got == nil || got.T != ft || got.Loc != loc || got.Moved != moved || got.T <= swept.T {
		t.Fatalf("tick replied (%v, %d, %v); GET shows %+v after the swept %+v", ft, loc, moved, got, *swept)
	}
}

// TestPacedBatchAmortizesSnapshotLoads pins the whole point of the
// per-worker sweep: K paced sessions due at one advance cost one RCU
// snapshot load per worker sweep, not one per session, and each
// session's tracker adopts the shared view exactly once.
func TestPacedBatchAmortizesSnapshotLoads(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{Workers: 3, Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const K = 24
	rss := make([]float64, srv.numAPs)
	for i := range rss {
		rss[i] = -60
	}
	ids := make([]string, K)
	for i := range ids {
		resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68, Paced: true})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: %d %s", resp.StatusCode, body)
		}
		var cr createResp
		if err := json.Unmarshal(body, &cr); err != nil {
			t.Fatal(err)
		}
		ids[i] = cr.SessionID
		resp, _ = postJSON(t, ts, "/v1/sessions/"+ids[i]+"/scan", scanReq{T: 0.5, RSS: rss})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("scan: %d", resp.StatusCode)
		}
	}
	if got := srv.met.pacedSessions.Value(); got != K {
		t.Fatalf("paced_sessions = %d, want %d", got, K)
	}

	clock.Advance(4 * time.Second)
	srv.AdvanceWheel(clock.Now())
	waitUntil(t, "all paced ticks", func() bool { return srv.met.pacedTicks.Value() >= K })

	ticks := srv.met.pacedTicks.Value()
	loads := srv.met.pacedSnapshotLoads.Value()
	if ticks != K {
		t.Fatalf("paced_ticks = %d, want %d", ticks, K)
	}
	// One advance queues at most one sweep (and one snapshot load) per
	// worker.
	if loads > 3 {
		t.Errorf("paced_snapshot_loads = %d for %d ticks across 3 workers; batching failed", loads, ticks)
	}
	// The view hasn't changed since creation, so no tracker re-adopted.
	if swaps := snapshotSwaps(t, ts, ids[0]); swaps != 0 {
		t.Errorf("SnapshotSwaps = %d with an unchanged view, want 0", swaps)
	}

	// Publish a fresh compiled view, as a retrain would, and advance
	// again: every tracker in a sweep adopts the one shared view (one
	// swap each), still off one snapshot load per worker sweep.
	// Compiling from the retrainer's clone sidesteps the serving DB's
	// per-parameter memoization, which would hand back the same pointer.
	srv.retrain.mu.Lock()
	cmp2, err := srv.retrain.db.Compile(srv.retrain.alpha, srv.retrain.beta)
	srv.retrain.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	srv.snap.Store(cmp2)
	clock.Advance(4 * time.Second)
	srv.AdvanceWheel(clock.Now())
	waitUntil(t, "second paced round", func() bool { return srv.met.pacedTicks.Value() >= 2*K })
	if loads := srv.met.pacedSnapshotLoads.Value(); loads > 6 {
		t.Errorf("paced_snapshot_loads = %d after two rounds across 3 workers", loads)
	}
	if swaps := snapshotSwaps(t, ts, ids[0]); swaps != 1 {
		t.Errorf("SnapshotSwaps = %d after one view change, want 1", swaps)
	}
}

// snapshotSwaps reads a session's SnapshotSwaps stat over the API.
func snapshotSwaps(t *testing.T, ts *httptest.Server, id string) int64 {
	t.Helper()
	resp, body := getRaw(t, ts, "/v1/sessions/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get session: %d", resp.StatusCode)
	}
	var sr sessionResp
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Stats.SnapshotSwaps
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

// TestPacedSessionStillExpires pins the TTL semantics of pacing:
// server-driven ticks are not client activity, so an abandoned paced
// session is still swept at its idle deadline — and its wheel entry is
// dropped at the next fire instead of ticking a corpse forever.
func TestPacedSessionStillExpires(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{SessionTTL: time.Minute, Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.71, WeightKg: 68, Paced: true})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	rss := make([]float64, srv.numAPs)
	for i := range rss {
		rss[i] = -60
	}
	var cr createResp
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	resp, _ = postJSON(t, ts, "/v1/sessions/"+cr.SessionID+"/scan", scanReq{T: 0.5, RSS: rss})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d", resp.StatusCode)
	}
	if got := srv.wheel.scheduled(); got != 1 {
		t.Fatalf("scheduled = %d after paced create, want 1", got)
	}

	// Wheel fires within the TTL: the session ticks but must NOT have
	// its idle deadline extended by its own server-driven ticking.
	clock.Advance(4 * time.Second)
	srv.AdvanceWheel(clock.Now())
	waitUntil(t, "paced tick", func() bool { return srv.met.pacedTicks.Value() >= 1 })

	clock.Advance(2 * time.Minute)
	if n := srv.sweepOnce(); n != 1 {
		t.Fatalf("sweeper evicted %d sessions, want 1 (paced ticks must not refresh the TTL)", n)
	}
	// The next fire notices the eviction and retires the wheel entry.
	clock.Advance(time.Minute)
	srv.AdvanceWheel(clock.Now())
	waitUntil(t, "wheel entry drop", func() bool { return srv.wheel.scheduled() == 0 })
}

// TestServerShardStress hammers the striped registry and the wheel from
// every direction at once — concurrent creates, scans, ticks, deletes,
// wheel advances, and incremental sweeps — sized to spread sessions
// across every stripe. Run under -race in CI; the assertions here are
// conservation laws (created = live + deleted + expired, wheel drains
// to zero), the race detector is the real judge.
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
	// deleters remove a third of the fleet, the wheel advances, and the
	// sweeper walks stripes incrementally — all concurrently.
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
		for i := 0; i < 20; i++ {
			clock.Advance(500 * time.Millisecond)
			srv.AdvanceWheel(clock.Now())
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

	// Phase 3: expire the remainder and drain the wheel. Conservation:
	// every created session is exactly one of live/deleted/expired.
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
	// Every paced entry is retired within two more advances (a sweep
	// may have been shed by a worker still busy with phase 2's work).
	for i := 0; i < 10 && srv.wheel.scheduled() > 0; i++ {
		clock.Advance(4 * time.Second)
		srv.AdvanceWheel(clock.Now())
		time.Sleep(20 * time.Millisecond)
	}
	waitUntil(t, "wheel drain", func() bool { return srv.wheel.scheduled() == 0 })
}
