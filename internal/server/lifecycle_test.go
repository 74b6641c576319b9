package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"moloc/internal/sensors"
	"moloc/internal/tracker"
)

// fakeClock is a hand-advanced clock injected through Options.Now so
// lifecycle tests control idleness deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testServerOpts is testServer with explicit serving limits.
func testServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, _ := testServer(t)
	srv.opts = opts.withDefaults()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestServerSessionExpiry drives the full eviction story: an idle
// session past its TTL is evicted by the sweeper, subsequent requests
// (including a tick from a client that still holds the id) see 404,
// and /v1/metricsz reports the eviction.
func TestServerSessionExpiry(t *testing.T) {
	clock := newFakeClock()
	srv, ts := testServerOpts(t, Options{SessionTTL: time.Minute, Now: clock.Now})
	id := createSession(t, ts)

	// Activity keeps the session alive across sweeps.
	clock.Advance(45 * time.Second)
	resp, _ := postJSON(t, ts, "/v1/sessions/"+id+"/imu",
		imuReq{Samples: []sensors.Sample{{T: 0, Accel: 9.8}}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("imu: %d", resp.StatusCode)
	}
	clock.Advance(45 * time.Second)
	if n := srv.sweepOnce(); n != 0 {
		t.Fatalf("sweeper evicted %d active sessions", n)
	}

	// A session some client still references mid-flight: grab the live
	// pointer, let the TTL lapse, sweep, then use both the stale pointer
	// and the HTTP id.
	ss, _ := srv.reg.get(id)
	clock.Advance(2 * time.Minute)
	if n := srv.sweepOnce(); n != 1 {
		t.Fatalf("sweeper evicted %d sessions, want 1", n)
	}
	if srv.NumSessions() != 0 {
		t.Errorf("sessions after expiry = %d", srv.NumSessions())
	}
	if ss.withTracker(clock.Now(), func(*tracker.Tracker) {}) {
		t.Error("stale session pointer should refuse work after eviction")
	}
	resp, body := postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: 3})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("tick on evicted session: %d %s", resp.StatusCode, body)
	}

	// The eviction is visible in the metrics.
	var met metricsResp
	getJSON(t, ts, "/v1/metricsz", &met)
	if met.Counters["sessions_expired"] != 1 {
		t.Errorf("sessions_expired = %d, want 1 (counters %v)",
			met.Counters["sessions_expired"], met.Counters)
	}
	if met.Counters["sessions_created"] != 1 {
		t.Errorf("sessions_created = %d, want 1", met.Counters["sessions_created"])
	}
}

// TestServerSweeperBackground runs the real background sweeper (no
// manual sweepOnce) against a short TTL on the wall clock.
func TestServerSweeperBackground(t *testing.T) {
	srv, ts := testServerOpts(t, Options{
		SessionTTL:    30 * time.Millisecond,
		SweepInterval: 5 * time.Millisecond,
	})
	srv.Start()
	defer srv.Close()
	createSession(t, ts)
	deadline := time.Now().Add(2 * time.Second)
	for srv.NumSessions() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := srv.NumSessions(); n != 0 {
		t.Errorf("background sweeper left %d sessions", n)
	}
}

// TestServerMaxSessionsOverflow verifies the 429 load-shedding path
// and that deleting a session frees a slot.
func TestServerMaxSessionsOverflow(t *testing.T) {
	_, ts := testServerOpts(t, Options{MaxSessions: 2})
	a := createSession(t, ts)
	createSession(t, ts)
	resp, body := postJSON(t, ts, "/v1/sessions", createReq{HeightM: 1.7, WeightKg: 70})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow create: %d %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+a, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", del.StatusCode)
	}
	createSession(t, ts) // the freed slot is reusable

	var met metricsResp
	getJSON(t, ts, "/v1/metricsz", &met)
	if met.Counters["sessions_rejected"] != 1 {
		t.Errorf("sessions_rejected = %d, want 1", met.Counters["sessions_rejected"])
	}
}

// TestServerOversizedBody verifies MaxBytesReader answers 413 on every
// JSON endpoint.
func TestServerOversizedBody(t *testing.T) {
	_, ts := testServerOpts(t, Options{MaxBodyBytes: 256})
	id := createSession(t, ts)
	huge := `{"t":1,"rss":[` + strings.Repeat("-60,", 400) + `-60]}`
	for _, path := range []string{
		"/v1/sessions",
		"/v1/sessions/" + id + "/imu",
		"/v1/sessions/" + id + "/scan",
		"/v1/sessions/" + id + "/tick",
	} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(huge)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with oversized body: %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestServerIMUBatchCap verifies the per-batch sample cap independent
// of the byte cap.
func TestServerIMUBatchCap(t *testing.T) {
	_, ts := testServerOpts(t, Options{MaxIMUBatch: 8, MaxBodyBytes: 1 << 24})
	id := createSession(t, ts)
	batch := make([]sensors.Sample, 9)
	for i := range batch {
		batch[i] = sensors.Sample{T: float64(i) * 0.1, Accel: 9.8}
	}
	resp, body := postJSON(t, ts, "/v1/sessions/"+id+"/imu", imuReq{Samples: batch})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d %s, want 413", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts, "/v1/sessions/"+id+"/imu", imuReq{Samples: batch[:8]})
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("cap-sized batch: %d, want 202", resp.StatusCode)
	}
}

// TestServerNoScanTick is the end-to-end regression for the stale-scan
// bug: an interval with a scan produces 200, later intervals with no
// scan beyond the staleness window produce 204, and fresh RSS revives
// the stream.
func TestServerNoScanTick(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts)

	feedIMU := func(t0, t1 float64) {
		t.Helper()
		var batch []sensors.Sample
		for x := t0; x < t1; x += 0.1 {
			batch = append(batch, sensors.Sample{T: x, Accel: 9.8})
		}
		resp, _ := postJSON(t, ts, "/v1/sessions/"+id+"/imu", imuReq{Samples: batch})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("imu: %d", resp.StatusCode)
		}
	}
	rss := make([]float64, srv.numAPs)
	for i := range rss {
		rss[i] = -60
	}

	feedIMU(0, 3)
	resp, _ := postJSON(t, ts, "/v1/sessions/"+id+"/scan", scanReq{T: 1, RSS: rss})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick with scan: %d %s", resp.StatusCode, body)
	}
	// [3,6) is served by the staleness window; [6,9) onward must not be.
	feedIMU(3, 9)
	resp, _ = postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: 6})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick in window: %d", resp.StatusCode)
	}
	resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: 9})
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tick with stale scan: %d %s, want 204", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts, "/v1/sessions/"+id+"/scan", scanReq{T: 10, RSS: rss})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d", resp.StatusCode)
	}
	feedIMU(9, 12)
	resp, _ = postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: 12})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("tick after fresh scan: %d, want 200", resp.StatusCode)
	}
}

// TestServerMetricsEndpoint checks the observability contract: per
// route/status request counters, latency histograms, and the
// candidate-set-size histogram all populate.
func TestServerMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts)

	rss := make([]float64, srv.numAPs)
	for i := range rss {
		rss[i] = -60
	}
	postJSON(t, ts, "/v1/sessions/"+id+"/scan", scanReq{T: 1, RSS: rss})
	postJSON(t, ts, "/v1/sessions/"+id+"/imu",
		imuReq{Samples: []sensors.Sample{{T: 0.5, Accel: 9.8}}})
	resp, _ := postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d", resp.StatusCode)
	}
	postJSON(t, ts, "/v1/sessions/nope/tick", tickReq{T: 1}) // a 404 to count

	var met metricsResp
	getJSON(t, ts, "/v1/metricsz", &met)
	if met.Sessions != 1 {
		t.Errorf("sessions gauge = %d", met.Sessions)
	}
	for _, c := range []string{
		"requests{route=create,status=201}",
		"requests{route=scan,status=202}",
		"requests{route=imu,status=202}",
		"requests{route=tick,status=200}",
		"requests{route=tick,status=404}",
	} {
		if met.Counters[c] < 1 {
			t.Errorf("counter %q = %d, want >= 1 (have %v)", c, met.Counters[c], met.Counters)
		}
	}
	for _, h := range []string{
		"latency_seconds{route=tick}",
		"tick_seconds",
		"candidate_set_size",
	} {
		if met.Histograms[h].Count < 1 {
			t.Errorf("histogram %q empty", h)
		}
	}
	if met.Histograms["candidate_set_size"].Sum < 1 {
		t.Error("candidate-set sizes should be >= 1 per fix")
	}
}

// TestServerRouteMetricsNoAlloc: a route resolves its metric handles
// once, so recording a status it has seen before allocates nothing, and
// the names stay the ones /v1/metricsz has always reported.
func TestServerRouteMetricsNoAlloc(t *testing.T) {
	srv, _ := testServer(t)
	rm := srv.met.route("tick")
	for _, status := range []int{http.StatusOK, http.StatusNotFound} {
		rm.request(status, time.Millisecond) // first use resolves the counter
		if allocs := testing.AllocsPerRun(100, func() { rm.request(status, time.Millisecond) }); allocs != 0 {
			t.Errorf("status %d: %.1f allocs per repeated request, want 0", status, allocs)
		}
	}
	snap := srv.met.reg.Snapshot()
	if got := snap.Counters["requests{route=tick,status=200}"]; got != 102 {
		t.Errorf("requests{route=tick,status=200} = %d, want 102", got)
	}
	if got := snap.Counters["requests{route=tick,status=404}"]; got != 102 {
		t.Errorf("requests{route=tick,status=404} = %d, want 102", got)
	}
	if got := snap.Histograms["latency_seconds{route=tick}"].Count; got != 204 {
		t.Errorf("latency_seconds{route=tick} count = %d, want 204", got)
	}
}

// getJSON fetches and decodes a GET endpoint.
func getJSON(t *testing.T, ts *httptest.Server, path string, out interface{}) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
