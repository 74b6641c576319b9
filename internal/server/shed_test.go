// Overload tests: a full worker queue sheds explicitly on every
// transport — HTTP 503 + Retry-After, a stream Error frame — instead
// of blocking the submitter, and every shed is counted.
package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"moloc/internal/stats"
	"moloc/internal/tracker"
	"moloc/internal/wire"
)

// blockWorker parks worker 0 on a task and fills its queue behind it,
// so the next submit to that worker sheds. The returned func releases
// the worker; it is safe to call more than once.
func blockWorker(t *testing.T, srv *Server) func() {
	t.Helper()
	started, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	if err := srv.pool.submit(0, func() { close(started); <-release }); err != nil {
		t.Fatalf("could not queue the blocking task: %v", err)
	}
	<-started
	for i := 0; i < workerQueueDepth; i++ {
		if err := srv.pool.submit(0, func() {}); err != nil {
			t.Fatalf("filling the queue: submit %d: %v", i, err)
		}
	}
	if err := srv.pool.submit(0, func() {}); err != errShed {
		t.Fatalf("submit to a full queue = %v, want errShed", err)
	}
	return func() { once.Do(func() { close(release) }) }
}

// TestServerShedHTTP: with the only worker busy and its queue full,
// /imu and /batch answer 503 + Retry-After at once instead of waiting
// for room, both sheds are counted, and the same request is admitted
// once the worker drains.
func TestServerShedHTTP(t *testing.T) {
	srv := durableServer(t, buildSys(t), Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts)

	client := &http.Client{Timeout: 5 * time.Second}
	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := client.Post(ts.URL+"/v1/sessions/"+id+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		return resp
	}

	unblock := blockWorker(t, srv)
	defer unblock()
	http0, total0 := srv.met.shedHTTP.Value(), srv.met.poolShed.Value()
	for _, req := range []struct{ path, body string }{
		{"/imu", `{"samples":[]}`},
		{"/batch", `{"t":1}`},
	} {
		start := time.Now()
		resp := post(req.path, req.body)
		if took := time.Since(start); took > time.Second {
			t.Errorf("%s took %v to shed", req.path, took)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s on a full worker: status %d, want 503", req.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s shed without a Retry-After header", req.path)
		}
	}
	if got := srv.met.shedHTTP.Value() - http0; got != 2 {
		t.Errorf("pool_shed{transport=http} rose by %d, want 2", got)
	}
	if got := srv.met.poolShed.Value() - total0; got != 2 {
		t.Errorf("pool_shed_total rose by %d, want 2", got)
	}

	unblock()
	waitUntil(t, "the worker queue to drain", func() bool { return srv.pool.queueDepth(0) == 0 })
	if resp := post("/imu", `{"samples":[]}`); resp.StatusCode != http.StatusAccepted {
		t.Errorf("/imu after the worker drained: status %d, want 202", resp.StatusCode)
	}
}

// TestServerShedStream: a stream frame shed by a full worker comes back
// as an Error frame naming the shed and is counted; the client then
// reconnects and ticks normally. A tick pipelined behind a shed IMU
// frame (which carries no sequence of its own) fails with the shed
// instead of waiting for a reply that never comes.
func TestServerShedStream(t *testing.T) {
	srv := durableServer(t, buildSys(t), Options{Workers: 1})
	defer srv.Close()
	addr := startStream(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts)

	c, err := wire.DialStream(addr, "phone-shed", wire.ClientOptions{SessionID: id})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	unblock := blockWorker(t, srv)
	defer unblock()
	stream0 := srv.met.shedStream.Value()
	if _, _, _, err := c.Tick(1); err == nil || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("tick on a full worker: err = %v, want an error naming the shed", err)
	}
	if got := srv.met.shedStream.Value() - stream0; got != 1 {
		t.Errorf("pool_shed{transport=stream} rose by %d, want 1", got)
	}

	unblock()
	waitUntil(t, "the worker queue to drain", func() bool { return srv.pool.queueDepth(0) == 0 })
	if _, _, _, err := c.Tick(2); err != nil {
		t.Fatalf("tick after the worker drained: %v", err)
	}

	unblock = blockWorker(t, srv)
	defer unblock()
	if err := c.SendIMU(nil); err != nil {
		t.Fatal(err)
	}
	ticked := make(chan error, 1)
	go func() {
		_, _, _, err := c.Tick(3)
		ticked <- err
	}()
	select {
	case err := <-ticked:
		if err == nil || !strings.Contains(err.Error(), "shed") {
			t.Fatalf("tick behind a shed IMU frame: err = %v, want an error naming the shed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tick behind a shed IMU frame still waiting after 5s")
	}
	if got := srv.met.shedStream.Value() - stream0; got != 2 {
		t.Errorf("pool_shed{transport=stream} rose by %d, want 2", got)
	}
	unblock()
	waitUntil(t, "the worker queue to drain", func() bool { return srv.pool.queueDepth(0) == 0 })
	if _, _, _, err := c.Tick(4); err != nil {
		t.Fatalf("tick after the second drain: %v", err)
	}
}

// TestServerShedStreamAcksAppendedBatches: an observation batch and an
// IMU frame arrive in one burst and the IMU frame is shed. The batch was
// already appended, so it is acked before the Error frame, and a resume
// starts after it rather than resending it for a second ingest.
func TestServerShedStreamAcksAppendedBatches(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{Workers: 1})
	defer srv.Close()
	addr := startStream(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts)
	pair := firstPair(t, sys.MDB)

	hello := func() (*wire.Reader, *wire.Writer, wire.Frame) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		rd, wr := wire.NewReader(conn, 0), wire.NewWriter(conn)
		wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, "shed-burst", id))
		if err := wr.Flush(); err != nil {
			t.Fatal(err)
		}
		fr, err := rd.ReadFrame()
		if err != nil || fr.Type != wire.FrameHelloAck {
			t.Fatalf("hello-ack: %v type %d", err, fr.Type)
		}
		return rd, wr, fr
	}

	rd, wr, _ := hello()
	unblock := blockWorker(t, srv)
	defer unblock()
	wr.WriteFrame(wire.FrameObsBatch, 1, wire.AppendObservations(nil, obsNear(sys.Plan, pair[0], pair[1], 3)))
	wr.WriteFrame(wire.FrameIMUBatch, 0, wire.AppendIMU(nil, nil))
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		typ uint8
		seq uint64
	}{{wire.FrameAck, 1}, {wire.FrameError, 0}} {
		fr, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("reading the reply to the burst: %v", err)
		}
		if fr.Type != want.typ || fr.Seq != want.seq {
			t.Fatalf("reply: type %d seq %d, want type %d seq %d", fr.Type, fr.Seq, want.typ, want.seq)
		}
	}
	if _, _, fr := hello(); fr.Seq != 1 {
		t.Errorf("resume point after the shed: %d, want 1 (the appended batch)", fr.Seq)
	}
}

// TestServerShedAccounting offers four queues' worth of concurrent
// /batch traffic to one worker: every request is either served or shed
// with a 503 + Retry-After, every 503 is counted, and nothing is left
// queued afterwards. The admitted requests' p99 is logged.
func TestServerShedAccounting(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{Workers: 1})
	defer srv.Close()
	handler := srv.Handler()

	const (
		clients  = 4 * workerQueueDepth
		requests = 20
	)
	// Every client walks the same interval sequence on its own session:
	// one scan per interval, each request closing the interval before.
	bodies := make([][]byte, requests)
	rng := stats.NewRNG(11)
	for i := range bodies {
		rss := sys.Model.Sample(sys.Plan.LocPos(1+i%sys.Plan.NumLocs()), rng)
		data, err := json.Marshal(batchReq{Scans: []scanReq{{T: float64(3*i) + 1, RSS: rss}}, T: float64(3 * i)})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = data
	}
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}

	ids := make([]string, clients)
	for i := range ids {
		rec := serve(http.MethodPost, "/v1/sessions", []byte(`{"height_m":1.7,"weight_kg":65}`))
		var cr createResp
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &cr) != nil {
			t.Fatalf("create %d: status %d %s", i, rec.Code, rec.Body)
		}
		ids[i] = cr.SessionID
	}

	type outcome struct {
		status     int
		retryAfter bool
		took       time.Duration
	}
	outcomes := make([][]outcome, clients)
	http0 := srv.met.shedHTTP.Value()
	var wg sync.WaitGroup
	for c := range ids {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			path := "/v1/sessions/" + ids[c] + "/batch"
			for _, body := range bodies {
				start := time.Now()
				rec := serve(http.MethodPost, path, body)
				outcomes[c] = append(outcomes[c], outcome{rec.Code, rec.Header().Get("Retry-After") != "", time.Since(start)})
			}
		}(c)
	}
	wg.Wait()

	var shed int64
	var admitted []time.Duration
	for _, cs := range outcomes {
		for _, o := range cs {
			switch o.status {
			case http.StatusOK:
				admitted = append(admitted, o.took)
			case http.StatusServiceUnavailable:
				shed++
				if !o.retryAfter {
					t.Error("503 without a Retry-After header")
				}
			default:
				t.Errorf("status %d, want 200 or 503", o.status)
			}
		}
	}
	if got := srv.met.shedHTTP.Value() - http0; got != shed {
		t.Errorf("pool_shed{transport=http} rose by %d, want %d (the 503s)", got, shed)
	}
	if d := srv.pool.queueDepth(0); d != 0 {
		t.Errorf("worker queue depth %d after the burst, want 0", d)
	}
	if len(admitted) == 0 {
		t.Fatal("no request was admitted")
	}
	sort.Slice(admitted, func(i, j int) bool { return admitted[i] < admitted[j] })
	t.Logf("%d requests: %d admitted (p99 %v), %d shed",
		clients*requests, len(admitted), admitted[len(admitted)*99/100], shed)
}

// TestRunShardedAllocs pins runSharded's dispatch cost: one result
// struct and one closure per request.
func TestRunShardedAllocs(t *testing.T) {
	srv := durableServer(t, buildSys(t), Options{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ss, _ := srv.reg.get(createSession(t, ts))

	noop := func(*tracker.Tracker) {}
	allocs := testing.AllocsPerRun(200, func() {
		if err := srv.runSharded(ss, noop); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("runSharded: %.1f allocs per call", allocs)
	if allocs > 2 {
		t.Errorf("runSharded allocates %.1f times per call, want <= 2", allocs)
	}
}
