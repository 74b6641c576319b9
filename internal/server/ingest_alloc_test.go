// Allocation budgets of the JSON data plane: the pooled codec scratch
// must hold POST /v1/observations to a handful of allocations per batch
// — the pre-pool handler cost ~189 allocs per request, one per
// observation plus decoder state — and a client-paced /batch to the
// allocations the tracker and net/http need.
package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"moloc/internal/stats"
)

// discardRW is a no-op ResponseWriter so the measurement sees the
// handler's allocations, not a recorder's.
type discardRW struct {
	h      http.Header
	status int
}

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(c int)           { w.status = c }

func ingestAllocs(t *testing.T, srv *Server) float64 {
	t.Helper()
	pair := firstPair(t, srv.mdb)
	batch := obsNear(srv.plan, pair[0], pair[1], 32)
	data, err := json.Marshal(obsReq{Observations: batch})
	if err != nil {
		t.Fatal(err)
	}
	var rdr bytes.Reader
	u, _ := url.Parse("/v1/observations")
	req := &http.Request{Method: http.MethodPost, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	w := &discardRW{h: make(http.Header)}
	post := func() {
		rdr.Reset(data)
		req.Body = io.NopCloser(&rdr)
		w.status = 0
		srv.handleObservations(w, req)
		if w.status != http.StatusAccepted {
			t.Fatalf("ingest: status %d", w.status)
		}
		// Keep the queue from filling across thousands of runs.
		srv.retrain.mu.Lock()
		srv.retrain.pending = srv.retrain.pending[:0]
		srv.retrain.mu.Unlock()
	}
	for i := 0; i < 16; i++ {
		post() // warm the scratch pool
	}
	return testing.AllocsPerRun(200, post)
}

func TestIngestAllocBudget(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{})
	defer srv.Close()
	if allocs := ingestAllocs(t, srv); allocs > 50 {
		t.Errorf("JSON ingest = %.1f allocs/op, want well under 50", allocs)
	} else {
		t.Logf("JSON ingest (in-memory): %.1f allocs/op", allocs)
	}
}

func TestIngestAllocBudgetDurable(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{DataDir: t.TempDir()})
	defer srv.Close()
	if allocs := ingestAllocs(t, srv); allocs > 50 {
		t.Errorf("JSON ingest (durable) = %.1f allocs/op, want well under 50", allocs)
	} else {
		t.Logf("JSON ingest (durable): %.1f allocs/op", allocs)
	}
}

// TestBatchAllocBudget: one client-paced /batch through the whole
// handler (routing, instrumentation, codec, worker dispatch, tick and
// response) over consecutive 3 s intervals of 30 samples and 3 scans.
// Decoding and encoding through encoding/json costs 53 allocs per
// request here; the codec keeps the per-scan RSS copies the tracker
// buffers and little else, so the budget is half that.
func TestBatchAllocBudget(t *testing.T) {
	srv, _ := testServer(t)
	defer srv.Close()
	h := srv.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions",
		strings.NewReader(`{"height_m":1.7,"weight_kg":65}`)))
	var cr createResp
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		t.Fatal(err)
	}

	const runs, warm = 200, 16
	rng := stats.NewRNG(3)
	bodies := make([][]byte, runs+warm+1)
	for i := range bodies {
		bodies[i] = mustMarshal(t, walkBatch(rng, 3*float64(i), srv.numAPs))
	}
	var rdr bytes.Reader
	u, _ := url.Parse("/v1/sessions/" + cr.SessionID + "/batch")
	req := &http.Request{Method: http.MethodPost, URL: u, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
	w := &discardRW{h: make(http.Header)}
	next := 0
	post := func() {
		rdr.Reset(bodies[next])
		next++
		req.Body = io.NopCloser(&rdr)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("batch %d: status %d", next, w.status)
		}
	}
	for i := 0; i < warm; i++ {
		post() // warm the scratch pool and the tracker's buffers
	}
	allocs := testing.AllocsPerRun(runs, post)
	if allocs > 26 {
		t.Errorf("/batch = %.1f allocs/op, want at most 26", allocs)
	}
	t.Logf("/batch (30 samples, 3 scans, %d-byte body): %.1f allocs/op", len(bodies[0]), allocs)
}
