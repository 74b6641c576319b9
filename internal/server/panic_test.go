package server

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"moloc/internal/tracker"
)

// TestInstrumentRecoversPanic: a panicking handler answers 500 and
// bumps panics_recovered instead of killing the process; the routes
// around it keep working.
func TestInstrumentRecoversPanic(t *testing.T) {
	srv, _ := testServer(t)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", srv.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	for i := 1; i <= 2; i++ {
		resp, err := http.Get(ts.URL + "/boom")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panic request %d: status %d, want 500", i, resp.StatusCode)
		}
		if got := srv.met.panicsRecovered.Value(); got != int64(i) {
			t.Fatalf("panics_recovered = %d, want %d", got, i)
		}
	}
}

// TestInstrumentPanicAfterWriteLeavesResponse: once the handler has
// written, the recovery must not stomp a second status on top.
func TestInstrumentPanicAfterWriteLeavesResponse(t *testing.T) {
	srv, _ := testServer(t)
	h := srv.instrument("late", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		panic("after the header")
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodGet, "/late", nil))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want the handler's 202", rec.Code)
	}
	if got := srv.met.panicsRecovered.Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}
}

// TestRunShardedRecoversPanic: a panic on a pool worker must not kill
// the process or wedge the worker — the caller gets a 500 and the same
// session keeps serving.
func TestRunShardedRecoversPanic(t *testing.T) {
	srv, _ := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id := createSession(t, ts)
	ss, _ := srv.reg.get(id)

	err := srv.runSharded(ss, func(*tracker.Tracker) { panic("tracker bug") })
	var ce *clientError
	if !errors.As(err, &ce) || ce.status != http.StatusInternalServerError {
		t.Fatalf("runSharded on a panicking fn = %v, want a 500 clientError", err)
	}
	if got := srv.met.panicsRecovered.Value(); got != 1 {
		t.Fatalf("panics_recovered = %d, want 1", got)
	}

	// The worker survived; the session still works.
	ran := false
	if err := srv.runSharded(ss, func(*tracker.Tracker) { ran = true }); err != nil || !ran {
		t.Fatalf("worker did not serve the session after the panic: %v", err)
	}
}
