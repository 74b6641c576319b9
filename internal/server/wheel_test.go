package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestWheelAddTracksSize(t *testing.T) {
	w := make(tickWheel, 2)
	now := time.Unix(3000, 0)
	w.add(nil, 3*time.Second, 0, now)
	w.add(nil, 3*time.Second, 1, now)
	if got := w.scheduled(); got != 2 {
		t.Fatalf("scheduled = %d, want 2", got)
	}
	if len(w[0].pending) != 1 || len(w[0].entries) != 0 {
		t.Fatal("a new entry must wait in pending until its worker's sweep adopts it")
	}
	// Adoption moves the entry onto the worker-owned list; the count of
	// scheduled entries is unchanged.
	w[0].adopt()
	if len(w[0].pending) != 0 || len(w[0].entries) != 1 {
		t.Fatalf("after adopt: %d pending, %d entries; want 0, 1", len(w[0].pending), len(w[0].entries))
	}
	if w[0].entries[0].due != now.Add(3*time.Second) {
		t.Errorf("first deadline = %v, want one interval after creation", w[0].entries[0].due)
	}
	if got := w.scheduled(); got != 2 {
		t.Fatalf("scheduled = %d after adopt, want 2", got)
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

// TestPacedTickLateInSlot pins that a paced session is ticked by the
// first advance after its deadline, even when an earlier advance in the
// same 250 ms period ran before the deadline: pacing that marks a
// period done on its first visit would miss this tick.
func TestPacedTickLateInSlot(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock() // starts on a 250 ms boundary
	srv := durableServer(t, sys, Options{Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Created 100 ms into a period, so the 3 s deadline falls 100 ms
	// into a later one.
	clock.Advance(100 * time.Millisecond)
	createPacedSession(t, ts)
	clock.Advance(3*time.Second - 50*time.Millisecond) // 50 ms before the deadline
	srv.AdvanceWheel(clock.Now())
	clock.Advance(150 * time.Millisecond) // 100 ms after it, same period
	srv.AdvanceWheel(clock.Now())
	waitUntil(t, "the late-in-slot paced tick", func() bool { return srv.met.pacedTicks.Value() >= 1 })
	if got := srv.met.pacedTicks.Value(); got != 1 {
		t.Fatalf("paced_ticks = %d, want 1", got)
	}
}

// TestPacedShedKeepsSessions pins the shed path: a sweep offered to a
// worker whose queue is full is counted in pool_shed{transport=paced}
// and pool_shed_total and dropped, and its sessions stay scheduled and
// due, so the next advance after the worker frees up ticks every one of
// them.
func TestPacedShedKeepsSessions(t *testing.T) {
	sys := buildSys(t)
	clock := newFakeClock()
	srv := durableServer(t, sys, Options{Workers: 1, Now: clock.Now})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const K = 8
	for i := 0; i < K; i++ {
		createPacedSession(t, ts)
	}

	// Block the only worker, then fill its queue behind the blocker.
	unblock := blockWorker(t, srv)
	defer unblock()

	shed0, paced0 := srv.met.poolShed.Value(), srv.met.shedPaced.Value()
	clock.Advance(4 * time.Second)
	if n := srv.AdvanceWheel(clock.Now()); n != 0 {
		t.Fatalf("AdvanceWheel queued %d sweeps on a full worker", n)
	}
	if got := srv.met.poolShed.Value(); got != shed0+1 {
		t.Fatalf("pool_shed_total = %d, want %d", got, shed0+1)
	}
	if got := srv.met.shedPaced.Value(); got != paced0+1 {
		t.Fatalf("pool_shed{transport=paced} = %d, want %d", got, paced0+1)
	}

	unblock()
	waitUntil(t, "the worker queue to drain", func() bool { return srv.pool.queueDepth(0) == 0 })
	if n := srv.AdvanceWheel(clock.Now()); n != 1 {
		t.Fatalf("AdvanceWheel queued %d sweeps after the worker freed up, want 1", n)
	}
	waitUntil(t, "every due session to tick", func() bool { return srv.met.pacedTicks.Value() >= K })
	if got := srv.met.pacedTicks.Value(); got != K {
		t.Errorf("paced_ticks = %d, want %d", got, K)
	}
	if got := srv.wheel.scheduled(); got != K {
		t.Errorf("paced_scheduled = %d after a shed sweep, want %d", got, K)
	}
}
