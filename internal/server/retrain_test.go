package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"moloc/internal/floorplan"
	"moloc/internal/geom"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
)

// obsNear returns n observations of pair (i,j) jittered around the
// plan's map-derived ground truth, so they survive coarse sanitation in
// the retrainer's builder.
func obsNear(plan *floorplan.Plan, i, j, n int) []motiondb.Observation {
	gtDir, gtOff := floorplan.GroundTruthRLM(plan, i, j)
	out := make([]motiondb.Observation, 0, n)
	for k := 0; k < n; k++ {
		jit := float64(k%5) - 2 // -2..+2 degrees around map truth
		out = append(out, motiondb.Observation{
			From: i, To: j,
			RLM: motion.RLM{Dir: geom.NormalizeDeg(gtDir + jit), Off: gtOff + 0.1*float64(k%3)},
		})
	}
	return out
}

func firstPair(t *testing.T, mdb *motiondb.DB) [2]int {
	t.Helper()
	pairs := mdb.Pairs()
	if len(pairs) == 0 {
		t.Fatal("motion database has no trained pairs")
	}
	return pairs[0]
}

func TestObservationsEndpoint(t *testing.T) {
	srv, sys := testServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// An empty batch carries nothing to train on.
	if resp, body := postJSON(t, ts, "/v1/observations", obsReq{}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d body %s", resp.StatusCode, body)
	}

	// Per-observation validation rejects the batch with the index.
	bad := []motiondb.Observation{
		{From: 0, To: 2, RLM: motion.RLM{Dir: 10, Off: 1}},    // endpoint out of range
		{From: 1, To: 2, RLM: motion.RLM{Dir: 360, Off: 1}},   // bearing out of [0,360)
		{From: 1, To: 2, RLM: motion.RLM{Dir: 10, Off: -0.5}}, // negative offset
	}
	for k, o := range bad {
		resp, body := postJSON(t, ts, "/v1/observations", obsReq{Observations: []motiondb.Observation{o}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad observation %d: status %d body %s", k, resp.StatusCode, body)
		}
	}

	// A valid batch is accepted and queued.
	pair := firstPair(t, sys.MDB)
	resp, body := postJSON(t, ts, "/v1/observations",
		obsReq{Observations: obsNear(sys.Plan, pair[0], pair[1], 4)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid batch: status %d body %s", resp.StatusCode, body)
	}
	var out obsResp
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Queued != 4 || out.Pending != 4 {
		t.Errorf("ack = %+v, want queued 4 pending 4", out)
	}
	if srv.met.observationsIn.Value() != 4 {
		t.Errorf("observations_in = %d", srv.met.observationsIn.Value())
	}
}

func TestObservationsLimits(t *testing.T) {
	srv, sys := testServer(t)
	srv.retrain.queueCap = 3
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	pair := firstPair(t, sys.MDB)
	three := obsNear(sys.Plan, pair[0], pair[1], 3)

	// Beyond the batch cap: 413, nothing queued.
	over := obsNear(sys.Plan, pair[0], pair[1], maxObsBatch+1)
	if resp, body := postJSON(t, ts, "/v1/observations", obsReq{Observations: over}); resp.StatusCode != http.StatusRequestEntityTooLarge ||
		!strings.Contains(string(body), "exceeds the 4096 cap") {
		t.Errorf("oversized batch: status %d body %s", resp.StatusCode, body)
	}
	if srv.retrain.pendingLen() != 0 {
		t.Errorf("oversized batch leaked %d into the queue", srv.retrain.pendingLen())
	}

	// Fill the queue (2), then overflow it (2 more > cap 3): 429.
	if resp, _ := postJSON(t, ts, "/v1/observations", obsReq{Observations: three[:2]}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: status %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts, "/v1/observations", obsReq{Observations: three[:2]})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflowing batch: status %d body %s", resp.StatusCode, body)
	}
	if got := srv.met.observationsDropped.Value(); got != 2 {
		t.Errorf("observations_dropped = %d, want 2", got)
	}

	// A retrain drains the queue; ingest recovers.
	if _, err := srv.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if resp, _ := postJSON(t, ts, "/v1/observations", obsReq{Observations: three[:2]}); resp.StatusCode != http.StatusAccepted {
		t.Errorf("post-retrain batch: status %d", resp.StatusCode)
	}
}

// TestRetrainSwapsSnapshot is the deterministic end-to-end retrain
// check: queued observations shift one edge, RetrainNow recompiles
// exactly that edge incrementally, and the server publishes a new
// immutable view while the old one keeps serving the old statistics.
func TestRetrainSwapsSnapshot(t *testing.T) {
	srv, sys := testServer(t)
	base := srv.CompiledSnapshot()
	if base == nil {
		t.Fatal("no initial snapshot")
	}

	// An empty queue is a no-op: no republication.
	if n, err := srv.RetrainNow(); err != nil || n != 0 {
		t.Fatalf("empty retrain: n=%d err=%v", n, err)
	}
	if srv.CompiledSnapshot() != base {
		t.Fatal("empty retrain republished")
	}

	pair := firstPair(t, sys.MDB)
	old, ok := sys.MDB.Lookup(pair[0], pair[1])
	if !ok {
		t.Fatalf("pair %v untrained", pair)
	}
	obs := obsNear(sys.Plan, pair[0], pair[1], 12)
	if _, err := srv.ingest(nil, obs, false); err != nil {
		t.Fatalf("ingest refused: %v", err)
	}

	n, err := srv.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("dirty edges = %d, want exactly the fed pair", n)
	}
	cur := srv.CompiledSnapshot()
	if cur == base {
		t.Fatal("snapshot not republished")
	}
	ne, ok := cur.Lookup(pair[0], pair[1])
	if !ok {
		t.Fatalf("retrained pair %v missing from the new view", pair)
	}
	if ne == old {
		t.Error("retrained entry identical to the offline one")
	}
	if ne.N != len(obs) {
		t.Errorf("retrained N = %d, want %d (all jittered samples survive sanitation)", ne.N, len(obs))
	}

	// The incremental path served it — no full-compile fallback.
	if got := srv.met.retrainFullCompiles.Value(); got != 0 {
		t.Errorf("retrain_full_compiles = %d, want 0", got)
	}
	if srv.met.retrains.Value() != 1 || srv.met.retrainDirtyEdges.Value() != 1 {
		t.Errorf("retrain metrics: retrains=%d dirty=%d, want 1/1",
			srv.met.retrains.Value(), srv.met.retrainDirtyEdges.Value())
	}

	// RCU: the superseded view is untouched for readers still holding it.
	if be, _ := base.Lookup(pair[0], pair[1]); be != old {
		t.Error("superseded view mutated by the retrain")
	}
	// The serving database itself is never mutated online.
	if me, _ := sys.MDB.Lookup(pair[0], pair[1]); me != old {
		t.Error("offline database mutated by the retrain")
	}

	// The queue drained; another retrain is a no-op.
	if n, err := srv.RetrainNow(); err != nil || n != 0 || srv.CompiledSnapshot() != cur {
		t.Errorf("drained retrain: n=%d err=%v", n, err)
	}
}
