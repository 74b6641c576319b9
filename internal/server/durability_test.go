// Crash-recovery and degradation-ladder tests: the acceptance criteria
// of the durability layer. A "crash" is a server that is simply
// abandoned — no Close, no flush — exactly what kill -9 leaves behind;
// recovery must rebuild bit-identical training state from the newest
// checkpoint plus the WAL tail.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"moloc/internal/core"
	"moloc/internal/fault"
	"moloc/internal/fingerprint"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/stats"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// buildSys builds the small office-hall deployment once per test.
func buildSys(t *testing.T) *core.System {
	t.Helper()
	cfg := core.NewConfig()
	cfg.NumTrainTraces = 50
	cfg.NumTestTraces = 2
	cfg.Trace.NumLegs = 10
	sys, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// durableServer builds a server over sys with explicit Options, so a
// test can boot several "processes" against one data directory.
func durableServer(t *testing.T, sys *core.System, o Options) *Server {
	t.Helper()
	fdb, err := sys.Survey.BuildDB(fingerprint.Euclidean{}, sys.Model.NumAPs())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewWithOptions(sys.Plan, fdb, sys.Model.NumAPs(), sys.MDB, sys.Config.Motion, o)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// postObs posts one observation batch expecting the given status.
func postObs(t *testing.T, ts *httptest.Server, obs []motiondb.Observation, want int) {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/observations", obsReq{Observations: obs})
	if resp.StatusCode != want {
		t.Fatalf("observations: status %d, want %d; body %s", resp.StatusCode, want, body)
	}
}

// trainState reads the retrainer's training state (DB + builder
// accumulators) as canonical bytes. Tests only — no ingest may race.
func trainState(t *testing.T, s *Server) (db, builder []byte) {
	t.Helper()
	s.retrain.mu.Lock()
	defer s.retrain.mu.Unlock()
	db, err := s.retrain.db.Encode()
	if err != nil {
		t.Fatal(err)
	}
	builder, err = s.retrain.builder.EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	return db, builder
}

// healthStatus fetches /v1/healthz and returns the status field.
func healthStatus(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	st, _ := out["status"].(string)
	return st
}

// driveHTTPFix walks one interval through the HTTP API (IMU batch, one
// scan near loc, tick past the boundary) and returns the fix.
func driveHTTPFix(t *testing.T, ts *httptest.Server, sys *core.System, id string, t0 float64, loc int, seed int64) fixResp {
	t.Helper()
	g, err := sensors.NewGenerator(sys.Config.Sensors)
	if err != nil {
		t.Fatal(err)
	}
	samples, _ := g.Walk(nil, t0, t0+4, 1.8, 90, sensors.Device{}, 0, stats.NewRNG(seed))
	resp, body := postJSON(t, ts, "/v1/sessions/"+id+"/imu", imuReq{Samples: samples})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("imu: %d %s", resp.StatusCode, body)
	}
	rss := sys.Model.Sample(sys.Plan.LocPos(loc), stats.NewRNG(seed+100))
	resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/scan", scanReq{T: t0 + 1, RSS: rss})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("scan: %d %s", resp.StatusCode, body)
	}
	resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: t0 + 10})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d %s", resp.StatusCode, body)
	}
	var fix fixResp
	if err := json.Unmarshal(body, &fix); err != nil {
		t.Fatal(err)
	}
	return fix
}

// TestCrashRecoveryBitIdentical: kill -9 after acknowledged batches
// must lose nothing — the recovered training state equals folding the
// checkpoint and the WAL tail, byte for byte, against a reference
// server that never crashed.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	sys := buildSys(t)
	pairs := sys.MDB.Pairs()
	if len(pairs) < 2 {
		t.Fatal("fixture has too few trained pairs")
	}
	b1 := obsNear(sys.Plan, pairs[0][0], pairs[0][1], 12)
	b2 := obsNear(sys.Plan, pairs[1][0], pairs[1][1], 12)
	b3 := obsNear(sys.Plan, pairs[0][0], pairs[0][1], 7)

	// Server A: fold b1 into a checkpoint, acknowledge b2 and b3 into the
	// WAL only, then crash (abandon without Close).
	dir := t.TempDir()
	a := durableServer(t, sys, Options{DataDir: dir})
	tsA := httptest.NewServer(a.Handler())
	postObs(t, tsA, b1, http.StatusAccepted)
	if _, err := a.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	postObs(t, tsA, b2, http.StatusAccepted)
	postObs(t, tsA, b3, http.StatusAccepted)
	tsA.Close()

	// Server B boots over the crashed directory.
	b := durableServer(t, sys, Options{DataDir: dir})
	if got := b.ServingState(); got != "ok" {
		t.Fatalf("recovered state = %q, want ok", got)
	}
	if got := b.met.walReplayed.Value(); got != int64(len(b2)+len(b3)) {
		t.Errorf("wal_replayed_observations = %d, want %d", got, len(b2)+len(b3))
	}

	// Reference: the same batches folded with no crash in between.
	ref := durableServer(t, sys, Options{})
	if _, err := ref.ingest(nil, b1, false); err != nil {
		t.Fatalf("reference ingest: %v", err)
	}
	if _, err := ref.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]motiondb.Observation{b2, b3} {
		if _, err := ref.ingest(nil, b, false); err != nil {
			t.Fatalf("reference ingest: %v", err)
		}
	}
	if _, err := ref.RetrainNow(); err != nil {
		t.Fatal(err)
	}

	gotDB, gotBld := trainState(t, b)
	wantDB, wantBld := trainState(t, ref)
	if !bytes.Equal(gotDB, wantDB) {
		t.Error("recovered motion DB differs from fold(checkpoint, WAL tail)")
	}
	if !bytes.Equal(gotBld, wantBld) {
		t.Error("recovered builder state differs from the uncrashed reference")
	}
}

// TestTornTailTruncatedAtBoot: a partial record at the end of the WAL —
// the normal residue of a crash mid-write — is truncated away, never a
// boot failure, and every complete record still replays.
func TestTornTailTruncatedAtBoot(t *testing.T) {
	sys := buildSys(t)
	pair := firstPair(t, sys.MDB)
	b1 := obsNear(sys.Plan, pair[0], pair[1], 5)
	b2 := obsNear(sys.Plan, pair[0], pair[1], 3)

	dir := t.TempDir()
	a := durableServer(t, sys, Options{DataDir: dir})
	tsA := httptest.NewServer(a.Handler())
	postObs(t, tsA, b1, http.StatusAccepted)
	postObs(t, tsA, b2, http.StatusAccepted)
	tsA.Close()

	// Tear the tail: append a few garbage bytes to the last segment, as a
	// crash mid-append would leave.
	walDir := filepath.Join(dir, "wal")
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	var last string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			last = filepath.Join(walDir, e.Name())
		}
	}
	if last == "" {
		t.Fatal("no WAL segment written")
	}
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	b := durableServer(t, sys, Options{DataDir: dir})
	if got := b.ServingState(); got != "ok" {
		t.Fatalf("state after torn tail = %q, want ok", got)
	}
	if b.met.walTornTruncations.Value() < 1 {
		t.Error("torn tail was not counted as truncated")
	}
	if got := b.met.walReplayed.Value(); got != int64(len(b1)+len(b2)) {
		t.Errorf("wal_replayed_observations = %d, want %d", got, len(b1)+len(b2))
	}
}

// TestCleanShutdownLeavesNothingToReplay: Close folds and checkpoints
// the queue, so the next boot replays zero records and starts ok.
func TestCleanShutdownLeavesNothingToReplay(t *testing.T) {
	sys := buildSys(t)
	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 9)

	dir := t.TempDir()
	a := durableServer(t, sys, Options{DataDir: dir})
	tsA := httptest.NewServer(a.Handler())
	postObs(t, tsA, batch, http.StatusAccepted)
	tsA.Close()
	a.Close()
	wantDB, wantBld := trainState(t, a)

	b := durableServer(t, sys, Options{DataDir: dir})
	if got := b.ServingState(); got != "ok" {
		t.Fatalf("state = %q, want ok", got)
	}
	if got := b.met.walReplayed.Value(); got != 0 {
		t.Errorf("clean shutdown still replayed %d observations", got)
	}
	gotDB, gotBld := trainState(t, b)
	if !bytes.Equal(gotDB, wantDB) || !bytes.Equal(gotBld, wantBld) {
		t.Error("state after clean shutdown + boot differs from before")
	}
}

// TestCorruptCheckpointFailSoft is the fail-soft acceptance test: every
// checkpoint corrupt at boot means acknowledged training data may be
// gone, so the server comes up degraded — but localization keeps
// flowing on the pure fingerprint path, healthz says so, and the first
// successful retrain+checkpoint climbs back to ok with motion matching
// restored.
func TestCorruptCheckpointFailSoft(t *testing.T) {
	sys := buildSys(t)
	pair := firstPair(t, sys.MDB)

	dir := t.TempDir()
	a := durableServer(t, sys, Options{DataDir: dir})
	tsA := httptest.NewServer(a.Handler())
	postObs(t, tsA, obsNear(sys.Plan, pair[0], pair[1], 6), http.StatusAccepted)
	if _, err := a.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	tsA.Close()
	a.Close()

	// Flip a byte in every checkpoint on disk.
	ckDir := filepath.Join(dir, "checkpoints")
	entries, err := os.ReadDir(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range entries {
		p := filepath.Join(ckDir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no checkpoint written")
	}

	b := durableServer(t, sys, Options{DataDir: dir})
	ts := httptest.NewServer(b.Handler())
	defer ts.Close()
	if got := healthStatus(t, ts); got != "degraded-fingerprint-only" {
		t.Fatalf("healthz status = %q, want degraded-fingerprint-only", got)
	}
	if b.met.checkpointCorrupt.Value() != int64(corrupted) {
		t.Errorf("checkpoint_corrupt_skipped = %d, want %d",
			b.met.checkpointCorrupt.Value(), corrupted)
	}

	// Degraded sessions still get fixes, tagged fingerprint.
	id := createSession(t, ts)
	fix := driveHTTPFix(t, ts, sys, id, 0, 5, 1)
	if fix.Mode != "fingerprint" {
		t.Fatalf("degraded fix mode = %q, want fingerprint", fix.Mode)
	}
	if fix.Loc < 1 || fix.Loc > sys.Plan.NumLocs() {
		t.Fatalf("degraded fix out of range: %+v", fix)
	}

	// New training data arrives, retrains, and checkpoints: back to ok,
	// with motion matching restored on the next fix.
	postObs(t, ts, obsNear(sys.Plan, pair[0], pair[1], 6), http.StatusAccepted)
	if _, err := b.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := healthStatus(t, ts); got != "ok" {
		t.Fatalf("healthz after recovery = %q, want ok", got)
	}
	fix = driveHTTPFix(t, ts, sys, id, 100, 5, 2)
	if fix.Mode != "moloc" {
		t.Fatalf("recovered fix mode = %q, want moloc", fix.Mode)
	}
}

// TestWALWriteErrorShedsIngest: the WAL disk returning EIO must refuse
// the batch (nothing unacknowledged can be lost), degrade the ladder,
// and keep serving; once the disk heals, ingest and the ladder recover.
func TestWALWriteErrorShedsIngest(t *testing.T) {
	sys := buildSys(t)
	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 4)

	eio := errors.New("injected: EIO")
	inj := fault.NewInjector(fault.Disk{},
		fault.Rule{Op: fault.OpWrite, PathContains: "wal", Err: eio})
	srv := durableServer(t, sys, Options{DataDir: t.TempDir(), FS: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if got := srv.ServingState(); got != "ok" {
		t.Fatalf("boot state = %q", got)
	}

	// First append hits the injected EIO: 503, ladder degraded.
	postObs(t, ts, batch, http.StatusServiceUnavailable)
	if got := healthStatus(t, ts); got != "degraded-fingerprint-only" {
		t.Fatalf("state after WAL EIO = %q", got)
	}
	if srv.met.walAppendErrors.Value() != 1 {
		t.Errorf("wal_append_errors = %d, want 1", srv.met.walAppendErrors.Value())
	}

	// The rule is spent; the disk is healthy again. Ingest succeeds, and
	// the retrain that checkpoints the batch climbs back to ok.
	postObs(t, ts, batch, http.StatusAccepted)
	if _, err := srv.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := healthStatus(t, ts); got != "ok" {
		t.Fatalf("state after recovery = %q, want ok", got)
	}
}

// TestWALOpenFailureServesFingerprintOnly: when the log directory is
// unusable at boot, the server still comes up — degraded, shedding
// ingestion with 503, serving fingerprint-only fixes.
func TestWALOpenFailureServesFingerprintOnly(t *testing.T) {
	sys := buildSys(t)
	pair := firstPair(t, sys.MDB)

	inj := fault.NewInjector(fault.Disk{},
		fault.Rule{Op: fault.OpMkdirAll, PathContains: "wal", Count: 1 << 20})
	srv := durableServer(t, sys, Options{DataDir: t.TempDir(), FS: inj})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if got := healthStatus(t, ts); got != "degraded-fingerprint-only" {
		t.Fatalf("state with unusable WAL dir = %q", got)
	}
	postObs(t, ts, obsNear(sys.Plan, pair[0], pair[1], 3), http.StatusServiceUnavailable)

	id := createSession(t, ts)
	fix := driveHTTPFix(t, ts, sys, id, 0, 7, 3)
	if fix.Mode != "fingerprint" {
		t.Fatalf("fix mode = %q, want fingerprint", fix.Mode)
	}
}

// TestWALLegacyJSONRefusedAtBoot: replay decodes only binary
// observation batches. A JSON record past the checkpoint makes boot
// fail with an error naming its sequence, instead of being folded or
// skipped; a WAL of binary records boots and replays as before.
func TestWALLegacyJSONRefusedAtBoot(t *testing.T) {
	sys := buildSys(t)
	pair := firstPair(t, sys.MDB)
	b1 := obsNear(sys.Plan, pair[0], pair[1], 5)
	b2 := obsNear(sys.Plan, pair[0], pair[1], 3)

	// writeWAL lays down one record per payload, as a crashed server
	// leaves them, and returns the data directory.
	writeWAL := func(payloads ...[]byte) string {
		t.Helper()
		dir := t.TempDir()
		log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := log.AppendNoSync(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	binary := writeWAL(wire.AppendObservations(nil, b1), wire.AppendObservations(nil, b2))
	srv := durableServer(t, sys, Options{DataDir: binary})
	defer srv.Close()
	if got := srv.ServingState(); got != "ok" {
		t.Fatalf("state after binary replay = %q, want ok", got)
	}
	if got := srv.met.walReplayed.Value(); got != int64(len(b1)+len(b2)) {
		t.Errorf("wal_replayed_observations = %d, want %d", got, len(b1)+len(b2))
	}
	if got := srv.met.walReplaySkipped.Value(); got != 0 {
		t.Errorf("wal_replay_skipped = %d on a clean binary WAL", got)
	}

	legacyJSON, err := json.Marshal(b2)
	if err != nil {
		t.Fatal(err)
	}
	legacy := writeWAL(wire.AppendObservations(nil, b1), legacyJSON)
	fdb, err := sys.Survey.BuildDB(fingerprint.Euclidean{}, sys.Model.NumAPs())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := NewWithOptions(sys.Plan, fdb, sys.Model.NumAPs(), sys.MDB, sys.Config.Motion, Options{DataDir: legacy})
	if err == nil {
		bad.Close()
		t.Fatal("boot over a WAL holding a JSON record succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "record 2") || !strings.Contains(msg, "legacy JSON") {
		t.Fatalf("boot error %q does not name legacy JSON record 2", msg)
	}
}

// TestClosePromptDespiteLongIntervals: shutdown must not wait out the
// sweeper's or retrainer's period — waitDone returns on Close.
func TestClosePromptDespiteLongIntervals(t *testing.T) {
	sys := buildSys(t)
	srv := durableServer(t, sys, Options{
		SweepInterval:   time.Hour,
		RetrainInterval: time.Hour,
	})
	srv.Start()
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Close took %v with hour-long intervals", d)
	}
}
