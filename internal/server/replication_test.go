// Replication chaos tests: the acceptance criteria of WAL-shipping
// leader/follower serving. A "crash" is, as in durability_test.go, a
// server that is simply abandoned — no Close, no flush (for a follower
// the replication client is stopped first, which is exactly what its
// process dying takes with it). The properties pinned here: a follower
// resumes from its acked sequence with zero double-applies and a
// bit-identical motion DB; a dead leader pushes the follower into the
// follower-stale rung and a revived one pulls it back out; promotion
// opens ingest with every leader-acked observation already durable
// locally.
package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moloc/internal/checkpoint"
	"moloc/internal/fault"
	"moloc/internal/motiondb"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// leaderAddr is the swap-able dial seam: tests retarget the follower's
// redials at a revived leader's new listener.
type leaderAddr struct {
	mu   sync.Mutex
	addr string
}

func (b *leaderAddr) set(a string) {
	b.mu.Lock()
	b.addr = a
	b.mu.Unlock()
}

func (b *leaderAddr) dial() (net.Conn, error) {
	b.mu.Lock()
	a := b.addr
	b.mu.Unlock()
	return net.Dial("tcp", a)
}

// streamFrames ships `frames` copies of batch to addr over the binary
// stream plane and waits for the durable acks.
func streamFrames(t *testing.T, addr, id string, batch []motiondb.Observation, frames int) {
	t.Helper()
	c, err := wire.DialStream(addr, id, wire.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < frames; i++ {
		if err := c.SendObservations(batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
}

// walDump reads every record of l into a map, failing the test on a
// double delivery — the WAL-level form of "zero double-applies".
func walDump(t *testing.T, l *wal.Log) map[uint64][]byte {
	t.Helper()
	out := map[uint64][]byte{}
	for from := l.FirstSeq(); from < l.NextSeq(); {
		next, err := l.ReadFrom(from, 1024, func(seq uint64, payload []byte) error {
			if _, dup := out[seq]; dup {
				t.Fatalf("wal: seq %d delivered twice", seq)
			}
			out[seq] = append([]byte(nil), payload...)
			return nil
		})
		if err != nil {
			t.Fatalf("wal read from %d: %v", from, err)
		}
		if next == from {
			break
		}
		from = next
	}
	return out
}

// healthMap fetches the full /v1/healthz document.
func healthMap(t *testing.T, ts *httptest.Server) map[string]interface{} {
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
	return out
}

// sameTrainState folds both servers' pending observations and compares
// the training state (DB + builder accumulators) byte for byte.
func sameTrainState(t *testing.T, a, b *Server) {
	t.Helper()
	if _, err := a.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	adb, ab := trainState(t, a)
	bdb, bb := trainState(t, b)
	if !bytes.Equal(adb, bdb) {
		t.Fatal("motion DBs diverged between leader and follower")
	}
	if !bytes.Equal(ab, bb) {
		t.Fatal("builder accumulators diverged between leader and follower")
	}
}

// TestReplFollowerCrashResumesFromAckedSeq is chaos scenario (a):
// kill -9 a caught-up follower, restart it over the same data
// directory, and the resumed stream starts at the acked sequence —
// exactly the missed records are applied (no re-send of history, no
// double-applies) and the folded motion DB is bit-identical to the
// leader's.
func TestReplFollowerCrashResumesFromAckedSeq(t *testing.T) {
	sys := buildSys(t)
	leader := durableServer(t, sys, Options{DataDir: t.TempDir()})
	defer leader.Close()
	addr := startStream(t, leader)
	box := &leaderAddr{addr: addr}

	folOpts := Options{DataDir: t.TempDir(), FollowAddr: "leader-0", ReplDial: box.dial}
	fol := durableServer(t, sys, folOpts)
	fol.Start()

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)
	streamFrames(t, addr, "phone-a", batch, 6)
	tail := leader.store.log.NextSeq() - 1
	waitUntil(t, "follower catch-up", func() bool {
		return fol.ReplicationStatus().Applied == tail
	})

	// kill -9: the replication client dies with the process; the WAL is
	// left unflushed and nothing else is shut down.
	fol.stopReplication()

	// The leader keeps taking writes while the follower is down.
	streamFrames(t, addr, "phone-b", batch, 4)
	tail2 := leader.store.log.NextSeq() - 1

	fol2 := durableServer(t, sys, folOpts)
	fol2.Start()
	defer fol2.Close()
	waitUntil(t, "rebooted follower catch-up", func() bool {
		return fol2.ReplicationStatus().Applied == tail2
	})

	// Resume started at the acked sequence: only the records missed
	// while down were streamed and applied.
	if got, want := fol2.met.replApplied.Value(), int64(tail2-tail); got != want {
		t.Fatalf("records applied after reboot = %d, want %d (resume from acked seq)", got, want)
	}
	ldump := walDump(t, leader.store.log)
	fdump := walDump(t, fol2.store.log)
	if len(fdump) != int(tail2) {
		t.Fatalf("follower wal holds %d records, want %d", len(fdump), tail2)
	}
	for seq, p := range ldump {
		if !bytes.Equal(fdump[seq], p) {
			t.Fatalf("wal record %d differs between leader and follower", seq)
		}
	}
	sameTrainState(t, leader, fol2)
}

// TestReplLeaderKillFollowerStaleAndRecovers is chaos scenario (b): the
// leader dies, the follower keeps serving fixes but degrades to the
// follower-stale rung once the lag window passes, healthz reports the
// role and the lag, and a revived leader (same data directory, new
// listener) pulls the ladder back to ok.
func TestReplLeaderKillFollowerStaleAndRecovers(t *testing.T) {
	sys := buildSys(t)
	leaderDir := t.TempDir()
	leader := durableServer(t, sys, Options{DataDir: leaderDir})
	addr := startStream(t, leader)
	box := &leaderAddr{addr: addr}

	fol := durableServer(t, sys, Options{
		DataDir:    t.TempDir(),
		FollowAddr: "leader-0",
		ReplDial:   box.dial,
		ReplLagMax: 300 * time.Millisecond,
	})
	fol.Start()
	defer fol.Close()
	tsF := httptest.NewServer(fol.Handler())
	defer tsF.Close()

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)
	streamFrames(t, addr, "phone-a", batch, 3)
	tail := leader.store.log.NextSeq() - 1
	waitUntil(t, "follower catch-up", func() bool {
		st := fol.ReplicationStatus()
		return st.Applied == tail && st.Connected
	})
	if got := fol.ServingState(); got != "ok" {
		t.Fatalf("caught-up follower state = %q, want ok", got)
	}

	// kill -9 the leader: the stream listener and the replication
	// connection die; the follower's lag clock starts running.
	leader.closeStreams()
	waitUntil(t, "follower-stale entry", func() bool {
		return fol.ServingState() == "follower-stale"
	})

	h := healthMap(t, tsF)
	if h["status"] != "follower-stale" || h["role"] != "follower" {
		t.Fatalf("healthz while leaderless: status=%v role=%v", h["status"], h["role"])
	}
	if c, ok := h["replication_connected"].(bool); !ok || c {
		t.Fatalf("replication_connected = %v, want false", h["replication_connected"])
	}
	lag, ok := h["replication_lag_seconds"].(float64)
	if !ok || lag <= 0 {
		t.Fatalf("replication_lag_seconds = %v, want > 0", h["replication_lag_seconds"])
	}

	// Still serving: a session runs the full HTTP fix loop against the
	// stale follower (fingerprint-only under the hood, but live).
	id := createSession(t, tsF)
	driveHTTPFix(t, tsF, sys, id, 0, pair[0], 41)

	// Revive the leader over the same history on a fresh listener and
	// point the redial seam at it: the follower reconnects, catches up,
	// and climbs back to ok on its own.
	leader2 := durableServer(t, sys, Options{DataDir: leaderDir})
	defer leader2.Close()
	box.set(startStream(t, leader2))
	waitUntil(t, "follower-stale recovery", func() bool {
		return fol.ServingState() == "ok"
	})
	if st := fol.ReplicationStatus(); st.Resumes == 0 {
		t.Fatalf("status = %+v, want a completed resume handshake", st)
	}
}

// TestReplPromoteOpensIngestNoAckedLoss is chaos scenario (c): a
// follower answers ingest with 409 pointing at its leader; promotion
// flips the role at runtime, opens ingest, and loses nothing — every
// observation the leader ever acked is already in the local WAL, by
// the replication counters' own accounting. The admin endpoint is
// idempotent.
func TestReplPromoteOpensIngestNoAckedLoss(t *testing.T) {
	sys := buildSys(t)
	leader := durableServer(t, sys, Options{DataDir: t.TempDir()})
	defer leader.Close()
	addr := startStream(t, leader)
	box := &leaderAddr{addr: addr}

	fol := durableServer(t, sys, Options{DataDir: t.TempDir(), FollowAddr: "leader-0", ReplDial: box.dial})
	fol.Start()
	defer fol.Close()
	tsF := httptest.NewServer(fol.Handler())
	defer tsF.Close()

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)
	const frames = 5
	streamFrames(t, addr, "phone-a", batch, frames)
	tail := leader.store.log.NextSeq() - 1
	waitUntil(t, "follower catch-up", func() bool {
		return fol.ReplicationStatus().Applied == tail
	})

	// A read replica refuses writes, pointing the client at the leader.
	resp, body := postJSON(t, tsF, "/v1/observations", obsReq{Observations: batch})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("follower ingest: status %d, want 409; body %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "leader-0") {
		t.Fatalf("409 body %q does not point at the leader", body)
	}

	resp, body = postJSON(t, tsF, "/v1/admin/promote", struct{}{})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"promoted":true`) ||
		!strings.Contains(string(body), `"leader"`) {
		t.Fatalf("promote: status %d body %s", resp.StatusCode, body)
	}

	// Promotion opened ingest; the WAL extends the replicated history.
	postObs(t, tsF, batch, http.StatusAccepted)
	if got := fol.store.log.NextSeq() - 1; got != tail+1 {
		t.Fatalf("post-promote wal tail = %d, want %d", got, tail+1)
	}

	// No acked-observation loss: everything the leader acked over the
	// stream was applied locally before the role flipped.
	if got, want := fol.met.replAppliedObs.Value(), int64(frames*len(batch)); got != want {
		t.Fatalf("replicated observations applied = %d, want %d", got, want)
	}
	if got := fol.met.replApplied.Value(); got != int64(tail) {
		t.Fatalf("replicated records applied = %d, want %d", got, tail)
	}

	// Idempotent: a second promote is a no-op, and healthz now reports a
	// plain leader with the replication fields gone.
	resp, body = postJSON(t, tsF, "/v1/admin/promote", struct{}{})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"promoted":false`) {
		t.Fatalf("second promote: status %d body %s", resp.StatusCode, body)
	}
	h := healthMap(t, tsF)
	if h["role"] != "leader" {
		t.Fatalf("post-promote role = %v, want leader", h["role"])
	}
	if _, stale := h["replication_lag_seq"]; stale {
		t.Fatal("promoted follower still reports replication lag")
	}
}

// TestReplFollowerWALFaultHealsViaRedial injects a write error into the
// follower's WAL mid-stream: the apply fails, the connection drops, and
// the redial resumes from the durable position — every record lands
// exactly once and a durable retrain clears the degraded rung.
func TestReplFollowerWALFaultHealsViaRedial(t *testing.T) {
	sys := buildSys(t)
	leader := durableServer(t, sys, Options{DataDir: t.TempDir()})
	defer leader.Close()
	addr := startStream(t, leader)
	box := &leaderAddr{addr: addr}

	// The 4th write to a WAL segment fails once: mid-replication, after
	// boot's own writes (an empty follower WAL writes nothing at boot).
	inj := fault.NewInjector(fault.Disk{}, fault.Rule{
		Op: fault.OpWrite, PathContains: ".seg", After: 3, Count: 1,
	})
	fol := durableServer(t, sys, Options{
		DataDir:    t.TempDir(),
		FS:         inj,
		FollowAddr: "leader-0",
		ReplDial:   box.dial,
	})
	fol.Start()
	defer fol.Close()

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)
	streamFrames(t, addr, "phone-a", batch, 8)
	tail := leader.store.log.NextSeq() - 1
	waitUntil(t, "follower heals past the write fault", func() bool {
		return fol.ReplicationStatus().Applied == tail
	})
	if st := fol.ReplicationStatus(); st.Resumes == 0 {
		t.Fatalf("status = %+v, want at least one resume after the fault", st)
	}

	// Exactly once despite the at-least-once redelivery around the tear.
	ldump := walDump(t, leader.store.log)
	fdump := walDump(t, fol.store.log)
	if len(fdump) != int(tail) {
		t.Fatalf("follower wal holds %d records, want %d", len(fdump), tail)
	}
	for seq, p := range ldump {
		if !bytes.Equal(fdump[seq], p) {
			t.Fatalf("wal record %d differs between leader and follower", seq)
		}
	}

	// The fault marked the ladder degraded; a durable fold clears it.
	if _, err := fol.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if got := fol.ServingState(); got != "ok" {
		t.Fatalf("state after healed retrain = %q, want ok", got)
	}
}

// TestReplBootstrapFromCheckpointTornTransfer boots a blank follower
// against a leader whose WAL no longer starts at 1 (checkpoint +
// truncation), over a connection that tears mid-chunk on the first
// dial. The bootstrap must re-request the checkpoint from scratch —
// never install a partial one — and end bit-identical.
func TestReplBootstrapFromCheckpointTornTransfer(t *testing.T) {
	sys := buildSys(t)
	leader := durableServer(t, sys, Options{DataDir: t.TempDir(), WALSegmentBytes: 256})
	defer leader.Close()
	addr := startStream(t, leader)

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)
	streamFrames(t, addr, "phone-a", batch, 8)
	// Fold and checkpoint everything so far: sealed segments below the
	// checkpoint go away, so a blank follower cannot tail from 1 and
	// must bootstrap.
	ckptSeq := leader.store.log.NextSeq() - 1
	if _, err := leader.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	if first := leader.store.log.FirstSeq(); first <= 1 {
		t.Fatalf("leader FirstSeq = %d; truncation did not seal segments, bootstrap unreachable", first)
	}
	// A tail past the checkpoint, so the follower also streams records.
	streamFrames(t, addr, "phone-b", batch, 3)
	tail := leader.store.log.NextSeq() - 1

	// First dial tears after a byte budget mid-checkpoint-transfer;
	// every later dial is clean.
	var tore atomic.Bool
	dial := func() (net.Conn, error) {
		cn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if tore.CompareAndSwap(false, true) {
			return fault.NewConn(cn, 600, -1, nil), nil
		}
		return cn, nil
	}
	fol := durableServer(t, sys, Options{
		DataDir:    t.TempDir(),
		FollowAddr: "leader-0",
		ReplDial:   dial,
	})
	fol.Start()
	defer fol.Close()
	waitUntil(t, "bootstrapped follower catch-up", func() bool {
		return fol.ReplicationStatus().Applied == tail
	})

	st := fol.ReplicationStatus()
	if st.SnapshotsInstalled != 1 {
		t.Fatalf("snapshots installed = %d, want exactly 1 (complete installs only)", st.SnapshotsInstalled)
	}
	if st.Resumes == 0 {
		t.Fatalf("status = %+v, want a resume after the torn transfer", st)
	}
	// The replicated checkpoint was persisted for the follower's own
	// next boot, at the leader's coverage.
	if _, seq, _, err := checkpoint.Latest(fault.Disk{}, fol.store.ckptDir); err != nil || seq != ckptSeq {
		t.Fatalf("follower checkpoint = seq %d, %v; want seq %d", seq, err, ckptSeq)
	}
	// The streamed tail is byte-identical; nothing below the checkpoint
	// was shipped.
	ldump := walDump(t, leader.store.log)
	fdump := walDump(t, fol.store.log)
	if len(fdump) != int(tail-ckptSeq) {
		t.Fatalf("follower wal holds %d records, want the %d past the checkpoint", len(fdump), tail-ckptSeq)
	}
	for seq, p := range fdump {
		if !bytes.Equal(ldump[seq], p) {
			t.Fatalf("wal record %d differs between leader and follower", seq)
		}
	}
	sameTrainState(t, leader, fol)
}

// connGate stalls reads on the connections it wraps while paused,
// standing in for a follower too slow to keep up with its leader.
type connGate struct{ mu sync.RWMutex }

func (g *connGate) pause()  { g.mu.Lock() }
func (g *connGate) resume() { g.mu.Unlock() }

func (g *connGate) wrap(c net.Conn) net.Conn { return &gatedConn{Conn: c, g: g} }

type gatedConn struct {
	net.Conn
	g *connGate
}

func (c *gatedConn) Read(p []byte) (int, error) {
	c.g.mu.RLock()
	c.g.mu.RUnlock()
	return c.Conn.Read(p)
}

// TestReplFollowerRebootstrapsMidRun: a connected follower whose
// builder already holds folded samples falls behind a leader that
// checkpoints and truncates the follower's cursor out of its WAL. The
// leader re-bootstraps it on the same connection, and the follower must
// install the checkpoint over its trained state — not refuse it and
// loop on redials — and converge to bit-identical training state.
func TestReplFollowerRebootstrapsMidRun(t *testing.T) {
	sys := buildSys(t)
	leader := durableServer(t, sys, Options{DataDir: t.TempDir(), WALSegmentBytes: 256})
	defer leader.Close()
	addr := startStream(t, leader)

	var gate connGate
	var dials atomic.Int32
	dial := func() (net.Conn, error) {
		dials.Add(1)
		cn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return gate.wrap(cn), nil
	}
	// A two-record window holds the leader's cursor close behind the
	// follower's acks.
	fol := durableServer(t, sys, Options{
		DataDir:      t.TempDir(),
		FollowAddr:   "leader-0",
		ReplDial:     dial,
		StreamWindow: 2,
	})
	fol.Start()
	defer fol.Close()

	pair := firstPair(t, sys.MDB)
	batch := obsNear(sys.Plan, pair[0], pair[1], 10)
	streamFrames(t, addr, "phone-a", batch, 4)
	tail := leader.store.log.NextSeq() - 1
	waitUntil(t, "follower catch-up", func() bool {
		return fol.ReplicationStatus().Applied == tail
	})
	// Fold on the follower: its builder now holds samples.
	if _, err := fol.RetrainNow(); err != nil {
		t.Fatal(err)
	}

	// Stall the follower, write well past its window, and checkpoint:
	// the sealed segments under the follower's cursor go away.
	gate.pause()
	streamFrames(t, addr, "phone-b", batch, 12)
	if _, err := leader.RetrainNow(); err != nil {
		gate.resume()
		t.Fatal(err)
	}
	first := leader.store.log.FirstSeq()
	gate.resume()
	if first <= tail+6 {
		t.Fatalf("leader FirstSeq = %d after checkpoint; the follower's cursor (<= %d) was not truncated", first, tail+6)
	}
	tail2 := leader.store.log.NextSeq() - 1
	waitUntil(t, "re-bootstrapped follower catch-up", func() bool {
		return fol.ReplicationStatus().Applied == tail2
	})

	st := fol.ReplicationStatus()
	if st.SnapshotsInstalled != 1 {
		t.Fatalf("snapshots installed = %d, want 1", st.SnapshotsInstalled)
	}
	if n := dials.Load(); n != 1 || st.Resumes != 0 {
		t.Fatalf("dials = %d, resumes = %d; want the re-bootstrap on the first connection", n, st.Resumes)
	}
	sameTrainState(t, leader, fol)
}
