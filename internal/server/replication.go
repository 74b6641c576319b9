// Leader/follower wiring for WAL-shipping replication (internal/replica).
//
// Any durable server serves replication: a connection whose first frame
// is ReplHello (instead of the ingest Hello) is handed to a
// replica.Leader over the server's own WAL and checkpoints, so followers
// attach to the same stream listener phones do. A server booted with
// Options.FollowAddr is a read replica: a replication client replays the
// leader's WAL into the local WAL byte-for-byte (recovery on either side
// folds the same records), the retrainer folds replicated observations
// into RCU snapshots exactly as the leader's does, and ingest answers
// 409 pointing at the leader. Promote flips the role at runtime — the
// replication client stops and ingest opens — with no acked-observation
// loss, because everything the leader acked is already in the local WAL.
//
// Staleness: a follower that cannot reach (or keep up with) its leader
// for longer than Options.ReplLagMax enters the follower-stale rung of
// the degradation ladder (fingerprint-only fixes — the motion DB is
// suspect, exactly like the degraded rung) and climbs back out on its
// own as soon as it catches up.
package server

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"moloc/internal/checkpoint"
	"moloc/internal/motiondb"
	"moloc/internal/replica"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// Replication roles. The zero value is leader so a server without
// FollowAddr behaves exactly as before replication existed.
const (
	roleLeader int32 = iota
	roleFollower
)

// RoleName reports "leader" or "follower" as /v1/healthz exposes it.
func (s *Server) RoleName() string {
	if s.role.Load() == roleFollower {
		return "follower"
	}
	return "leader"
}

// replSource adapts the server's durable store to replica.Source: the
// leader side reads checkpoints and WAL records through the same seams
// the server's own recovery uses.
type replSource struct {
	s *Server
}

func (rs replSource) Snapshot() ([]byte, uint64, error) {
	payload, seq, _, err := checkpoint.Latest(rs.s.opts.FS, rs.s.store.ckptDir)
	return payload, seq, err
}

func (rs replSource) FirstSeq() uint64 { return rs.s.store.log.FirstSeq() }
func (rs replSource) NextSeq() uint64  { return rs.s.store.log.NextSeq() }

func (rs replSource) CkptSeq() uint64 {
	rt := rs.s.retrain
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.ckptSeq
}

func (rs replSource) NewWALReader() *wal.Reader { return rs.s.store.log.NewReader() }

// serveRepl runs the leader side of one replication connection whose
// hello frame already arrived. Dispatched from handleStreamConn; the
// replica.Leader owns the connection from here.
func (s *Server) serveRepl(conn net.Conn, rd *wire.Reader, wr *wire.Writer, fr wire.Frame) {
	if s.store == nil || s.store.log == nil {
		s.streamFail(wr, fr.Seq, "replication requires durability (-data-dir)")
		return
	}
	lastSeq, window, err := wire.DecodeReplHello(fr.Payload)
	if err != nil {
		s.streamFail(wr, fr.Seq, "bad repl hello: "+err.Error())
		return
	}
	s.met.replConns.Inc()
	ld := replica.NewLeader(replSource{s: s}, replica.LeaderOptions{Now: s.opts.Now})
	if err := ld.Serve(conn, rd, lastSeq, window, s.done); err != nil {
		s.met.streamErrors.Inc()
	}
}

// replApplier adapts the server to replica.Applier: the follower side
// writes replicated records into the local WAL through the server's one
// ingest path (retrain.go), so queue order, WAL order, and — after the
// local fold — the motion database are all identical to the leader's.
type replApplier struct {
	s *Server

	// obs is the reused decode scratch; Apply runs on the single
	// replication goroutine, so one buffer suffices.
	//
	//moloc:reuse
	obs []motiondb.Observation
}

func (ra *replApplier) LastApplied() uint64 {
	return ra.s.store.log.NextSeq() - 1
}

// InstallSnapshot bootstraps from a leader checkpoint: install it as the
// training state (validating first, exactly like boot recovery), persist
// it locally so the next boot recovers from it, and jump the WAL
// sequence to its coverage. Nothing is acked until the local Save
// completed, so a crash mid-install re-requests the checkpoint from
// scratch — a partial install is never visible.
func (ra *replApplier) InstallSnapshot(ckptSeq uint64, payload []byte) error {
	s := ra.s
	// The install swaps in a fresh builder and drops the queued
	// observations: everything at or below ckptSeq is already folded
	// into the incoming checkpoint.
	if err := s.installCheckpoint(payload); err != nil {
		return fmt.Errorf("server: replicated checkpoint rejected: %w", err)
	}
	if err := checkpoint.Save(s.opts.FS, s.store.ckptDir, ckptSeq, payload); err != nil {
		s.met.checkpointErrors.Inc()
		return fmt.Errorf("server: persist replicated checkpoint: %w", err)
	}
	s.met.checkpointWrites.Inc()
	if err := checkpoint.Prune(s.opts.FS, s.store.ckptDir, checkpointRetain); err != nil {
		s.met.checkpointErrors.Inc()
	}
	rt := s.retrain
	rt.mu.Lock()
	rt.ckptSeq = ckptSeq
	if rt.lastSeq < ckptSeq {
		rt.lastSeq = ckptSeq
	}
	rt.mu.Unlock()
	s.store.log.EnsureSeqAtLeast(ckptSeq)
	s.met.replSnapshots.Inc()
	return nil
}

// Apply appends one replicated WAL record locally. The payload goes in
// verbatim (the follower's WAL is byte-identical to the shipped range of
// the leader's); the decoded observations feed the retrainer the same
// way the leader's ingest fed them, minus the validation drops the
// leader's replay would also make. A full queue blocks: backpressure
// simply slows the replication stream down.
func (ra *replApplier) Apply(seq uint64, payload []byte) error {
	s := ra.s
	next := s.store.log.NextSeq()
	if seq < next {
		return nil // duplicate from at-least-once redelivery
	}
	if seq > next {
		return fmt.Errorf("server: replication gap: got seq %d, expected %d", seq, next)
	}
	// Decode exactly as WAL replay does. A record that decodes but holds
	// invalid observations still appends (the WAL must stay
	// byte-identical); only the fold drops them, as the leader's own
	// replay would.
	batch, err := wire.DecodeObservations(payload, ra.obs)
	if err != nil {
		return fmt.Errorf("server: replicated record %d: %w", seq, err)
	}
	ra.obs = batch
	valid, dropped := keepValid(batch, s.plan.NumLocs())
	s.met.walReplaySkipped.Add(dropped)
	wseq, err := s.ingest(payload, valid, true)
	if err != nil {
		return fmt.Errorf("server: replicated append: %w", err)
	}
	if wseq != seq {
		return fmt.Errorf("server: replicated record %d landed at local seq %d", seq, wseq)
	}
	s.met.replApplied.Inc()
	s.met.replAppliedObs.Add(int64(len(valid)))
	return nil
}

// Commit waits for the covering fsync over everything applied so far and
// returns the durable horizon — the sequence the follower acks. Same
// //moloc:durable discipline as the ingest stream: an acked record
// survives follower kill -9.
func (ra *replApplier) Commit() (uint64, error) {
	s := ra.s
	applied := s.store.log.NextSeq() - 1
	if err := s.waitDurable(applied); err != nil {
		return 0, err
	}
	return applied, nil
}

// ReplicationStatus reports the follower's replication position (the
// zero Status on a server that never followed). Exposed for healthz,
// benchmarks, and fleet tooling.
func (s *Server) ReplicationStatus() replica.Status {
	if s.follower == nil {
		return replica.Status{}
	}
	return s.follower.Status()
}

// runFollower drives the replication client until promotion or Close.
func (s *Server) runFollower() {
	defer s.wg.Done()
	s.follower.Run(s.replStop)
}

// stopReplication stops the replication client exactly once; both
// Promote and Close route through it.
func (s *Server) stopReplication() {
	if s.replStop == nil {
		return
	}
	s.replStopOnce.Do(func() { close(s.replStop) })
}

// Promote turns this follower into a leader: the replication client
// stops, ingest opens, and the follower-stale rung clears. It reports
// whether this call performed the promotion (false when the server
// already is the leader), so the admin endpoint is idempotent.
func (s *Server) Promote() bool {
	if !s.role.CompareAndSwap(roleFollower, roleLeader) {
		return false
	}
	s.stopReplication()
	s.casState(stateFollowerStale, stateOK)
	s.met.promotions.Inc()
	return true
}

// handlePromote is POST /v1/admin/promote. Safe to repeat: a promoted
// (or born-leader) server answers 200 with promoted=false.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	promoted := s.Promote()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"role":     s.RoleName(),
		"promoted": promoted,
	})
}

// replMonitor watches replication lag on a follower and moves the
// ladder between ok and follower-stale. It samples at a quarter of the
// staleness window (clamped to [50ms, 1s]) so both entry and recovery
// land well within one window.
func (s *Server) replMonitor() {
	defer s.wg.Done()
	interval := s.opts.ReplLagMax / 4
	if interval < 50*time.Millisecond {
		interval = 50 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	for !s.waitDone(interval) {
		s.updateStaleness()
	}
}

// updateStaleness applies the staleness rule once: a follower whose last
// caught-up instant (or, before first contact, whose boot) is more than
// ReplLagMax ago is stale. Only the ok<->follower-stale edges are
// touched — degraded/recovering are owned by the durability layer.
func (s *Server) updateStaleness() {
	if s.role.Load() != roleFollower {
		return
	}
	ref := s.follower.Status().LastCaughtUp
	if ref.IsZero() {
		ref = s.replStart
	}
	if s.opts.Now().Sub(ref) > s.opts.ReplLagMax {
		s.casState(stateOK, stateFollowerStale)
	} else {
		s.casState(stateFollowerStale, stateOK)
	}
}
