// Crash-safe durability and the degradation ladder.
//
// With Options.DataDir set, the ingest→retrain→serve loop survives
// kill -9 without losing an acknowledged observation: POST
// /v1/observations batches are appended to a WAL (internal/wal) before
// the 202 goes out, every retrain publishes an atomic checkpoint of the
// full training state — the motion DB plus the builder's per-pair
// sample accumulators, since entries are fit on cumulative samples —
// and recovery folds newest-valid-checkpoint + WAL tail back together
// (internal/checkpoint).
//
// When durability breaks instead of the process — checkpoint corrupt at
// boot, WAL disk returning EIO — the server degrades rather than dying:
// the ladder walks ok → degraded-fingerprint-only → recovering → ok.
// Degraded sessions keep emitting fixes on the paper's pure fingerprint
// path (Eq. 2–4, tracker.ModeFingerprint); ingestion answers 503 so no
// batch is acknowledged that could be lost; and the first retrain that
// lands a durable checkpoint again climbs back to ok. The state is
// surfaced in /v1/healthz, /v1/metricsz, and each fix's "mode" tag.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"

	"moloc/internal/checkpoint"
	"moloc/internal/motiondb"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// Degradation-ladder states. The zero value is healthy so a server
// without durability never shows anything but "ok".
const (
	stateOK int32 = iota
	stateDegraded
	stateRecovering
	// stateFollowerStale is the replication rung (replication.go): a
	// follower trailing its leader beyond Options.ReplLagMax serves
	// fingerprint-only fixes — its motion DB is as suspect as a degraded
	// server's — and recovers on its own when it catches back up.
	stateFollowerStale
)

// stateName maps ladder states to the strings the API exposes.
func stateName(st int32) string {
	switch st {
	case stateDegraded:
		return "degraded-fingerprint-only"
	case stateRecovering:
		return "recovering"
	case stateFollowerStale:
		return "follower-stale"
	}
	return "ok"
}

// ServingState returns the degradation-ladder position as exposed by
// /v1/healthz: "ok", "degraded-fingerprint-only", or "recovering".
func (s *Server) ServingState() string { return stateName(s.state.Load()) }

// setState moves the ladder, counting each transition by target state.
func (s *Server) setState(st int32) {
	if s.state.Swap(st) != st {
		s.met.reg.Counter("state_transitions{to=" + stateName(st) + "}").Inc()
	}
}

// casState moves the ladder only from a specific rung, so independent
// subsystems (durability here, the replication monitor in
// replication.go) can each clear the rung they own without clobbering
// the other's. Reports whether the transition happened.
func (s *Server) casState(from, to int32) bool {
	if !s.state.CompareAndSwap(from, to) {
		return false
	}
	s.met.reg.Counter("state_transitions{to=" + stateName(to) + "}").Inc()
	return true
}

// fingerprintOnly reports whether sessions should skip motion matching
// this tick. Anything but ok qualifies: in degraded the motion DB is
// suspect, and in recovering it is mid-rebuild.
func (s *Server) fingerprintOnly() bool { return s.state.Load() != stateOK }

// errWALUnavailable fails ingestion when the WAL never opened (boot
// found the log directory unusable); acknowledging a batch that cannot
// be made durable would silently drop it on the next crash.
var errWALUnavailable = errors.New("server: observation log unavailable")

// durableStore bundles the durability handles. log is nil when the WAL
// failed to open — ingestion then refuses batches while serving
// continues degraded.
type durableStore struct {
	log     *wal.Log
	ckptDir string
}

// ckptEnvelope is the checkpoint payload: the motion DB and the
// builder's accumulator state, serialized by internal/motiondb. Both
// are needed for bit-identical recovery — the DB alone would lose every
// pair still below MinSamples.
type ckptEnvelope struct {
	DB      json.RawMessage `json:"db"`
	Builder json.RawMessage `json:"builder"`
}

// openDurability recovers persisted state from DataDir and opens the
// WAL for appending. Every disk fault lands in the degraded state with
// serving still up, because a localization outage is strictly worse
// than serving fingerprint-only fixes. The one refusal is a format
// mismatch, a deployment error rather than a disk fault: a record past
// the checkpoint that is not a binary observation batch is a legacy
// JSON record, and replaying around it would silently drop
// acknowledged data, so boot fails naming its sequence.
// Called from NewWithOptions before any request can arrive, so it may
// touch retrainer state through the locked helpers without contention.
func (s *Server) openDurability() error {
	o := s.opts
	s.setState(stateRecovering)
	s.store = &durableStore{ckptDir: filepath.Join(o.DataDir, "checkpoints")}
	degraded := false

	// Newest valid checkpoint, if any. A corrupt candidate is skipped by
	// Latest; its presence still means acknowledged training data may be
	// gone (the WAL below it was truncated), so the server boots degraded
	// until a fresh retrain checkpoints successfully.
	ckptSeq := uint64(0)
	payload, seq, cst, err := checkpoint.Latest(o.FS, s.store.ckptDir)
	s.met.checkpointCorrupt.Add(int64(cst.CorruptSkipped))
	switch {
	case err == nil:
		if ierr := s.installCheckpoint(payload); ierr != nil {
			s.met.checkpointErrors.Inc()
			degraded = true
		} else {
			ckptSeq = seq
		}
	case errors.Is(err, checkpoint.ErrNoCheckpoint):
		degraded = degraded || cst.CorruptSkipped > 0
	default:
		degraded = true
	}

	// Open the WAL, replaying the records past the checkpoint's coverage
	// into the pending queue (without re-appending them: a nil store).
	// Torn tails are truncated by wal.Open; a binary record that fails
	// decoding or validation (possible only through corruption that beat
	// the CRC) is skipped and counted.
	numLocs := s.plan.NumLocs()
	replayed := 0
	lastSeq := ckptSeq
	var legacy error
	log, err := wal.Open(filepath.Join(o.DataDir, "wal"), wal.Options{
		FS:           o.FS,
		SegmentBytes: o.WALSegmentBytes,
		Policy:       o.FsyncPolicy,
		SyncEvery:    o.FsyncInterval,
	}, func(seq uint64, payload []byte) error {
		if seq <= ckptSeq {
			return nil // already folded into the checkpoint
		}
		if !wire.IsObsPayload(payload) {
			legacy = fmt.Errorf("server: WAL record %d is a legacy JSON record, written before the WAL "+
				"held binary observation batches; this server cannot replay it", seq)
			return legacy
		}
		batch, err := wire.DecodeObservations(payload, nil)
		if err != nil {
			s.met.walReplaySkipped.Inc()
			return nil
		}
		batch, dropped := keepValid(batch, numLocs)
		s.met.walReplaySkipped.Add(dropped)
		replayed += len(batch)
		if _, full, err := s.retrain.append(nil, nil, batch); err != nil || full != nil {
			s.met.observationsDropped.Add(int64(len(batch)))
		}
		return nil
	})
	if legacy != nil {
		return legacy
	}
	if err != nil {
		degraded = true
	} else {
		st := log.OpenStats()
		s.met.walTornTruncations.Add(int64(st.Truncations))
		s.met.walReplayed.Add(int64(replayed))
		log.EnsureSeqAtLeast(ckptSeq)
		lastSeq = log.NextSeq() - 1
		s.store.log = log
		// The group committer serves every ingest path: appends go in
		// with AppendNoSync and acks wait on its covering fsync.
		s.group = wal.NewGroupCommitter(log)
	}
	s.retrain.initSeqs(ckptSeq, lastSeq)

	// Fold the replayed tail and land a fresh checkpoint. Success here
	// (or nothing to do on a clean boot) clears recovering; any failure
	// leaves the ladder degraded.
	if _, err := s.RetrainNow(); err != nil {
		s.met.retrainErrors.Inc()
		degraded = true
	}
	if degraded {
		s.setState(stateDegraded)
	} else {
		s.setState(stateOK)
	}
	return nil
}

// installCheckpoint decodes a checkpoint payload and installs it as the
// training state: the retrainer's DB and builder are replaced and the
// compiled view is published. An incompatible payload (different
// deployment, wrong location count) is rejected so a copied-over data
// directory cannot silently serve another site's statistics.
func (s *Server) installCheckpoint(payload []byte) error {
	var env ckptEnvelope
	if err := json.Unmarshal(payload, &env); err != nil {
		return fmt.Errorf("server: checkpoint envelope: %w", err)
	}
	db, err := motiondb.Decode(env.DB)
	if err != nil {
		return fmt.Errorf("server: checkpoint db: %w", err)
	}
	if db.NumLocs() != s.plan.NumLocs() {
		return fmt.Errorf("server: checkpoint has %d locations, plan has %d",
			db.NumLocs(), s.plan.NumLocs())
	}
	cmp, err := db.Compile(s.retrain.alpha, s.retrain.beta)
	if err != nil {
		return fmt.Errorf("server: compile checkpoint db: %w", err)
	}
	if err := s.retrain.restore(db, env.Builder); err != nil {
		return err
	}
	s.snap.Store(cmp)
	return nil
}

// closeStore syncs and closes the WAL on shutdown. The group committer
// goes first so no fsync races the closing file (its waiters were
// already drained when Close tore down the stream connections).
func (s *Server) closeStore() {
	if s.group != nil {
		s.group.Close()
	}
	if s.store == nil || s.store.log == nil {
		return
	}
	if err := s.store.log.Close(); err != nil {
		s.met.walAppendErrors.Inc()
	}
}

// checkpointStateLocked publishes a checkpoint of the current training
// state covering the WAL through rt.lastSeq, then prunes the WAL
// segments and old checkpoints it supersedes. Caller holds rt.mu.
func (s *Server) checkpointStateLocked(rt *retrainer) error {
	dbBytes, err := rt.db.Encode()
	if err != nil {
		return err
	}
	bldBytes, err := rt.builder.EncodeState()
	if err != nil {
		return err
	}
	payload, err := json.Marshal(ckptEnvelope{DB: dbBytes, Builder: bldBytes})
	if err != nil {
		return fmt.Errorf("server: marshal checkpoint: %w", err)
	}
	if err := checkpoint.Save(s.opts.FS, s.store.ckptDir, rt.lastSeq, payload); err != nil {
		return err
	}
	s.met.checkpointWrites.Inc()
	// Truncation and pruning are space reclamation, not correctness: a
	// failure leaves extra files behind and is only counted.
	if s.store.log != nil {
		if _, err := s.store.log.TruncateThrough(rt.lastSeq); err != nil {
			s.met.walAppendErrors.Inc()
		}
	}
	if err := checkpoint.Prune(s.opts.FS, s.store.ckptDir, checkpointRetain); err != nil {
		s.met.checkpointErrors.Inc()
	}
	return nil
}
