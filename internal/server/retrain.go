// Online motion-database training: the observation ingest endpoint,
// the retrainer state, and the background loop that publishes refreshed
// compiled views. Phones (or a fleet-side pipeline) POST crowdsourced
// RLM observations; every RetrainInterval the retrainer folds the
// queued batch into a streaming motiondb.Builder, rebuilds the entries
// of the touched pairs, recompiles only the dirty edges' probability
// tables (motiondb.RecompileEdges), and publishes the new immutable
// view through the server's RCU snapshot — training cost never lands on
// the serving path, and trackers pick up the swap with one atomic load
// per tick.
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"moloc/internal/floorplan"
	"moloc/internal/localizer"
	"moloc/internal/motiondb"
	"moloc/internal/wire"
)

// retrainer owns the online-training state. It trains against a private
// clone of the serving database — localizers compiled over the original
// never race with training mutations — and only ever hands the serving
// side immutable compiled views through the server's snapshot.
//
// One mutex guards everything below it: ingest appends to the pending
// queue, RetrainNow drains it and rebuilds. Holding mu across the whole
// retrain keeps the invariants trivial; ingest blocks for at most the
// few milliseconds a batch rebuild takes, invisible next to the
// network. An ingest that found the queue full waits on drained, which
// every drain closes and replaces.
type retrainer struct {
	alpha, beta float64
	queueCap    int
	plan        *floorplan.Plan
	graph       *floorplan.WalkGraph // nil: no adjacency filter

	mu      sync.Mutex
	pending []motiondb.Observation
	drained chan struct{}
	builder *motiondb.Builder
	db      *motiondb.DB
	dirty   [][2]int // scratch, reused across retrains
	// lastSeq is the WAL sequence number of the newest appended batch;
	// ckptSeq is the coverage of the last published checkpoint. They
	// are equal exactly when every acknowledged observation is folded
	// into a durable checkpoint (durability.go).
	lastSeq uint64
	ckptSeq uint64
}

// newRetrainer builds the online-training state over a clone of the
// serving database, with the builder compiled for the sessions'
// localizer parameters.
func newRetrainer(plan *floorplan.Plan, mdb *motiondb.DB, lcfg localizer.Config, o Options) (*retrainer, error) {
	rt := &retrainer{
		alpha:    lcfg.Alpha,
		beta:     lcfg.Beta,
		queueCap: o.ObsQueueCap,
		plan:     plan,
		graph:    o.TrainGraph,
		db:       mdb.Clone(),
		drained:  make(chan struct{}),
	}
	b, err := rt.newBuilder()
	if err != nil {
		return nil, err
	}
	rt.builder = b
	return rt, nil
}

// newBuilder returns an empty training builder.
func (rt *retrainer) newBuilder() (*motiondb.Builder, error) {
	bcfg := motiondb.NewBuilderConfig()
	// The map fallback would replace offline-trained entries of touched
	// but still undertrained pairs with wide map-derived priors; online
	// training must only ever override an edge once enough real samples
	// survive sanitation.
	bcfg.MapFallback = false
	b, err := motiondb.NewBuilder(rt.plan, bcfg)
	if err != nil {
		return nil, err
	}
	if rt.graph != nil {
		b.UseGraph(rt.graph)
	}
	return b, nil
}

// pendingLen reports the queued observation count.
func (rt *retrainer) pendingLen() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return len(rt.pending)
}

// append is the retrainer's one enqueue: the payload goes into the WAL
// without its own fsync (wal.AppendNoSync) and obs into the pending
// queue, both under rt.mu so WAL order is queue order. A non-nil full
// means the queue had no room and nothing was written; full is closed
// by the next drain. A nil store skips the WAL (durability off); a
// store whose WAL never opened refuses the batch with
// errWALUnavailable.
func (rt *retrainer) append(store *durableStore, payload []byte, obs []motiondb.Observation) (seq uint64, full <-chan struct{}, err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if len(rt.pending)+len(obs) > rt.queueCap {
		return 0, rt.drained, nil
	}
	if store != nil {
		if store.log == nil {
			return 0, nil, errWALUnavailable
		}
		seq, err = store.log.AppendNoSync(payload)
		if err != nil {
			return 0, nil, err
		}
		rt.lastSeq = seq
	}
	rt.pending = append(rt.pending, obs...)
	return seq, nil, nil
}

// drainLocked empties the pending queue and wakes every ingest waiting
// for room. Callers hold rt.mu.
func (rt *retrainer) drainLocked() {
	rt.pending = rt.pending[:0]
	close(rt.drained)
	rt.drained = make(chan struct{})
}

// initSeqs records the recovered checkpoint coverage and the newest
// WAL sequence at boot.
func (rt *retrainer) initSeqs(ckptSeq, lastSeq uint64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.ckptSeq, rt.lastSeq = ckptSeq, lastSeq
}

// restore replaces the training state with a checkpoint's: db becomes
// the training database, the builder accumulators are rebuilt from the
// serialized state into a fresh builder, and the queued observations —
// already folded into the checkpoint — are discarded, all in one swap
// under rt.mu. Boot recovery calls it before any ingest; a follower's
// mid-run bootstrap calls it over accumulated training state.
func (rt *retrainer) restore(db *motiondb.DB, builderState []byte) error {
	b, err := rt.newBuilder()
	if err != nil {
		return err
	}
	if err := b.RestoreState(builderState); err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.builder, rt.db = b, db
	rt.drainLocked()
	return nil
}

// RetrainNow drains the observation queue, rebuilds the entries of
// every touched pair, recompiles the dirty edges, and — when an edge
// actually changed — publishes the new compiled view through the RCU
// snapshot. The background loop calls it every RetrainInterval; tests
// and embedders may call it directly. It returns the number of dirty
// edges republished.
//
// An edge goes dirty when its rebuilt entry differs from the one the
// retrainer last installed: a touched pair still short of MinSamples
// stays clean (and untrained pairs stay map-seeded or absent), and a
// batch that rebuilds to identical statistics publishes nothing. Once a
// never-compiled pair crosses the sample threshold the incremental
// recompile cannot extend the adjacency, so RetrainNow falls back to
// the full Compile — the executable spec RecompileEdges is tested
// against.
// With durability on (durability.go), a successful retrain also
// publishes a checkpoint covering every acknowledged batch — even one
// with zero dirty edges, because the builder's accumulators changed —
// and climbs the degradation ladder back to ok; a checkpoint failure
// degrades instead, so the ladder always reflects whether acknowledged
// data is durably folded.
func (s *Server) RetrainNow() (int, error) {
	rt := s.retrain
	rt.mu.Lock()
	defer rt.mu.Unlock()
	durable := s.store != nil
	if len(rt.pending) == 0 && (!durable || rt.lastSeq == rt.ckptSeq) {
		return 0, nil
	}
	if durable && s.state.Load() == stateDegraded {
		s.setState(stateRecovering)
	}
	t0 := time.Now()
	rt.builder.AddAll(rt.pending)
	rt.drainLocked()

	built := rt.builder.Build()
	dirty := rt.dirty[:0]
	for _, pair := range rt.builder.TakeTouched() {
		ne, ok := built.Lookup(pair[0], pair[1])
		if !ok {
			continue // not enough surviving samples to (re)train this edge yet
		}
		if cur, ok := rt.db.Lookup(pair[0], pair[1]); ok && cur == ne {
			continue // rebuilt to identical statistics; nothing to publish
		}
		rt.db.Set(pair[0], pair[1], ne)
		dirty = append(dirty, pair)
	}
	rt.dirty = dirty

	if len(dirty) > 0 {
		cmp, err := s.snap.Load().RecompileEdges(rt.db, dirty)
		if err != nil {
			s.met.retrainFullCompiles.Inc()
			cmp, err = rt.db.Compile(rt.alpha, rt.beta)
			if err != nil {
				// The old snapshot keeps serving; stale statistics, not an
				// outage. The pending batch is already folded, so the next
				// retrain retries only the compile.
				return 0, fmt.Errorf("server: retrain compile: %w", err)
			}
		}
		s.snap.Store(cmp)
		s.met.retrains.Inc()
		s.met.retrainDirtyEdges.Add(int64(len(dirty)))
		s.met.retrainSeconds.Observe(time.Since(t0).Seconds())
	}

	if durable && rt.lastSeq > rt.ckptSeq {
		if err := s.checkpointStateLocked(rt); err != nil {
			s.met.checkpointErrors.Inc()
			s.setState(stateDegraded)
			return len(dirty), fmt.Errorf("server: checkpoint: %w", err)
		}
		rt.ckptSeq = rt.lastSeq
	}
	if durable {
		// A durable fold clears only the durability rungs: the
		// follower-stale rung is owned by the replication monitor
		// (replication.go) and must survive a successful local checkpoint —
		// a stale follower's checkpoints are durable but still behind.
		s.casState(stateDegraded, stateOK)
		s.casState(stateRecovering, stateOK)
	}
	return len(dirty), nil
}

// retrainLoop runs RetrainNow every RetrainInterval until Close. After
// an error the wait backs off (doubling, capped at 8 intervals) so a
// failing disk is not hammered every period; the backoff wait is still
// Close-aware, so shutdown stays prompt (see waitDone).
func (s *Server) retrainLoop() {
	defer s.wg.Done()
	delay := s.opts.RetrainInterval
	maxDelay := 8 * s.opts.RetrainInterval
	for !s.waitDone(delay) {
		if _, err := s.RetrainNow(); err != nil {
			s.met.retrainErrors.Inc()
			if delay *= 2; delay > maxDelay {
				delay = maxDelay
			}
		} else {
			delay = s.opts.RetrainInterval
		}
	}
}

// obsReq is the ingest body: a batch of crowdsourced observations.
type obsReq struct {
	Observations []motiondb.Observation `json:"observations"`
}

// obsResp acknowledges an accepted batch.
type obsResp struct {
	Queued  int `json:"queued"`
	Pending int `json:"pending"`
}

// handleObservations ingests a crowdsourced batch. The //moloc:durable
// contract (checked by moloclint's durableack): with durability on, the
// 202 may only be written after the batch reached the WAL and its
// covering fsync completed.
//
//moloc:durable
func (s *Server) handleObservations(w http.ResponseWriter, r *http.Request) {
	// A read replica must not accept writes: the leader's WAL is the one
	// history followers replay, so a batch accepted here would fork it.
	// 409 (not 503) — the request is fine, this server is the wrong one.
	if s.role.Load() == roleFollower {
		httpError(w, http.StatusConflict,
			"read replica: send observations to the leader at "+s.opts.FollowAddr+
				" (or promote this follower)")
		return
	}
	sc := codecPool.Get().(*codecScratch)
	defer codecPool.Put(sc)
	var ok bool
	if sc.body, ok = s.readBody(w, r, sc.body); !ok {
		return
	}
	if err := sc.decodeObservations(); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	batch := sc.obs
	if len(batch) == 0 {
		httpError(w, http.StatusBadRequest, "no observations")
		return
	}
	if len(batch) > maxObsBatch {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d observations exceeds the %d cap; split the upload",
				len(batch), maxObsBatch))
		return
	}
	n := s.plan.NumLocs()
	for i, o := range batch {
		if err := validateObservation(o, n); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("observation %d: %v", i, err))
			return
		}
	}
	// With durability on, the batch must be durable before the 202: an
	// acknowledged batch survives kill -9. Encode outside the lock, in
	// the binary wire format (which WAL replay self-identifies by its
	// magic byte, and which reuses the pooled buffer).
	var payload []byte
	if s.store != nil {
		sc.out = wire.AppendObservations(sc.out[:0], batch)
		payload = sc.out
	}
	seq, err := s.ingest(payload, batch, false)
	switch {
	case errors.Is(err, errQueueFull):
		s.met.observationsDropped.Add(int64(len(batch)))
		httpError(w, http.StatusTooManyRequests,
			"observation queue full; retry after the next retrain")
		return
	case errors.Is(err, errBatchTooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, err.Error())
		return
	}
	if err == nil {
		err = s.waitDurable(seq)
	}
	if err != nil {
		// The disk refused the write or its fsync. Nothing was
		// acknowledged, so nothing can be lost — but durability is gone:
		// the ladder is degraded and ingestion sheds until a checkpoint
		// lands again.
		httpError(w, http.StatusServiceUnavailable,
			"observation log unavailable; batch not accepted")
		return
	}
	writeJSON(w, http.StatusAccepted, obsResp{
		Queued:  len(batch),
		Pending: s.retrain.pendingLen(),
	})
}

// errQueueFull, errBatchTooLarge and errShuttingDown are ingest's
// refusals: the pending queue has no room for the batch now, the batch
// holds more observations than the whole queue (so no drain can ever
// make room), or the server closed while a blocking ingest waited for
// room.
var (
	errQueueFull     = errors.New("observation queue full")
	errBatchTooLarge = errors.New("observation batch larger than the queue")
	errShuttingDown  = errors.New("server shutting down")
)

// ingest is the one durable-ingest path under JSON POST
// /v1/observations, stream ObsBatch frames and the follower's
// replicated records: it enqueues the batch (retrainer.append — WAL
// append without fsync, then the pending queue, under one lock) and
// returns the WAL sequence the caller must pass to waitDurable before
// it acks (0 with durability off). A batch larger than the queue
// fails at once with errBatchTooLarge. A full queue fails with
// errQueueFull, or with block set waits for the next drain (a retrain
// or a checkpoint restore) and retries, until the server closes. A WAL
// failure degrades the ladder.
func (s *Server) ingest(payload []byte, obs []motiondb.Observation, block bool) (uint64, error) {
	if len(obs) > s.retrain.queueCap {
		return 0, fmt.Errorf("%w: %d observations, queue holds %d; split the batch",
			errBatchTooLarge, len(obs), s.retrain.queueCap)
	}
	for {
		seq, full, err := s.retrain.append(s.store, payload, obs)
		switch {
		case err != nil:
			s.met.walAppendErrors.Inc()
			s.setState(stateDegraded)
			return 0, fmt.Errorf("observation log unavailable: %w", err)
		case full == nil:
			if s.store != nil {
				s.met.walAppends.Inc()
			}
			s.met.observationsIn.Add(int64(len(obs)))
			return seq, nil
		case !block:
			return 0, errQueueFull
		}
		select {
		case <-full:
		case <-s.done:
			return 0, errShuttingDown
		}
	}
}

// waitDurable is the one durability wait: it blocks until WAL record
// seq is durable per the fsync policy (wal.GroupCommitter.WaitDurable,
// which amortizes one fsync over every batch that raced in), and every
// 202, stream ack and follower commit is released only after it. A
// failed covering fsync degrades the ladder exactly as a failed append
// does.
func (s *Server) waitDurable(seq uint64) error {
	if s.group == nil || seq == 0 {
		return nil
	}
	if err := s.group.WaitDurable(seq); err != nil {
		s.met.walAppendErrors.Inc()
		s.setState(stateDegraded)
		return err
	}
	return nil
}

// validateObservation rejects out-of-range endpoints and non-physical
// RLMs before they can reach the builder. Self-loops pass — the builder
// counts and drops them like any crowdsourced artifact.
func validateObservation(o motiondb.Observation, numLocs int) error {
	if o.From < 1 || o.From > numLocs || o.To < 1 || o.To > numLocs {
		return fmt.Errorf("endpoints (%d,%d) out of range [1,%d]", o.From, o.To, numLocs)
	}
	if math.IsNaN(o.RLM.Dir) || o.RLM.Dir < 0 || o.RLM.Dir >= 360 {
		return fmt.Errorf("dir must be a bearing in [0,360), got %g", o.RLM.Dir)
	}
	if math.IsNaN(o.RLM.Off) || math.IsInf(o.RLM.Off, 0) || o.RLM.Off < 0 {
		return fmt.Errorf("off must be a distance >= 0, got %g", o.RLM.Off)
	}
	return nil
}

// keepValid filters obs in place to the observations validateObservation
// accepts and reports how many it dropped: the rule for stream frames,
// WAL replay and replicated records, where a poison observation must not
// wedge a resend loop or a boot.
func keepValid(obs []motiondb.Observation, numLocs int) ([]motiondb.Observation, int64) {
	valid := obs[:0]
	for _, o := range obs {
		if validateObservation(o, numLocs) == nil {
			valid = append(valid, o)
		}
	}
	return valid, int64(len(obs) - len(valid))
}
