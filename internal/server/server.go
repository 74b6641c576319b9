// Package server exposes MoLoc tracking sessions over HTTP+JSON: a
// deployment-shaped wrapper in which phones create a session, stream
// IMU samples and WiFi scans, and poll for location fixes. It is the
// "localization engine" box of the paper's architecture (Fig. 2) as a
// network service, hardened for long-running deployments: sessions
// carry an idle TTL and are evicted by a background sweeper
// (lifecycle.go), request bodies are size-capped, and every route is
// instrumented with counters and latency histograms served from
// /v1/metricsz (middleware.go, internal/obs).
//
// API (all request/response bodies are JSON):
//
//	POST   /v1/sessions                  {"height_m":1.7,"weight_kg":65}    -> {"session_id":...,"ttl_sec":...,"expires":...}
//	POST   /v1/sessions/{id}/imu         {"samples":[{"t":0,"accel":9.8,...}]}
//	POST   /v1/sessions/{id}/scan        {"t":0.5,"rss":[-60,...]}
//	POST   /v1/sessions/{id}/tick        {"t":3.1}                          -> fix or 204
//	POST   /v1/sessions/{id}/batch       {"samples":[...],"scans":[...],"t":9.1} -> {"fixes":[...]}
//	GET    /v1/sessions/{id}             -> lifecycle info + last fix
//	DELETE /v1/sessions/{id}
//	POST   /v1/observations              {"observations":[{"from":1,"to":2,"rlm":{"dir":90,"off":5}}]} -> 202
//	GET    /v1/healthz
//	GET    /v1/metricsz
//
// The motion database refreshes online: crowdsourced observations
// posted to /v1/observations feed a background retrainer that rebuilds
// the touched edges and publishes a new compiled view through an
// RCU-style atomic snapshot every session's tracker acquires once per
// tick (retrain.go).
//
// A session created with "paced":true is ticked by the server instead
// of by /tick: each scan upload (/scan or a stream Scan frame) closes
// the intervals elapsed by the session's last event, and the client
// polls GET for the last fix (serveClient).
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"moloc/internal/fingerprint"
	"moloc/internal/floorplan"
	"moloc/internal/localizer"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/obs"
	"moloc/internal/replica"
	"moloc/internal/sensors"
	"moloc/internal/tracker"
	"moloc/internal/wal"
)

// Server hosts tracking sessions over one deployment's databases.
type Server struct {
	plan    *floorplan.Plan
	src     fingerprint.CandidateSource
	mdb     *motiondb.DB
	numAPs  int
	mcfg    motion.Config
	opts    Options
	met     *serverMetrics
	pool    *workerPool
	retrain *retrainer

	// store holds the durability handles (durability.go); nil when
	// Options.DataDir is empty and the server runs in-memory only.
	store *durableStore
	// group amortizes WAL fsyncs across concurrent stream connections
	// (wal.GroupCommitter); nil when store is nil.
	group *wal.GroupCommitter
	// state is the degradation-ladder position (stateOK, stateDegraded,
	// stateRecovering, stateFollowerStale), read lock-free by every tick
	// and written on durability and replication transitions.
	state atomic.Int32

	// Replication (replication.go). role distinguishes the leader
	// (accepts ingest, serves replication) from a follower (replays the
	// leader's WAL, answers ingest with 409); Promote flips it at
	// runtime. follower/replStop/replStart exist only in follower mode.
	role         atomic.Int32
	follower     *replica.Follower
	replStop     chan struct{}
	replStopOnce sync.Once
	replStart    time.Time

	// snap is the RCU-published compiled motion index: the retrainer is
	// the only writer, every session's tracker loads it once per tick.
	// All access goes through atomic Load/Store (enforced by the
	// snapshotguard analyzer), so serving stays lock-free while the
	// database refreshes underneath.
	//
	//moloc:snapshot
	snap atomic.Pointer[motiondb.Compiled]

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	wg        sync.WaitGroup

	// stream is the streaming plane's registry (stream.go); its mutable
	// state is guarded by its own mutex.
	stream streamPlane

	// reg is the sharded session registry (registry.go): sessions are
	// striped by the worker pool's own FNV-1a hash, so the serving path
	// has no global session lock — create/lookup/delete/evict on
	// different sessions touch different stripes.
	reg *sessionRegistry

	// pacedScratch holds one fix buffer per pool worker for the ticks
	// paced sessions run on their scan uploads (tickPaced). Element w is
	// touched only by tasks on worker w, which run one at a time.
	pacedScratch []pacedScratch
}

// pacedScratch is one worker's reused paced-tick state: the fix
// destination buffer.
type pacedScratch struct {
	//moloc:reuse
	fixes []tracker.Fix
}

// New builds a server over a candidate source (numAPs wide), a motion
// database, and the floor plan, with default Options.
func New(plan *floorplan.Plan, src fingerprint.CandidateSource, numAPs int,
	mdb *motiondb.DB, mcfg motion.Config) (*Server, error) {
	return NewWithOptions(plan, src, numAPs, mdb, mcfg, Options{})
}

// NewWithOptions is New with explicit serving limits; zero fields of
// opts take the package defaults.
func NewWithOptions(plan *floorplan.Plan, src fingerprint.CandidateSource, numAPs int,
	mdb *motiondb.DB, mcfg motion.Config, opts Options) (*Server, error) {
	if err := mcfg.Validate(); err != nil {
		return nil, err
	}
	if numAPs < 1 {
		return nil, fmt.Errorf("server: numAPs must be >= 1, got %d", numAPs)
	}
	if plan.NumLocs() != src.NumLocs() || plan.NumLocs() != mdb.NumLocs() {
		return nil, fmt.Errorf("server: plan (%d), source (%d), and motion DB (%d) disagree on locations",
			plan.NumLocs(), src.NumLocs(), mdb.NumLocs())
	}
	o := opts.withDefaults()
	// Sessions always run the default localizer parameters (see
	// handleCreate), so one compiled view serves every tracker; it seeds
	// the RCU snapshot the retrainer republishes.
	lcfg := localizer.NewConfig()
	cmp, err := mdb.Compile(lcfg.Alpha, lcfg.Beta)
	if err != nil {
		return nil, fmt.Errorf("server: compile motion database: %w", err)
	}
	rt, err := newRetrainer(plan, mdb, lcfg, o)
	if err != nil {
		return nil, err
	}
	s := &Server{
		plan:    plan,
		src:     src,
		mdb:     mdb,
		numAPs:  numAPs,
		mcfg:    mcfg,
		opts:    o,
		met:     newServerMetrics(),
		pool:    newWorkerPool(o.Workers),
		retrain: rt,
		done:    make(chan struct{}),
		reg:     newSessionRegistry(o.Shards),
	}
	s.pacedScratch = make([]pacedScratch, len(s.pool.queues))
	s.stream.init()
	s.snap.Store(cmp)
	s.registerPoolGauges()
	if o.DataDir != "" {
		if err := s.openDurability(); err != nil {
			s.pool.close()
			return nil, err
		}
	}
	if o.FollowAddr != "" {
		// A follower replays the leader's history into its own WAL; both
		// sides of that need working durability.
		if s.store == nil || s.store.log == nil {
			s.pool.close()
			return nil, fmt.Errorf("server: following %s requires durability (DataDir with a working WAL)", o.FollowAddr)
		}
		s.role.Store(roleFollower)
		s.replStop = make(chan struct{})
		s.replStart = o.Now()
		s.follower = replica.NewFollower(&replApplier{s: s}, replica.FollowerOptions{
			Addr:   o.FollowAddr,
			Dial:   o.ReplDial,
			Window: uint32(o.StreamWindow),
			Now:    o.Now,
		})
	}
	return s, nil
}

// CompiledSnapshot returns the currently published compiled motion
// index, for embedders and tests observing retrain publications.
func (s *Server) CompiledSnapshot() *motiondb.Compiled { return s.snap.Load() }

// The data plane: one core under every transport. HTTP /imu, /scan,
// /tick and /batch (below) and the stream's IMU, Scan and Tick frames
// (stream.go) are codecs that decode into a clientReq, call
// serveClient, and encode its fixes or its clientError. Validation,
// worker dispatch, the degradation-ladder sample, and the per-fix
// metrics therefore happen in exactly one place, so the transports
// cannot drift apart. Server pacing runs in the same core: a paced
// session's scan upload ticks it in the upload's own dispatch.

// clientReq is one client-paced request in transport-neutral form: IMU
// samples and scans to feed the session's tracker, in that order, then
// — when tick is set — a tick closing every interval elapsed at t. The
// stream decodes samples into per-connection scratch, so serveClient
// consumes them and never retains them; scan readings are handed to the
// tracker, which buffers them.
type clientReq struct {
	//moloc:reuse
	samples []sensors.Sample
	scans   []scanReq
	tick    bool
	t       float64
}

// minRSSdBm and maxRSSdBm bound a physical RSS reading in dBm with a
// wide margin: rf.NotDetected is -100, and no handset reports above 30.
const (
	minRSSdBm = -200
	maxRSSdBm = 30
)

// clientError is a data-plane failure. status is the HTTP status the
// JSON codec answers with; the stream sends the message in an Error
// frame.
type clientError struct {
	status int
	msg    string
}

func (e *clientError) Error() string { return e.msg }

// serveClient runs one client-paced request on the session's worker and
// returns dst extended with every fix the tick produced, oldest first.
// The whole request is one worker dispatch and, when it ticks, one RCU
// snapshot acquisition (tracker.TickBatch) and one degradation-ladder
// sample: a degraded server serves the tick on the pure fingerprint path
// regardless of when the state flips mid-request. The result aliases
// dst.
//
// Server pacing: on a paced session, a request that carries a scan but
// no tick also ticks the session at its last event time
// (tracker.LastEventTime), in the same dispatch after the caller is
// released (runSharded). The tick rides the scan, never an IMU-only
// upload, so IMU sent ahead of its intervals' scans closes none of them
// early; but scans of two intervals sent before the first one's IMU
// close that interval without it. Ticking only at event times, paced
// fixes equal those of a client ticking after each upload.
//
//moloc:reuse
func (s *Server) serveClient(ss *session, req clientReq, dst []tracker.Fix) ([]tracker.Fix, error) {
	if len(req.samples) > s.opts.MaxIMUBatch {
		return dst, &clientError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("imu batch of %d samples exceeds the %d-sample cap; split the upload",
				len(req.samples), s.opts.MaxIMUBatch)}
	}
	for _, sc := range req.scans {
		if len(sc.RSS) != s.numAPs {
			return dst, &clientError{http.StatusBadRequest,
				fmt.Sprintf("scan has %d APs, deployment has %d", len(sc.RSS), s.numAPs)}
		}
		// A NaN or ±Inf reading, which only the binary Scan frame can
		// carry, or a finite one so far out that every dissimilarity
		// overflows to +Inf, would turn every candidate probability
		// into NaN.
		for _, v := range sc.RSS {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return dst, &clientError{http.StatusBadRequest,
					fmt.Sprintf("scan has a non-finite RSS reading %v", v)}
			}
			if v < minRSSdBm || v > maxRSSdBm {
				return dst, &clientError{http.StatusBadRequest,
					fmt.Sprintf("scan has an RSS reading of %v dBm, outside [%v, %v]", v, minRSSdBm, maxRSSdBm)}
			}
		}
	}
	fpOnly := s.fingerprintOnly()
	start := time.Now()
	fixes := dst
	pace := ss.paced && !req.tick && len(req.scans) > 0
	if err := s.runSharded(ss, func(tk *tracker.Tracker) {
		for _, smp := range req.samples {
			tk.AddIMU(smp)
		}
		for _, sc := range req.scans {
			tk.AddScan(sc.T, fingerprint.Fingerprint(sc.RSS))
		}
		if !req.tick {
			return
		}
		tk.SetFingerprintOnly(fpOnly)
		t0 := time.Now()
		fixes = tk.TickBatch(req.t, dst)
		s.met.tickSeconds.Observe(time.Since(t0).Seconds())
	}, pace); err != nil {
		return dst, err
	}
	if len(fixes) > len(dst) {
		// Fix latency is end to end from the core's point of view: queue
		// wait on the session's worker plus tracker compute.
		s.met.fixSeconds.Observe(time.Since(start).Seconds())
		s.countFixes(fixes[len(dst):])
	}
	return fixes, nil
}

// countFixes is the per-fix bookkeeping every tick path shares, paced
// ticks included: one candidate_set_size sample and one fixes{mode=…}
// count per fix produced.
func (s *Server) countFixes(fixes []tracker.Fix) {
	for i := range fixes {
		s.met.candidateSetSize.Observe(float64(len(fixes[i].Candidates)))
		if fixes[i].Mode == tracker.ModeFingerprint {
			s.met.fixesFingerprint.Inc()
		} else {
			s.met.fixesMoLoc.Inc()
		}
	}
}

// runSharded executes fn on the session's tracker from the worker pool
// (see pool.go) and waits for it: same-session requests serialize on
// one worker, and distinct sessions spread across the pool. It never
// waits for queue room: a full worker queue returns errShed, which each
// transport maps and counts itself. Every other error is a clientError:
// a closed pool (503), a panic (500), or an evicted session (404).
//
// With pace set, the same task then ticks the paced session
// (tickPaced) after releasing the caller, so the tick stays off the
// caller's reply. The session lock is held from fn through that tick: a
// GET issued once the caller returns waits for the tick and sees its
// fix.
//
// Panics inside fn or the paced tick are caught on the worker — an
// unrecovered panic there would kill the whole process, not just the
// request — while the worker keeps serving other sessions. The session
// lock is released by withTracker's defer, so the session stays usable
// too.
func (s *Server) runSharded(ss *session, fn func(tk *tracker.Tracker), pace bool) error {
	now := s.opts.Now()
	var arrived time.Time
	if pace {
		arrived = time.Now()
	}
	w := shardOf(ss.id, len(s.pool.queues))
	// One struct for the outcome and its completion, so the dispatch
	// moves one object (and the closure) to the heap. It is written only
	// before done is released.
	res := &struct {
		done            sync.WaitGroup
		alive, panicked bool
	}{}
	res.done.Add(1)
	err := s.pool.submit(w, func() {
		alive := ss.withTracker(now, func(tk *tracker.Tracker) {
			ok := s.contain(func() { fn(tk) })
			res.alive, res.panicked = true, !ok
			res.done.Done()
			if ok && pace {
				s.contain(func() { s.tickPaced(tk, &s.pacedScratch[w], arrived) })
			}
		})
		if !alive {
			res.done.Done()
		}
	})
	if err == errPoolClosed {
		return &clientError{http.StatusServiceUnavailable, "server shutting down"}
	} else if err != nil {
		return err
	}
	res.done.Wait()
	if res.panicked {
		return &clientError{http.StatusInternalServerError, "internal error"}
	}
	if !res.alive {
		return &clientError{http.StatusNotFound, "session expired"}
	}
	return nil
}

// contain runs fn and reports whether it returned. A panic is counted
// in panics_recovered and goes no further.
func (s *Server) contain(fn func()) (ok bool) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicsRecovered.Inc()
		}
	}()
	fn()
	return true
}

// tickPaced ticks a paced session's tracker at its last event time,
// into worker scratch sc; its client reads the newest fix with GET
// /v1/sessions/{id}. paced_fix_seconds times each fix from arrived, the
// upload's dispatch.
func (s *Server) tickPaced(tk *tracker.Tracker, sc *pacedScratch, arrived time.Time) {
	ev, started := tk.LastEventTime()
	if !started {
		return
	}
	tk.SetFingerprintOnly(s.fingerprintOnly())
	sc.fixes = tk.TickBatch(ev, sc.fixes[:0])
	s.met.pacedTicks.Inc()
	if len(sc.fixes) > 0 {
		s.met.pacedFixSeconds.Observe(time.Since(arrived).Seconds())
		s.countFixes(sc.fixes)
	}
}

// Handler returns the HTTP handler for the API. Routing is explicit
// per method and path pattern, so unknown paths 404 and wrong methods
// 405 without any hand-rolled dispatch.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.instrument("health", s.handleHealth))
	mux.HandleFunc("GET /v1/metricsz", s.instrument("metrics", s.handleMetrics))
	mux.HandleFunc("POST /v1/sessions", s.instrument("create", s.handleCreate))
	mux.HandleFunc("GET /v1/sessions/{id}", s.instrument("get", s.handleGet))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("POST /v1/sessions/{id}/imu", s.instrument("imu", s.clientHandler(routeIMU)))
	mux.HandleFunc("POST /v1/sessions/{id}/scan", s.instrument("scan", s.clientHandler(routeScan)))
	mux.HandleFunc("POST /v1/sessions/{id}/tick", s.instrument("tick", s.clientHandler(routeTick)))
	mux.HandleFunc("POST /v1/sessions/{id}/batch", s.instrument("batch", s.clientHandler(routeBatch)))
	mux.HandleFunc("POST /v1/observations", s.instrument("observations", s.handleObservations))
	mux.HandleFunc("POST /v1/admin/promote", s.instrument("promote", s.handlePromote))
	return mux
}

// NumSessions reports the number of live sessions.
func (s *Server) NumSessions() int { return s.reg.len() }

// Metrics exposes the server's metric registry, for embedding hosts
// that scrape programmatically instead of via /v1/metricsz.
func (s *Server) Metrics() *obs.Registry { return s.met.reg }

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := map[string]interface{}{
		"status":    s.ServingState(),
		"plan":      s.plan.Name,
		"locations": s.plan.NumLocs(),
		"aps":       s.numAPs,
		"sessions":  s.NumSessions(),
		"role":      s.RoleName(),
	}
	if s.store != nil && s.store.log != nil {
		resp["wal_last_seq"] = s.store.log.NextSeq() - 1
	}
	// Replication lag is reported while the server follows; a promoted
	// follower drops these fields along with the role flip.
	if s.role.Load() == roleFollower {
		st := s.ReplicationStatus()
		resp["leader"] = s.opts.FollowAddr
		resp["replication_connected"] = st.Connected
		resp["replication_applied_seq"] = st.Applied
		lag := uint64(0)
		if st.LeaderLast > st.Applied {
			lag = st.LeaderLast - st.Applied
		}
		resp["replication_lag_seq"] = lag
		// Seconds since the follower last covered the leader's published
		// tail; -1 before it ever has (no contact yet).
		lagSec := -1.0
		if !st.LastCaughtUp.IsZero() {
			lagSec = s.opts.Now().Sub(st.LastCaughtUp).Seconds()
		}
		resp["replication_lag_seconds"] = lagSec
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	gst := s.GroupStats()
	writeJSON(w, http.StatusOK, metricsResp{
		Sessions:        s.NumSessions(),
		State:           s.ServingState(),
		WALGroupSyncs:   gst.Syncs,
		WALGroupBatches: gst.Batches,
		Snapshot:        s.met.reg.Snapshot(),
	})
}

// GroupStats snapshots the WAL group committer's amortization counters
// (zero when durability is off).
func (s *Server) GroupStats() wal.GroupStats {
	if s.group == nil {
		return wal.GroupStats{}
	}
	return s.group.Stats()
}

// createReq is the session-creation body.
type createReq struct {
	HeightM     float64 `json:"height_m"`
	WeightKg    float64 `json:"weight_kg"`
	IntervalSec float64 `json:"interval_sec,omitempty"`
	// Paced opts the session into server-driven ticking (serveClient):
	// each scan upload closes the intervals that have elapsed by the
	// session's last event, so the client only uploads data and polls
	// GET for the last fix. molocd -paced forces it for every session.
	Paced bool `json:"paced,omitempty"`
}

// createResp announces a new session and its lifecycle contract.
type createResp struct {
	SessionID string    `json:"session_id"`
	TTLSec    float64   `json:"ttl_sec"`
	Expires   time.Time `json:"expires"`
	Paced     bool      `json:"paced,omitempty"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createReq
	if !s.decodeJSON(w, r, &req) {
		return
	}
	if req.HeightM < 1 || req.HeightM > 2.3 || req.WeightKg < 25 || req.WeightKg > 250 {
		httpError(w, http.StatusBadRequest, "implausible user profile")
		return
	}
	stepLen := motion.StepLength(s.mcfg, req.HeightM, req.WeightKg)
	cfg := tracker.NewConfig(stepLen)
	cfg.Motion = s.mcfg
	// Gating changes only the candidate search space, not the localizer
	// parameters (Alpha/Beta/K), so gated sessions still adopt the one
	// compiled view the retrainer publishes.
	cfg.MoLoc.Gate = s.opts.Gate
	if req.IntervalSec > 0 {
		cfg.IntervalSec = req.IntervalSec
		cfg.StaleScanSec = req.IntervalSec // keep the one-interval window
	}
	tk, err := tracker.New(s.plan, s.src, s.mdb, cfg)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	tk.UseSnapshot(&s.snap)

	now := s.opts.Now()
	// Admission is an atomic reserve against MaxSessions — no lock, no
	// map scan — followed by the stripe insert; a rejected create never
	// touches any shard.
	if !s.reg.reserve(s.opts.MaxSessions) {
		s.met.sessionsRejected.Inc()
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit (%d) reached; retry after idle sessions expire", s.opts.MaxSessions))
		return
	}
	id := s.reg.allocID()
	ss := newSession(id, tk, now)
	ss.paced = req.Paced || s.opts.PaceAll
	s.reg.insert(ss)
	if ss.paced {
		s.met.pacedSessions.Inc()
	}

	s.met.sessionsCreated.Inc()
	writeJSON(w, http.StatusCreated, createResp{
		SessionID: id,
		TTLSec:    s.opts.SessionTTL.Seconds(),
		Expires:   now.Add(s.opts.SessionTTL),
		Paced:     ss.paced,
	})
}

// imuReq carries a batch of IMU samples.
type imuReq struct {
	Samples []sensors.Sample `json:"samples"`
}

// scanReq carries one WiFi scan.
type scanReq struct {
	T   float64   `json:"t"`
	RSS []float64 `json:"rss"`
}

// tickReq advances session time.
type tickReq struct {
	T float64 `json:"t"`
}

// fixResp is the JSON form of a fix.
type fixResp struct {
	T          float64                 `json:"t"`
	Loc        int                     `json:"loc"`
	X          float64                 `json:"x"`
	Y          float64                 `json:"y"`
	Moved      bool                    `json:"moved"`
	Mode       string                  `json:"mode"`
	Candidates []fingerprint.Candidate `json:"candidates"`
}

// sessionResp is the GET view of a session: lifecycle state plus the
// last fix (null before the first one).
type sessionResp struct {
	SessionID  string        `json:"session_id"`
	Created    time.Time     `json:"created"`
	LastActive time.Time     `json:"last_active"`
	Expires    time.Time     `json:"expires"`
	Fix        *fixResp      `json:"fix"`
	Stats      tracker.Stats `json:"stats"`
}

// metricsResp is the /v1/metricsz payload.
type metricsResp struct {
	Sessions int    `json:"sessions"`
	State    string `json:"state"`
	// Group-commit amortization (stream ingest): how many fsyncs the
	// committer issued and how many acked batches they covered.
	// Batches/Syncs is the factor the streaming plane exists for.
	WALGroupSyncs   uint64 `json:"wal_group_syncs"`
	WALGroupBatches uint64 `json:"wal_group_batches"`
	obs.Snapshot
}

// lookup resolves a session id from the request path, answering 404
// itself when the session does not exist (or has been evicted).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	ss, ok := s.reg.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session "+id)
		return nil, false
	}
	return ss, true
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	ss, ok := s.lookup(w, r)
	if !ok {
		return
	}
	info, ok := ss.view(s.opts.SessionTTL)
	if !ok {
		httpError(w, http.StatusNotFound, "session expired")
		return
	}
	var fix *fixResp
	if info.fix != nil {
		f := s.toResp(*info.fix)
		fix = &f
	}
	writeJSON(w, http.StatusOK, sessionResp{
		SessionID:  ss.id,
		Created:    ss.created,
		LastActive: info.lastActive,
		Expires:    info.lastActive.Add(s.opts.SessionTTL),
		Fix:        fix,
		Stats:      info.stats,
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	ss, ok := s.reg.remove(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown session "+id)
		return
	}
	ss.close()
	s.met.sessionsDeleted.Inc()
	w.WriteHeader(http.StatusNoContent)
}

// batchReq is one batched upload: buffered sensor data plus a final
// tick time, applied in one worker dispatch.
type batchReq struct {
	Samples []sensors.Sample `json:"samples"`
	Scans   []scanReq        `json:"scans"`
	T       float64          `json:"t"`
}

// batchResp carries every fix the batch's elapsed intervals produced,
// oldest first.
type batchResp struct {
	Fixes []fixResp `json:"fixes"`
}

// clientHandler is the HTTP handler of one client-paced route.
func (s *Server) clientHandler(route clientRoute) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { s.serveHTTP(w, r, route) }
}

// serveHTTP is the JSON codec (codec.go) over serveClient: it resolves
// the path's session, decodes the body into pooled scratch, runs the
// request, and answers. /imu and /scan answer 202. /batch is the
// batched data plane: a phone that buffered several intervals of
// sensor data uploads samples, scans, and the final tick time in one
// request, and every interval's fix comes back, not just the last, so a
// batched client sees the same fix stream a per-interval client would.
// /tick is /batch's single-interval form, answering the newest fix or
// 204.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request, route clientRoute) {
	ss, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sc := codecPool.Get().(*codecScratch)
	defer codecPool.Put(sc)
	if sc.body, ok = s.readBody(w, r, sc.body); !ok {
		return
	}
	if err := sc.decodeClient(route); err != nil {
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	tick := route == routeTick || route == routeBatch
	fixes, err := s.serveClient(ss, clientReq{samples: sc.req.Samples, scans: sc.req.Scans, tick: tick, t: sc.req.T}, sc.fixes[:0])
	if err != nil {
		status := http.StatusInternalServerError
		var ce *clientError
		switch {
		case errors.Is(err, errShed):
			s.countShed(s.met.shedHTTP)
			w.Header().Set("Retry-After", "1")
			status = http.StatusServiceUnavailable
		case errors.As(err, &ce):
			status = ce.status
		}
		httpError(w, status, err.Error())
		return
	}
	switch {
	case !tick:
		w.WriteHeader(http.StatusAccepted)
	case route == routeTick && len(fixes) == 0:
		w.WriteHeader(http.StatusNoContent)
	default:
		s.writeFixes(w, sc, fixes, route == routeBatch)
	}
	// The pooled fixes keep their capacity, not the candidate sets.
	clear(fixes)
	sc.fixes = fixes[:0]
}

func (s *Server) toResp(fix tracker.Fix) fixResp {
	pos := s.plan.LocPos(fix.Loc)
	return fixResp{
		T: fix.T, Loc: fix.Loc, X: pos.X, Y: pos.Y,
		Moved: fix.Moved, Mode: fix.Mode.String(), Candidates: fix.Candidates,
	}
}
