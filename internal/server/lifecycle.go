// Session lifecycle: idle-TTL tracking, the background expiry sweeper,
// and the serving limits in Options. The ROADMAP's "millions of users"
// target makes unbounded session maps the first thing to fall over —
// phones abandon sessions far more often than they DELETE them — so
// every session records its last data-plane activity and a sweeper
// evicts the idle ones.
package server

import (
	"net"
	"runtime"
	"sync"
	"time"

	"moloc/internal/fault"
	"moloc/internal/floorplan"
	"moloc/internal/tracker"
	"moloc/internal/wal"
)

// Defaults for the zero fields of Options.
const (
	// DefaultSessionTTL is how long a session may go without data-plane
	// activity (imu/scan/tick) before the sweeper evicts it.
	DefaultSessionTTL = 15 * time.Minute
	// DefaultSweepInterval is how often the background sweeper scans for
	// idle sessions.
	DefaultSweepInterval = 30 * time.Second
	// DefaultMaxSessions caps live sessions; creation beyond it answers
	// 429 so an overload sheds load instead of growing without bound.
	DefaultMaxSessions = 10000
	// DefaultMaxBodyBytes caps any request body (http.MaxBytesReader).
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMaxIMUBatch caps samples per IMU upload; at the paper's
	// 10 Hz sensor rate it covers several minutes per request.
	DefaultMaxIMUBatch = 4096
	// DefaultRetrainInterval is the background retrainer's period: how
	// often queued observations are folded into the motion database and
	// a fresh compiled view is published (retrain.go).
	DefaultRetrainInterval = 30 * time.Second
	// DefaultObsQueueCap bounds observations buffered between retrains;
	// ingest answers 429 beyond it.
	DefaultObsQueueCap = 1 << 16
	// DefaultStreamWindow caps the credit window a binary stream
	// connection is advertised (stream.go): at most this many
	// unacknowledged frames may be in flight per stream.
	DefaultStreamWindow = 32
	// DefaultWheelSlotDur is the period of the server-paced sweeps
	// (wheel.go): paced sessions are checked for due intervals at this
	// granularity. Finer than any sane tracker interval (3 s in the
	// paper), so one sweep ticks many sessions; fine enough that pacing
	// adds at most a quarter second to a fix's age.
	DefaultWheelSlotDur = 250 * time.Millisecond
	// DefaultReplLagMax is how far a follower may trail its leader —
	// measured as time since it last covered the leader's published tail
	// — before the degradation ladder enters follower-stale
	// (replication.go) and fixes fall back to the fingerprint path.
	DefaultReplLagMax = 10 * time.Second
)

// Fixed serving limits that no option overrides.
const (
	maxObsBatch      = 4096 // observations per ingest request or stream frame
	checkpointRetain = 2    // checkpoints pruning keeps: the newest plus one fallback
)

// Options are the serving limits of a Server. The zero value of each
// field selects the package default, so Options{} is production-ready.
type Options struct {
	// SessionTTL is the idle eviction deadline: a session with no IMU,
	// scan, or tick for this long is evicted by the sweeper. Reads (GET)
	// do not extend a session's life.
	SessionTTL time.Duration
	// SweepInterval is the background sweeper's period.
	SweepInterval time.Duration
	// MaxSessions bounds concurrently live sessions; POST /v1/sessions
	// answers 429 beyond it.
	MaxSessions int
	// MaxBodyBytes bounds every JSON request body; larger bodies answer
	// 413.
	MaxBodyBytes int64
	// MaxIMUBatch bounds samples per IMU upload; larger batches answer
	// 413.
	MaxIMUBatch int
	// Workers sizes the data-plane worker pool: imu, scan, and tick
	// requests run on a fixed set of workers sharded by session ID (one
	// session always lands on the same worker), so tracker CPU is
	// bounded regardless of client concurrency. Zero selects
	// GOMAXPROCS.
	Workers int
	// Shards stripes the session registry (registry.go). Zero selects
	// Workers, which aligns registry stripes with pool workers: both key
	// by the same FNV-1a hash, so a stripe's sessions are owned by
	// exactly one worker and stripe locks are effectively uncontended.
	// Values other than Workers still serialize correctly (the pool is
	// the ownership authority); they only change lock granularity.
	Shards int
	// PaceAll forces every session onto server-paced ticking (molocd
	// -paced), as if each create had sent "paced":true.
	PaceAll bool
	// WheelSlotDur is the period of the server-paced sweeps; zero
	// selects DefaultWheelSlotDur.
	WheelSlotDur time.Duration
	// Gate enables reachability gating in every session's localizer
	// (localizer.Config.Gate): steady-state candidate scans are
	// restricted to the locations one motion-DB hop from the previous
	// fix's candidates, which bounds the per-fix cost by the adjacency
	// degree instead of the radio-map size. Fixes may differ from the
	// ungated ranking only when the fingerprint's nearest locations are
	// unreachable; every degradation (fingerprint-only mode, Reset,
	// empty mask) falls back to the full scan.
	Gate bool
	// RetrainInterval is the background retrainer's period (retrain.go):
	// queued POST /v1/observations batches are folded into the motion
	// database and the dirty edges recompiled this often.
	RetrainInterval time.Duration
	// ObsQueueCap bounds observations buffered awaiting retraining; a
	// full queue answers 429 until a retrain drains it, and a batch
	// larger than the whole queue answers 413.
	ObsQueueCap int
	// StreamWindow caps the credit window advertised to binary stream
	// clients (stream.go): the most unacknowledged observation frames a
	// stream may keep in flight. The effective window shrinks with the
	// retrain queue's headroom, so loaded servers throttle streams
	// instead of shedding them.
	StreamWindow int
	// TrainGraph, when non-nil, attaches the walk graph to the online
	// builder so observations between non-adjacent locations are
	// discarded at ingest (the paper's adjacency consistency filter).
	TrainGraph *floorplan.WalkGraph
	// DataDir, when set, turns on crash-safe durability (durability.go):
	// observation batches are written to a WAL under DataDir/wal before
	// they are acknowledged, and every retrain publishes a checkpoint
	// under DataDir/checkpoints. Empty means in-memory only (the
	// pre-durability behavior).
	DataDir string
	// FS is the filesystem seam for durability; nil selects the real
	// disk. Tests inject a fault.Injector here.
	FS fault.FS
	// FsyncPolicy selects when WAL appends are made durable; the zero
	// value is wal.SyncAlways.
	FsyncPolicy wal.SyncPolicy
	// FsyncInterval is the group-commit window under wal.SyncInterval.
	FsyncInterval time.Duration
	// WALSegmentBytes overrides the WAL segment size (tests shrink it).
	WALSegmentBytes int64
	// FollowAddr, when set, boots the server as a read replica
	// (replication.go): a replication client follows the leader's stream
	// listener at this address, replaying its WAL into the local one.
	// Ingest answers 409 pointing here until Promote. Requires DataDir —
	// a follower's whole point is a durable copy of the leader's history.
	FollowAddr string
	// ReplLagMax is the staleness window for the follower-stale rung;
	// zero selects DefaultReplLagMax.
	ReplLagMax time.Duration
	// ReplDial overrides the follower's leader dialer — tests inject
	// in-process pipes or fault-wrapped connections. With ReplDial set,
	// FollowAddr may be any non-empty label.
	ReplDial func() (net.Conn, error)
	// Now is the clock, overridable by tests; nil means time.Now.
	Now func() time.Time
}

// withDefaults fills zero fields with the package defaults.
func (o Options) withDefaults() Options {
	if o.SessionTTL <= 0 {
		o.SessionTTL = DefaultSessionTTL
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = DefaultSweepInterval
	}
	if o.MaxSessions <= 0 {
		o.MaxSessions = DefaultMaxSessions
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if o.MaxIMUBatch <= 0 {
		o.MaxIMUBatch = DefaultMaxIMUBatch
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Shards < 1 {
		o.Shards = o.Workers
	}
	if o.WheelSlotDur <= 0 {
		o.WheelSlotDur = DefaultWheelSlotDur
	}
	if o.RetrainInterval <= 0 {
		o.RetrainInterval = DefaultRetrainInterval
	}
	if o.ObsQueueCap <= 0 {
		o.ObsQueueCap = DefaultObsQueueCap
	}
	if o.StreamWindow <= 0 {
		o.StreamWindow = DefaultStreamWindow
	}
	if o.ReplLagMax <= 0 {
		o.ReplLagMax = DefaultReplLagMax
	}
	if o.FS == nil {
		o.FS = fault.Disk{}
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// session is one live tracking session. The fields after mu are
// guarded by it; id and created are immutable.
type session struct {
	id      string
	created time.Time

	mu         sync.Mutex
	tk         *tracker.Tracker
	lastActive time.Time
	evicted    bool
}

func newSession(id string, tk *tracker.Tracker, now time.Time) *session {
	return &session{id: id, created: now, tk: tk, lastActive: now}
}

// withTracker runs fn on the session's tracker under its lock,
// recording the data-plane activity. It reports false — and does not
// run fn — when the session has already been evicted, so a handler
// holding a stale pointer cannot operate on (or revive) a dead
// session.
func (ss *session) withTracker(now time.Time, fn func(tk *tracker.Tracker)) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.evicted {
		return false
	}
	ss.lastActive = now
	fn(ss.tk)
	return true
}

// withTrackerPaced is withTracker for the server-paced sweeps: it
// runs fn under the session lock but does NOT record data-plane
// activity — server pacing must not keep an abandoned session alive
// past its idle TTL; only client uploads do that. alive is false for
// an evicted session, which tells the sweep to drop the entry instead
// of rescheduling it.
func (ss *session) withTrackerPaced(fn func(tk *tracker.Tracker)) (alive bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.evicted {
		return false
	}
	fn(ss.tk)
	return true
}

// sessionView is a consistent read of the mutable session state.
type sessionView struct {
	lastActive time.Time
	fix        *tracker.Fix
	stats      tracker.Stats
}

// view snapshots the session without counting as activity; ok is false
// for an evicted session.
func (ss *session) view(ttl time.Duration) (sessionView, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.evicted {
		return sessionView{}, false
	}
	return sessionView{
		lastActive: ss.lastActive,
		fix:        ss.tk.LastFix(),
		stats:      ss.tk.Stats(),
	}, true
}

// expireIfIdle marks the session evicted when it has been idle for at
// least ttl, reporting whether this call performed the eviction.
func (ss *session) expireIfIdle(ttl time.Duration, now time.Time) bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.evicted || now.Sub(ss.lastActive) < ttl {
		return false
	}
	ss.evicted = true
	return true
}

// close marks an explicitly deleted session evicted so requests racing
// with the delete observe 404 instead of touching a zombie tracker.
func (ss *session) close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.evicted = true
}

// Start launches the background loops: the expiry sweeper, the online
// retrainer (retrain.go), and the paced sweep loop (wheel.go).
// It is idempotent; Close stops all three. Servers embedded in tests
// may skip Start and drive sweepOnce, RetrainNow, or AdvanceWheel
// directly.
func (s *Server) Start() {
	s.startOnce.Do(func() {
		n := 3
		if s.follower != nil {
			// Follower mode adds the replication client and the staleness
			// monitor (replication.go).
			n += 2
		}
		s.wg.Add(n)
		go s.sweepLoop()
		go s.retrainLoop()
		go s.paceLoop()
		if s.follower != nil {
			go s.runFollower()
			go s.replMonitor()
		}
	})
}

// waitDone sleeps for d or until Close, reporting true when the server
// is shutting down. Every background wait goes through it so a Close
// during an arbitrarily long interval — or an error-backoff wait —
// returns within the drain budget instead of after the timer.
func (s *Server) waitDone(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.done:
		return true
	case <-t.C:
		return false
	}
}

// sweepLoop evicts idle sessions incrementally: one registry shard per
// wake, cycling through all shards every SweepInterval, so eviction
// never holds more than one stripe lock — and only long enough to
// snapshot that stripe — no matter how many sessions are live. Stream
// resume state is swept once per full rotation.
func (s *Server) sweepLoop() {
	defer s.wg.Done()
	n := s.reg.numShards()
	wait := s.opts.SweepInterval / time.Duration(n)
	if wait <= 0 {
		wait = time.Microsecond
	}
	var (
		cursor int
		buf    []*session
	)
	for !s.waitDone(wait) {
		_, buf = s.sweepShard(cursor, buf)
		cursor++
		if cursor == n {
			cursor = 0
			s.stream.sweep(s.opts.SessionTTL, s.opts.Now())
		}
	}
}

// Close stops the background loops and the data-plane worker pool
// (in-flight requests finish; later ones answer 503) and waits for
// both to exit. With durability on, queued observations are folded and
// checkpointed one last time and the WAL is synced closed, so a clean
// shutdown leaves nothing for the next boot to replay. It does not
// tear down live sessions; the process is expected to exit after.
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.done) })
	// The replication client (if any) stops with the server; Promote may
	// already have stopped it (replication.go).
	s.stopReplication()
	// The streaming plane goes first: once the WAL starts closing no
	// handler may append, so stop accepting, sever live connections, and
	// join every handler before touching the store.
	s.closeStreams()
	s.wg.Wait()
	if _, err := s.RetrainNow(); err != nil {
		// The final flush failing is the same class as a failed retrain:
		// acknowledged data is still in the WAL for the next boot.
		s.met.retrainErrors.Inc()
	}
	s.closeStore()
	s.pool.close()
}

// sweepShard evicts shard i's sessions idle beyond the TTL, reusing buf
// as the candidate scratch, and returns the eviction count plus the
// (possibly regrown) buffer. Eviction keeps the two-phase discipline:
// mark the session evicted under its own lock (so in-flight handlers
// holding the pointer turn into 404s), then unmap it — and the unmap is
// identity-checked, so a delete/recreate racing the sweep cannot take
// out the wrong session.
//
//moloc:reuse
func (s *Server) sweepShard(i int, buf []*session) (int, []*session) {
	now := s.opts.Now()
	buf = s.reg.appendShard(i, buf[:0])
	evicted := 0
	for _, ss := range buf {
		if !ss.expireIfIdle(s.opts.SessionTTL, now) {
			continue
		}
		s.reg.removeMatch(ss)
		evicted++
	}
	if evicted > 0 {
		s.met.sessionsExpired.Add(int64(evicted))
	}
	return evicted, buf
}

// sweepOnce sweeps every shard (and the stream resume state) in one
// call and returns how many sessions it evicted — the whole-registry
// sweep, for tests and embedders; the background loop spreads the same
// work across the rotation instead.
func (s *Server) sweepOnce() int {
	evicted := 0
	var buf []*session
	for i := 0; i < s.reg.numShards(); i++ {
		var n int
		n, buf = s.sweepShard(i, buf)
		evicted += n
	}
	// Stream resume state rides the same idle TTL: once no client has
	// been connected for SessionTTL, nobody is coming back to resume.
	s.stream.sweep(s.opts.SessionTTL, s.opts.Now())
	return evicted
}
