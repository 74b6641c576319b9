// Request middleware: per-route instrumentation (counters + latency
// histograms, internal/obs) and body-hardened reading and JSON decoding
// (http.MaxBytesReader). Kept apart from the handlers so the serving
// logic in server.go stays about sessions, not plumbing.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"moloc/internal/obs"
)

// serverMetrics bundles the server's metric handles. The named fields
// are the hot-path metrics looked up once at construction; per-route
// request counters and latency histograms live in routeMetrics.
type serverMetrics struct {
	reg *obs.Registry

	sessionsCreated  *obs.Counter
	sessionsDeleted  *obs.Counter
	sessionsExpired  *obs.Counter
	sessionsRejected *obs.Counter
	tickSeconds      *obs.Histogram
	fixSeconds       *obs.Histogram
	candidateSetSize *obs.Histogram

	// Online-training metrics (retrain.go).
	observationsIn      *obs.Counter
	observationsDropped *obs.Counter
	retrains            *obs.Counter
	retrainDirtyEdges   *obs.Counter
	retrainFullCompiles *obs.Counter
	retrainErrors       *obs.Counter
	retrainSeconds      *obs.Histogram

	// Robustness metrics: the panic-recovery middleware and the
	// durability layer (durability.go).
	panicsRecovered    *obs.Counter
	walAppends         *obs.Counter
	walAppendErrors    *obs.Counter
	walReplayed        *obs.Counter
	walReplaySkipped   *obs.Counter
	walTornTruncations *obs.Counter
	checkpointWrites   *obs.Counter
	checkpointErrors   *obs.Counter
	checkpointCorrupt  *obs.Counter
	fixesMoLoc         *obs.Counter
	fixesFingerprint   *obs.Counter

	// Streaming-plane metrics (stream.go).
	streamConns   *obs.Counter
	streamResumes *obs.Counter
	streamFrames  *obs.Counter
	streamAcks    *obs.Counter
	streamErrors  *obs.Counter

	// Replication metrics (replication.go): leader-side connection count,
	// follower-side apply progress, and role promotions.
	replConns      *obs.Counter
	replApplied    *obs.Counter
	replAppliedObs *obs.Counter
	replSnapshots  *obs.Counter
	promotions     *obs.Counter

	// Server-paced metrics (serveClient): sessions created paced, ticks
	// run on their scan uploads, and fix freshness, the time from an
	// upload's arrival to the paced fix it closed.
	pacedSessions   *obs.Counter
	pacedTicks      *obs.Counter
	pacedFixSeconds *obs.Histogram

	// Worker-pool sheds (pool.go): the total, and its split by transport.
	poolShed   *obs.Counter
	shedHTTP   *obs.Counter
	shedStream *obs.Counter
}

func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	return &serverMetrics{
		reg:              reg,
		sessionsCreated:  reg.Counter("sessions_created"),
		sessionsDeleted:  reg.Counter("sessions_deleted"),
		sessionsExpired:  reg.Counter("sessions_expired"),
		sessionsRejected: reg.Counter("sessions_rejected"),
		tickSeconds:      reg.Histogram("tick_seconds", obs.LatencyBuckets),
		fixSeconds:       reg.Histogram("fix_seconds", obs.LatencyBuckets),
		candidateSetSize: reg.Histogram("candidate_set_size", obs.SizeBuckets),

		observationsIn:      reg.Counter("observations_in"),
		observationsDropped: reg.Counter("observations_dropped"),
		retrains:            reg.Counter("retrains"),
		retrainDirtyEdges:   reg.Counter("retrain_dirty_edges"),
		retrainFullCompiles: reg.Counter("retrain_full_compiles"),
		retrainErrors:       reg.Counter("retrain_errors"),
		retrainSeconds:      reg.Histogram("retrain_seconds", obs.LatencyBuckets),

		panicsRecovered:    reg.Counter("panics_recovered"),
		walAppends:         reg.Counter("wal_appends"),
		walAppendErrors:    reg.Counter("wal_append_errors"),
		walReplayed:        reg.Counter("wal_replayed_observations"),
		walReplaySkipped:   reg.Counter("wal_replay_skipped"),
		walTornTruncations: reg.Counter("wal_torn_truncations"),
		checkpointWrites:   reg.Counter("checkpoint_writes"),
		checkpointErrors:   reg.Counter("checkpoint_errors"),
		checkpointCorrupt:  reg.Counter("checkpoint_corrupt_skipped"),
		fixesMoLoc:         reg.Counter("fixes{mode=moloc}"),
		fixesFingerprint:   reg.Counter("fixes{mode=fingerprint}"),

		streamConns:   reg.Counter("stream_conns"),
		streamResumes: reg.Counter("stream_resumes"),
		streamFrames:  reg.Counter("stream_frames"),
		streamAcks:    reg.Counter("stream_acks"),
		streamErrors:  reg.Counter("stream_errors"),

		replConns:      reg.Counter("repl_conns"),
		replApplied:    reg.Counter("repl_applied_records"),
		replAppliedObs: reg.Counter("repl_applied_observations"),
		replSnapshots:  reg.Counter("repl_snapshots_installed"),
		promotions:     reg.Counter("promotions"),

		pacedSessions:   reg.Counter("paced_sessions"),
		pacedTicks:      reg.Counter("paced_ticks"),
		pacedFixSeconds: reg.Histogram("paced_fix_seconds", obs.LatencyBuckets),

		poolShed:   reg.Counter("pool_shed_total"),
		shedHTTP:   reg.Counter("pool_shed{transport=http}"),
		shedStream: reg.Counter("pool_shed{transport=stream}"),
	}
}

// countShed records one shed dispatch against its transport's counter
// and pool_shed_total.
func (s *Server) countShed(byTransport *obs.Counter) {
	byTransport.Inc()
	s.met.poolShed.Inc()
}

// registerPoolGauges exposes the per-worker queue depths as callback
// gauges: evaluated only when /v1/metricsz snapshots, costing the
// workers nothing.
func (s *Server) registerPoolGauges() {
	for wi := range s.pool.queues {
		w := wi
		s.met.reg.Gauge("worker_queue_depth{worker="+strconv.Itoa(w)+"}",
			func() int64 { return int64(s.pool.queueDepth(w)) })
	}
}

// routeMetrics is one route's instrumentation, resolved once in
// instrument: its latency histogram, and its per-status request
// counters cached on first use, so a repeated status costs one map
// lookup — no name formatting, no registry lock.
type routeMetrics struct {
	reg     *obs.Registry
	route   string
	latency *obs.Histogram

	mu       sync.Mutex
	byStatus map[int]*obs.Counter
}

func (m *serverMetrics) route(route string) *routeMetrics {
	return &routeMetrics{
		reg:      m.reg,
		route:    route,
		latency:  m.reg.Histogram("latency_seconds{route="+route+"}", obs.LatencyBuckets),
		byStatus: make(map[int]*obs.Counter),
	}
}

// request records one served request.
func (rm *routeMetrics) request(status int, d time.Duration) {
	rm.mu.Lock()
	c := rm.byStatus[status]
	if c == nil {
		c = rm.reg.Counter(fmt.Sprintf("requests{route=%s,status=%d}", rm.route, status))
		rm.byStatus[status] = c
	}
	rm.mu.Unlock()
	c.Inc()
	rm.latency.Observe(d.Seconds())
}

// statusWriter captures the response status for instrumentation, and
// whether anything was written — the panic-recovery middleware may only
// substitute a 500 while the response is still untouched.
type statusWriter struct {
	http.ResponseWriter
	status      int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wroteHeader = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true // implicit 200 on first write
	return w.ResponseWriter.Write(p)
}

// instrument wraps a handler with request counting, latency recording,
// and panic recovery: a panicking handler answers 500 (when the
// response is still unwritten) and bumps panics_recovered instead of
// tearing down the whole process — one malformed request must not take
// every session's serving path with it.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.met.route(route)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.met.panicsRecovered.Inc()
				if !sw.wroteHeader {
					httpError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			rm.request(sw.status, time.Since(start))
		}()
		h(sw, r)
	}
}

// readBody reads the full body-capped request body into buf, reusing
// its capacity (//moloc:reuse) — how every data-plane route reads, for
// the schema-specific codec (codec.go) to decode. It answers 413 for
// oversized bodies and 400 for read failures, reporting whether the
// handler should proceed.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if buf == nil {
		buf = make([]byte, 0, 4096)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true
		}
		if err != nil {
			var maxErr *http.MaxBytesError
			if errors.As(err, &maxErr) {
				httpError(w, http.StatusRequestEntityTooLarge,
					fmt.Sprintf("request body exceeds the %d-byte cap", maxErr.Limit))
			} else {
				httpError(w, http.StatusBadRequest, "read body: "+err.Error())
			}
			return buf, false
		}
	}
}

// decodeJSON decodes a body-capped JSON request into v, answering 413
// for oversized bodies and 400 for malformed JSON. It reports whether
// the handler should proceed. Only session create uses it; the data
// plane reads with readBody and decodes with codec.go.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte cap", maxErr.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Encoding errors after the header is written can only be logged;
	// for these small payloads they do not occur in practice.
	//lint:ignore errdrop the status header is already written, so the error cannot change the response
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
