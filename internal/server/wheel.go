// Server-paced ticking: the serving half of the "100k+ sessions, flat
// p99" target. Client-paced sessions cost one HTTP round-trip, one
// worker dispatch, and one RCU snapshot load per session per interval —
// fine for one phone, ruinous for a fleet. Sessions created with
// "paced":true instead opt into server-driven ticking: each pool worker
// keeps a list of the paced sessions it owns, and every advance (one
// per DefaultWheelSlotDur) queues one sweep per worker. A sweep ticks
// every entry whose deadline has passed, loading the compiled motion
// index once (tracker.TickBatchShared) and reusing the worker's fix
// buffer for every session, so the marginal cost of a paced session's tick is the tracker work itself — no HTTP,
// no JSON, no per-session snapshot load, no per-session allocation.
//
// A sweep visits all of its worker's entries and a worker runs its
// sweeps in order, so an entry is ticked by the first sweep queued
// after its deadline. A sweep shed by a full worker queue
// (pool_shed{transport=paced}) needs no recovery: its entries stay due
// and the next advance ticks them.
//
// Pacing semantics: a paced session is ticked at its tracker's last
// event time (tracker.LastEventTime), i.e. as if the client had issued
// a tick after every upload. Interval closes therefore depend only on
// the data stream, not on the server's wall clock, which is what makes
// server-paced fixes bit-identical to the same event sequence driven by
// client ticks (TestPacedEquivalence pins this). The wall-clock
// deadlines decide only *when* the server checks, at sweep granularity.
package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moloc/internal/motiondb"
	"moloc/internal/tracker"
)

// pacedEntry is one paced session's place on its worker's list. Only
// that worker's sweeps touch it after the hand-off, so it needs no lock.
type pacedEntry struct {
	ss       *session
	interval time.Duration // tracker interval, as the pacing period
	due      time.Time     // next deadline
}

// pacedScratch is one worker's reused tick state: the fix destination
// buffer.
type pacedScratch struct {
	//moloc:reuse
	fixes []tracker.Fix
}

// pacedList is one pool worker's paced sessions. entries and sc are
// touched only by sweeps, which the pool serializes onto the worker;
// sessions created since the last sweep wait in pending, handed over
// under mu.
type pacedList struct {
	entries []*pacedEntry
	sc      pacedScratch
	size    atomic.Int64 // entries plus pending, for paced_scheduled

	mu      sync.Mutex
	pending []*pacedEntry
}

// handOff queues a new entry for the list's next sweep.
func (l *pacedList) handOff(e *pacedEntry) {
	l.size.Add(1)
	l.mu.Lock()
	l.pending = append(l.pending, e)
	l.mu.Unlock()
}

// adopt moves the handed-off entries onto the worker-owned list.
func (l *pacedList) adopt() {
	l.mu.Lock()
	l.entries = append(l.entries, l.pending...)
	clear(l.pending)
	l.pending = l.pending[:0]
	l.mu.Unlock()
}

// tickWheel holds one pacedList per pool worker.
type tickWheel []pacedList

// add schedules a session's first deadline, one interval from now, on
// the list of the worker that owns it.
func (w tickWheel) add(ss *session, interval time.Duration, worker int, now time.Time) {
	w[worker].handOff(&pacedEntry{ss: ss, interval: interval, due: now.Add(interval)})
}

// scheduled reports the number of paced entries across all workers.
func (w tickWheel) scheduled() int64 {
	var n int64
	for i := range w {
		n += w[i].size.Load()
	}
	return n
}

// paceLoop drives the sweeps off the wall clock until Close.
func (s *Server) paceLoop() {
	defer s.wg.Done()
	for !s.waitDone(s.opts.WheelSlotDur) {
		s.AdvanceWheel(s.opts.Now())
	}
}

// AdvanceWheel submits one sweep at now to every worker that has paced
// sessions and returns the number of sweeps queued. It never waits on a
// busy worker, which would stall every other worker's sweep: a worker
// whose queue is full sheds its sweep (pool_shed{transport=paced}), and
// its due sessions stay due for the next advance. Production servers
// drive it from Start's pace loop; tests and benchmarks inject a clock
// through Options.Now and call it directly.
func (s *Server) AdvanceWheel(now time.Time) int {
	queued := 0
	for wi := range s.wheel {
		l := &s.wheel[wi]
		if l.size.Load() == 0 {
			continue
		}
		switch s.pool.submit(wi, func() { s.sweepPaced(l, now) }) {
		case nil:
			queued++
		case errShed:
			s.countShed(s.met.shedPaced)
		}
	}
	return queued
}

// sweepPaced runs on the list's worker: it adopts new sessions, ticks
// every entry due at now against one RCU snapshot load and one
// degradation-state sample, reschedules the ticked entries, and drops
// evicted sessions.
//
//moloc:hotpath
func (s *Server) sweepPaced(l *pacedList, now time.Time) {
	l.adopt()
	var cmp *motiondb.Compiled
	fpOnly := false
	keep := l.entries[:0]
	for _, e := range l.entries {
		if e.due.After(now) {
			keep = append(keep, e)
			continue
		}
		if cmp == nil {
			cmp = s.snap.Load()
			s.met.pacedSnapshotLoads.Inc()
			fpOnly = s.fingerprintOnly()
		}
		if !s.tickOnePaced(e, cmp, fpOnly, &l.sc, now) {
			l.size.Add(-1)
			continue
		}
		// Reschedule on the interval grid; a session that fell behind
		// (shed sweeps, long GC pause) snaps forward rather than
		// burning sweeps on catch-up deadlines already in the past.
		e.due = e.due.Add(e.interval)
		if !e.due.After(now) {
			e.due = now.Add(e.interval)
		}
		keep = append(keep, e)
	}
	clear(l.entries[len(keep):])
	l.entries = keep
}

// tickOnePaced ticks one paced session at its last event time; its
// client reads the newest fix with GET /v1/sessions/{id}. alive=false
// means the session was evicted and must leave the list. A panicking
// tracker is contained to its own session — counted, fixes discarded,
// pacing kept — mirroring the per-request recovery on the client-paced
// path.
func (s *Server) tickOnePaced(e *pacedEntry, cmp *motiondb.Compiled, fpOnly bool,
	sc *pacedScratch, fired time.Time) (alive bool) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicsRecovered.Inc()
			alive = true
		}
	}()
	sc.fixes = sc.fixes[:0]
	ok := e.ss.withTrackerPaced(func(tk *tracker.Tracker) {
		tk.SetFingerprintOnly(fpOnly)
		if ev, started := tk.LastEventTime(); started {
			sc.fixes = tk.TickBatchShared(cmp, ev, sc.fixes)
		}
	})
	if !ok {
		return false
	}
	s.met.pacedTicks.Inc()
	if len(sc.fixes) > 0 {
		s.met.pacedFixSeconds.Observe(s.opts.Now().Sub(fired).Seconds())
		s.countFixes(sc.fixes)
	}
	return true
}

// pacedInterval converts a tracker interval in seconds to the pacing
// clock domain.
func pacedInterval(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// registerPoolGauges exposes the per-worker queue depths and the
// scheduled paced-entry count as callback gauges: evaluated only when
// /v1/metricsz snapshots, costing the workers nothing.
func (s *Server) registerPoolGauges() {
	for wi := range s.pool.queues {
		w := wi
		s.met.reg.Gauge("worker_queue_depth{worker="+strconv.Itoa(w)+"}",
			func() int64 { return int64(s.pool.queueDepth(w)) })
	}
	s.met.reg.Gauge("paced_scheduled", s.wheel.scheduled)
}
