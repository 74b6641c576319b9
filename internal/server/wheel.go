// Server-paced tick wheel: the serving half of the "100k+ sessions,
// flat p99" target. Client-paced sessions cost one HTTP round-trip, one
// worker dispatch, and one RCU snapshot load per session per interval —
// fine for one phone, ruinous for a fleet. Sessions created with
// "paced":true instead opt into server-driven ticking: a hashed timer
// wheel with coarse slots (DefaultWheelSlotDur) tracks when each paced
// session's next interval elapses, and every advance coalesces the due
// sessions of a slot into per-worker batches. Each (worker, slot) batch
// loads the compiled motion index once (tracker.TickBatchShared) and
// reuses one fix buffer and one frame-payload buffer for every session
// in it, so the marginal cost of a paced session's tick is the tracker
// work itself — no HTTP, no JSON, no per-session snapshot load, no
// per-session allocation.
//
// Pacing semantics: a paced session is ticked at its tracker's last
// event time (tracker.LastEventTime), i.e. as if the client had issued
// a tick after every upload. Interval closes therefore depend only on
// the data stream, not on the server's wall clock, which is what makes
// server-paced fixes bit-identical to the same event sequence driven by
// client ticks (TestPacedEquivalence pins this). The wheel's wall-clock
// deadlines decide only *when* the server checks, at slot granularity.
//
// Fix delivery: fixes are pushed as unsolicited Fix frames (sequence 0)
// to the session's bound stream connection when one exists; HTTP-only
// clients poll GET /v1/sessions/{id} for the last fix.
package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"moloc/internal/motiondb"
	"moloc/internal/tracker"
	"moloc/internal/wire"
)

// pacedEntry is one paced session's place on the wheel. An entry is
// owned by exactly one party at a time — the slot holding it (under the
// slot lock) or the goroutine that collected it — so its fields need no
// lock of their own: due is only read and written by the current owner,
// and handoffs happen under slot locks.
type pacedEntry struct {
	ss       *session
	interval time.Duration // tracker interval, as the wheel period
	worker   int           // pool worker owning the session (shardOf)
	due      time.Time     // next deadline
}

// wheelSlot is one wheel bucket; entries is guarded by mu.
type wheelSlot struct {
	mu      sync.Mutex
	entries []*pacedEntry
}

// wheelAdvance is the advance-scan scratch: the due-entry collection
// buffer and the per-worker grouping buffers, reused across advances.
// Guarded by mu (one advance at a time; slots have their own locks).
type wheelAdvance struct {
	mu sync.Mutex
	//moloc:reuse
	due      []*pacedEntry
	byWorker [][]*pacedEntry
}

// tickWheel is a hashed timer wheel: a deadline lands in slot
// (due/slotDur) mod len(slots). Slots coarser than tracker intervals
// batch many sessions per fire; deadlines beyond the wheel horizon
// simply stay in their slot and are re-examined once per rotation (the
// due check, not slot position, decides firing).
type tickWheel struct {
	slotDur time.Duration
	slots   []wheelSlot
	size    atomic.Int64 // scheduled entries, for the paced_scheduled gauge
	adv     wheelAdvance

	mu       sync.Mutex
	started  bool
	lastSlot int64 // absolute slot number processed through
}

func newTickWheel(slots int, slotDur time.Duration, workers int) *tickWheel {
	w := &tickWheel{slotDur: slotDur, slots: make([]wheelSlot, slots)}
	w.adv.byWorker = make([][]*pacedEntry, workers)
	return w
}

// prime fixes the wheel's position at now so the first advance claims
// every slot elapsed since construction rather than only the one it
// lands in. Without priming, a server that jumps its clock before the
// first advance (tests with fake clocks, mostly) would skip the slots
// in between.
func (w *tickWheel) prime(now time.Time) {
	w.mu.Lock()
	w.started = true
	w.lastSlot = now.UnixNano() / int64(w.slotDur)
	w.mu.Unlock()
}

// slotIndex maps an absolute slot number to a bucket.
func (w *tickWheel) slotIndex(sn int64) int {
	i := int(sn % int64(len(w.slots)))
	if i < 0 {
		i += len(w.slots)
	}
	return i
}

// add schedules a session's first deadline, one interval from now.
func (w *tickWheel) add(ss *session, interval time.Duration, worker int, now time.Time) {
	if interval <= 0 {
		interval = w.slotDur
	}
	w.size.Add(1)
	w.schedule(&pacedEntry{ss: ss, interval: interval, worker: worker, due: now.Add(interval)})
}

// schedule files an entry under its deadline's slot.
func (w *tickWheel) schedule(e *pacedEntry) {
	sl := &w.slots[w.slotIndex(e.due.UnixNano()/int64(w.slotDur))]
	sl.mu.Lock()
	sl.entries = append(sl.entries, e)
	sl.mu.Unlock()
}

// drop retires an entry that will not be rescheduled (evicted session).
func (w *tickWheel) drop() { w.size.Add(-1) }

// scheduled reports the number of entries on the wheel.
func (w *tickWheel) scheduled() int64 { return w.size.Load() }

// elapsedRange claims the absolute slot numbers elapsed at now, at most
// one full rotation (older slots would be re-scanned redundantly: the
// due check fires everything overdue on the first visit).
func (w *tickWheel) elapsedRange(now time.Time) (from, to int64, ok bool) {
	cur := now.UnixNano() / int64(w.slotDur)
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.started {
		w.started = true
		w.lastSlot = cur - 1
	}
	if cur <= w.lastSlot {
		return 0, 0, false
	}
	from = w.lastSlot + 1
	if cur-from >= int64(len(w.slots)) {
		from = cur - int64(len(w.slots)) + 1
	}
	w.lastSlot = cur
	return from, cur, true
}

// collectDue moves slot i's due entries to dst, keeping the rest. The
// compaction reuses the slot's backing array and nils the tail so
// collected entries are not retained by the slot.
//
//moloc:reuse
func (w *tickWheel) collectDue(i int, now time.Time, dst []*pacedEntry) []*pacedEntry {
	sl := &w.slots[i]
	sl.mu.Lock()
	keep := sl.entries[:0]
	for _, e := range sl.entries {
		if e.due.After(now) {
			keep = append(keep, e)
		} else {
			dst = append(dst, e)
		}
	}
	for j := len(keep); j < len(sl.entries); j++ {
		sl.entries[j] = nil
	}
	sl.entries = keep
	sl.mu.Unlock()
	return dst
}

// pacedScratch is one worker's reused tick state: the fix destination
// buffer and the pushed-frame payload buffer. paceScratch[w] is touched
// only by tasks running on worker w, which the pool serializes, so no
// lock is needed and a (worker, slot) batch of any size reuses one
// buffer of each kind.
type pacedScratch struct {
	//moloc:reuse
	fixes []tracker.Fix
	//moloc:reuse
	payload []byte
}

// pacedBatch carries one (worker, slot) batch from the advance scan to
// the worker. Batches are pool-recycled: the advance goroutine fills
// one, the worker drains and returns it.
type pacedBatch struct {
	entries []*pacedEntry
	fired   time.Time // when the slot fired, for paced_fix_seconds
}

var pacedBatches = sync.Pool{New: func() interface{} { return new(pacedBatch) }}

// paceLoop drives the wheel off the wall clock until Close.
func (s *Server) paceLoop() {
	defer s.wg.Done()
	for !s.waitDone(s.wheel.slotDur) {
		s.AdvanceWheel(s.opts.Now())
	}
}

// AdvanceWheel processes every wheel slot elapsed at now and returns
// the number of due sessions dispatched (or shed). Production servers
// drive it from Start's pace loop; tests and benchmarks inject a clock
// through Options.Now and call it directly.
func (s *Server) AdvanceWheel(now time.Time) int {
	w := s.wheel
	from, to, ok := w.elapsedRange(now)
	if !ok {
		return 0
	}
	w.adv.mu.Lock()
	defer w.adv.mu.Unlock()
	dispatched := 0
	for sn := from; sn <= to; sn++ {
		w.adv.due = w.collectDue(w.slotIndex(sn), now, w.adv.due[:0])
		if len(w.adv.due) == 0 {
			continue
		}
		dispatched += len(w.adv.due)
		s.dispatchDue(now, w.adv.due)
	}
	return dispatched
}

// dispatchDue groups one slot's due entries by owning worker and hands
// each worker its batch — the (worker, slot) unit the whole design
// amortizes over. A worker whose queue is full sheds the batch
// (pool_shed_total): its entries are rescheduled one slot out unticked,
// so overload degrades paced sessions to a slower cadence instead of
// stalling the wheel behind one hot worker.
func (s *Server) dispatchDue(now time.Time, due []*pacedEntry) {
	byW := s.wheel.adv.byWorker
	for i := range byW {
		byW[i] = byW[i][:0]
	}
	for _, e := range due {
		byW[e.worker] = append(byW[e.worker], e)
	}
	for wi := range byW {
		if len(byW[wi]) == 0 {
			continue
		}
		b := pacedBatches.Get().(*pacedBatch)
		b.entries = append(b.entries[:0], byW[wi]...)
		b.fired = now
		worker := wi
		if !s.pool.tryRunShard(worker, func() { s.paceBatch(worker, b) }) {
			s.met.poolShed.Inc()
			for _, e := range b.entries {
				e.due = now.Add(s.wheel.slotDur)
				s.wheel.schedule(e)
			}
			b.entries = b.entries[:0]
			pacedBatches.Put(b)
		}
	}
}

// paceBatch runs one (worker, slot) batch on its pool worker: one RCU
// snapshot load and one degradation-state sample shared by every
// session in the batch, then per-session ticking against that view
// with the worker's reused buffers. Runs only on worker `worker`, so
// paceScratch[worker] is exclusively owned for the duration.
//
//moloc:hotpath
func (s *Server) paceBatch(worker int, b *pacedBatch) {
	cmp := s.snap.Load()
	s.met.pacedSnapshotLoads.Inc()
	fpOnly := s.fingerprintOnly()
	sc := &s.paceScratch[worker]
	now := s.opts.Now()
	for _, e := range b.entries {
		if !s.tickOnePaced(e, cmp, fpOnly, sc, b.fired) {
			s.wheel.drop()
			continue
		}
		// Reschedule on the interval grid; a session that fell behind
		// (shed slots, long GC pause) snaps forward rather than burning
		// slots on catch-up deadlines already in the past.
		e.due = e.due.Add(e.interval)
		if !e.due.After(now) {
			e.due = now.Add(e.interval)
		}
		s.wheel.schedule(e)
	}
	b.entries = b.entries[:0]
	pacedBatches.Put(b)
}

// tickOnePaced ticks one paced session at its last event time and
// pushes any resulting fixes to its bound stream. alive=false means the
// session was evicted and must leave the wheel. A panicking tracker is
// contained to its own session — counted, fixes discarded, pacing kept
// — mirroring the per-request recovery on the client-paced path.
func (s *Server) tickOnePaced(e *pacedEntry, cmp *motiondb.Compiled, fpOnly bool,
	sc *pacedScratch, fired time.Time) (alive bool) {
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panicsRecovered.Inc()
			alive = true
		}
	}()
	sc.fixes = sc.fixes[:0]
	push, ok := e.ss.withTrackerPaced(func(tk *tracker.Tracker) {
		tk.SetFingerprintOnly(fpOnly)
		if ev, started := tk.LastEventTime(); started {
			sc.fixes = tk.TickBatchShared(cmp, ev, sc.fixes)
		}
	})
	if !ok {
		return false
	}
	s.met.pacedTicks.Inc()
	if len(sc.fixes) == 0 {
		return true
	}
	s.met.pacedFixSeconds.Observe(time.Since(fired).Seconds())
	s.countFixes(sc.fixes)
	if push != nil {
		s.pushFixes(push, sc)
	}
	return true
}

// pushFixes writes the batch's fixes to a bound stream connection as
// unsolicited Fix frames (sequence 0 — never confused with a tick
// reply, whose sequence echoes the client's). A failed push is counted
// and abandoned; the connection's own frame loop notices the broken
// conn and tears it down, unbinding the pusher.
func (s *Server) pushFixes(push *streamConn, sc *pacedScratch) {
	for i := range sc.fixes {
		sc.payload = wire.AppendFix(sc.payload[:0], sc.fixes[i].T, sc.fixes[i].Loc, sc.fixes[i].Moved)
		if err := push.writeFrame(wire.FrameFix, 0, sc.payload); err != nil {
			s.met.pacedPushErrors.Inc()
			return
		}
		s.met.pacedPushes.Inc()
	}
}

// pacedInterval converts a tracker interval in seconds to the wheel's
// clock domain.
func pacedInterval(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}

// registerPoolGauges exposes the per-worker queue depths and the
// wheel's scheduled-entry count as callback gauges: evaluated only when
// /v1/metricsz snapshots, costing the workers nothing.
func (s *Server) registerPoolGauges() {
	for wi := range s.pool.queues {
		w := wi
		s.met.reg.Gauge("worker_queue_depth{worker="+strconv.Itoa(w)+"}",
			func() int64 { return int64(s.pool.queueDepth(w)) })
	}
	s.met.reg.Gauge("paced_scheduled", s.wheel.scheduled)
}
