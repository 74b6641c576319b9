package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"moloc/internal/fingerprint"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/tracker"
)

// opKind is how one interval of a walk reached the server.
type opKind uint8

const (
	// kBatch: one POST /batch with the interval's samples, all its scans
	// and a tick at the interval end.
	kBatch opKind = iota
	// kChatty: POST /imu, /scan (the interval's last scan), then /tick.
	kChatty
	// kUpload: POST /imu and /scan only; a paced server closes the
	// interval on its wheel.
	kUpload
)

// sent records one interval sent, in order, for the reference replay.
type sent struct {
	iv   int
	kind opKind
}

// sess is one HTTP phone session replaying a walk.
type sess struct {
	id      string
	created time.Time // when the create response arrived
	wk      *walk
	next    int // next interval to send
	sent    []sent
	fixes   []fix // fixes received, in order
	failed  bool  // an operation failed: the fix stream is incomplete

	// Paced sessions: when each interval's upload is due (filled before
	// the phase starts, read-only while it runs), and the last fix time a
	// poll has seen.
	upDue    map[int]time.Time
	lastSeen float64
}

// httpRec collects what the HTTP senders measure. Latencies are timed
// from each operation's due time.
type httpRec struct {
	fixLat, writeLat samples // ms
	traced           bool
	rtt              samples // /batch send-to-response, us (traced)
	mu               sync.Mutex
	batchReqs        [][]byte
	batchResps       [][]byte
}

// keepBodies bounds the request/response bodies a traced run keeps for
// the codec replays.
const keepBodies = 400

func (r *httpRec) keepBatch(req, resp []byte, rtt time.Duration) {
	if !r.traced {
		return
	}
	r.rtt.add(time.Time{}, us(rtt))
	r.mu.Lock()
	if len(r.batchReqs) < keepBodies {
		r.batchReqs = append(r.batchReqs, req)
		r.batchResps = append(r.batchResps, resp)
	}
	r.mu.Unlock()
}

// batchBody is the /batch request body.
type batchBody struct {
	Samples []sensors.Sample `json:"samples"`
	Scans   []scan           `json:"scans"`
	T       float64          `json:"t"`
}

// sendBatch posts the next interval through /batch. With timed set the
// fix latency (due to response) is recorded.
func (s *sess) sendBatch(l *lane, rec *httpRec, due time.Time, timed bool) (int, bool) {
	iv := &s.wk.ivs[s.next]
	s.sent = append(s.sent, sent{s.next, kBatch})
	s.next++
	body, err := json.Marshal(batchBody{Samples: iv.samples, Scans: iv.scans, T: iv.end})
	if err != nil {
		s.failed = true
		return 0, false
	}
	t0 := time.Now()
	st, resp, err := l.do(http.MethodPost, "/v1/sessions/"+s.id+"/batch", body)
	done := time.Now()
	if err != nil || st != http.StatusOK {
		s.failed = true
		return 0, false
	}
	var br struct {
		Fixes []fix `json:"fixes"`
	}
	if err := json.Unmarshal(resp, &br); err != nil {
		s.failed = true
		return 0, false
	}
	s.fixes = append(s.fixes, br.Fixes...)
	if timed {
		rec.fixLat.add(due, ms(done.Sub(due)))
	}
	rec.keepBatch(body, resp, done.Sub(t0))
	return len(br.Fixes), true
}

// upload posts the next interval's IMU samples and last scan; each
// accepted write's latency is timed from due.
func (s *sess) upload(l *lane, rec *httpRec, due time.Time, kind opKind, timed bool) bool {
	iv := &s.wk.ivs[s.next]
	s.sent = append(s.sent, sent{s.next, kind})
	s.next++
	imu, err := json.Marshal(map[string]interface{}{"samples": iv.samples})
	if err != nil {
		s.failed = true
		return false
	}
	st, _, err := l.do(http.MethodPost, "/v1/sessions/"+s.id+"/imu", imu)
	if err != nil || st != http.StatusAccepted {
		s.failed = true
		return false
	}
	if timed {
		rec.writeLat.add(due, ms(time.Since(due)))
	}
	sc, err := json.Marshal(iv.lastScan())
	if err != nil {
		s.failed = true
		return false
	}
	st, _, err = l.do(http.MethodPost, "/v1/sessions/"+s.id+"/scan", sc)
	if err != nil || st != http.StatusAccepted {
		s.failed = true
		return false
	}
	if timed {
		rec.writeLat.add(due, ms(time.Since(due)))
	}
	return true
}

// sendChatty is the chatty client's interval: /imu, /scan, then /tick
// (the fix request, timed from due like the uploads before it).
func (s *sess) sendChatty(l *lane, rec *httpRec, due time.Time, timed bool) bool {
	iv := &s.wk.ivs[s.next]
	if !s.upload(l, rec, due, kChatty, timed) {
		return false
	}
	body, err := json.Marshal(map[string]float64{"t": iv.end})
	if err != nil {
		s.failed = true
		return false
	}
	st, resp, err := l.do(http.MethodPost, "/v1/sessions/"+s.id+"/tick", body)
	if err != nil || (st != http.StatusOK && st != http.StatusNoContent) {
		s.failed = true
		return false
	}
	if timed {
		rec.fixLat.add(due, ms(time.Since(due)))
	}
	if st == http.StatusOK {
		var f fix
		if err := json.Unmarshal(resp, &f); err != nil {
			s.failed = true
			return false
		}
		s.fixes = append(s.fixes, f)
	}
	return true
}

// sessionView is the GET /v1/sessions/{id} body.
type sessionView struct {
	Fix   *fix          `json:"fix"`
	Stats tracker.Stats `json:"stats"`
}

func (s *sess) get(l *lane) (*sessionView, bool) {
	st, body, err := l.do(http.MethodGet, "/v1/sessions/"+s.id, nil)
	if err != nil || st != http.StatusOK {
		return nil, false
	}
	var v sessionView
	if json.Unmarshal(body, &v) != nil {
		return nil, false
	}
	return &v, true
}

// trackerTiming accumulates the traced run's tracker replay timings.
type trackerTiming struct {
	imuNs, scanNs []float64 // per call
	ingestUs      []float64 // per interval: every AddIMU and AddScan call
	tickUs        []float64 // per Tick/TickBatch call that closed an interval
	stats         tracker.Stats
}

// replay feeds the session's exact inputs, in order, through a reference
// tracker and returns every fix it emits. tm, when non-nil, times each
// public call.
func (s *sess) replay(tk *tracker.Tracker, tm *trackerTiming) []fix {
	var out []fix
	var buf []tracker.Fix
	for _, st := range s.sent {
		iv := &s.wk.ivs[st.iv]
		t0 := time.Now()
		for _, smp := range iv.samples {
			tk.AddIMU(smp)
		}
		imuUs := us(time.Since(t0))
		if tm != nil && len(iv.samples) > 0 {
			tm.imuNs = append(tm.imuNs, imuUs*1e3/float64(len(iv.samples)))
		}
		scans := iv.scans
		if st.kind != kBatch {
			scans = scans[len(scans)-1:]
		}
		t0 = time.Now()
		for _, sc := range scans {
			tk.AddScan(sc.T, fingerprint.Fingerprint(sc.RSS))
		}
		if tm != nil {
			d := time.Since(t0)
			tm.scanNs = append(tm.scanNs, float64(d.Nanoseconds())/float64(len(scans)))
			tm.ingestUs = append(tm.ingestUs, us(d)+imuUs)
		}
		closedBefore := tk.Stats().IntervalsClosed
		t0 = time.Now()
		switch st.kind {
		case kBatch:
			buf = tk.TickBatch(iv.end, buf[:0])
		case kChatty:
			buf = buf[:0]
			if f, ok := tk.Tick(iv.end); ok {
				buf = append(buf, f)
			}
		case kUpload:
			buf = buf[:0]
			if ev, ok := tk.LastEventTime(); ok {
				buf = tk.TickBatch(ev, buf)
			}
		}
		if tm != nil && tk.Stats().IntervalsClosed > closedBefore {
			tm.tickUs = append(tm.tickUs, us(time.Since(t0)))
		}
		for _, f := range buf {
			out = append(out, fix{T: f.T, Loc: f.Loc, Moved: f.Moved})
		}
	}
	if tm != nil {
		st := tk.Stats()
		tm.stats.IntervalsClosed += st.IntervalsClosed
		tm.stats.NoScanIntervals += st.NoScanIntervals
		tm.stats.SnapshotSwaps += st.SnapshotSwaps
	}
	return out
}

// referenceFixes replays every session through its own reference
// tracker on snapshot cmp; on both lanes' goroutines unless tm times the
// replay.
func referenceFixes(w *world, ss []*sess, cmp *motiondb.Compiled, gate bool, tm *trackerTiming) ([][]fix, error) {
	var snap atomic.Pointer[motiondb.Compiled]
	snap.Store(cmp)
	out := make([][]fix, len(ss))
	var errs [2]error
	run := func(li, step int) {
		for i := li; i < len(ss) && errs[li] == nil; i += step {
			tk, err := newRefTracker(w, &snap, ss[i].wk.user, gate)
			if err != nil {
				errs[li] = err
				return
			}
			out[i] = ss[i].replay(tk, tm)
		}
	}
	if tm != nil {
		run(0, 1)
	} else {
		both(func(li int) { run(li, 2) })
	}
	return out, errors.Join(errs[0], errs[1])
}

// createAll opens every session over both lanes (session i on lane
// i%2); gate, when set, runs before each create.
func createAll(lanes [2]*lane, ss []*sess, gate func()) error {
	var mu sync.Mutex
	var first error
	both(func(li int) {
		for i := li; i < len(ss); i += 2 {
			if gate != nil {
				gate()
			}
			id, err := lanes[li].createSession(ss[i].wk.user.HeightM, ss[i].wk.user.WeightKg)
			if err != nil {
				mu.Lock()
				if first == nil {
					first = fmt.Errorf("session %d: %w", i, err)
				}
				mu.Unlock()
				return
			}
			ss[i].id, ss[i].created = id, time.Now()
		}
	})
	return first
}

// fixErrors is each received fix's distance to the walker's true
// position at the fix time.
func fixErrors(w *world, ss []*sess) []float64 {
	var out []float64
	for _, s := range ss {
		for _, f := range s.fixes {
			out = append(out, w.sys.Plan.LocPos(f.Loc).Dist(s.wk.truth(w.sys.Plan, f.T)))
		}
	}
	return out
}
