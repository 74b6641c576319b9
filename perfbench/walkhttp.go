package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"moloc/internal/server"
)

// walk-http: client-paced phones on the paper's office hall over
// HTTP+JSON. Every session replays its own generated walk and sends one
// request per 3-s interval, open loop at the nominal rate; every
// chattyEvery-th session is chatty (/imu + /scan + /tick) instead of
// batched. A separate closed-loop /batch phase on both connections
// measures capacity.
const (
	walkSessions    = 1200
	walkChattyEvery = 5
	walkSetups      = 5
	walkCapIvs      = 24 // intervals per walk beyond the open-loop phase
	// walkCapMax bounds the closed-loop phase's fixes/s when sizing its
	// fleet: above any raw rate seen on the 2-vCPU host (about 10 600).
	walkCapMax = 16000
)

type walkRig struct {
	w     *world
	h     *host
	lanes [2]*lane
	ss    []*sess
	spans *spanRec
}

func (r *walkRig) close() {
	r.lanes[0].close()
	r.lanes[1].close()
	r.h.close()
}

func runWalkHTTP(cfg runCfg) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	total := secs(cfg.seconds)
	openDur := total * 6 / 10
	capDur := total - openDur
	openIvs := int(openDur/secs(intervalSec)) + 1
	rec := &httpRec{traced: cfg.trace}

	var walks []*walk
	var rig *walkRig
	for r := 0; r < walkSetups; r++ {
		settle()
		t0 := time.Now()
		w, err := officeWorld()
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)
		if walks == nil {
			if walks, err = genWalks(w, walkSessions, 1+openIvs+walkCapIvs, cfg.seed, "walk-http"); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		rg, err := bootWalk(w, walks, cfg.trace, rec)
		if err != nil {
			return nil, err
		}
		out.setupRun = append(out.setupRun, (build + time.Since(t1)).Seconds())
		if r < walkSetups-1 {
			rg.close()
		} else {
			rig = rg
		}
	}
	defer rig.close()
	// Set-up traffic (creates, warm-up) is not part of the measured sample.
	rec.fixLat, rec.writeLat = samples{}, samples{}
	out.e2e["setup_s"] = median(out.setupRun)

	settle()
	var tracedSrv *server.Server
	if cfg.trace {
		tracedSrv = rig.h.srv
	}
	samp := startSampler(tracedSrv)
	rt0 := readRuntime()
	m0, err := rig.lanes[0].metricsz()
	if err != nil {
		return nil, err
	}

	// Open loop: session i's interval k is due at (i+0.5)/n*3s + (k-1)*3s.
	open := out.phase("open-loop")
	var ops [2][]op
	n := len(rig.ss)
	for i, s := range rig.ss {
		s := s
		off := secs(intervalSec * (float64(i) + 0.5) / float64(n))
		for k := 1; k < len(s.wk.ivs); k++ {
			due := off + secs(intervalSec*float64(k-1))
			if due >= openDur {
				break
			}
			l := rig.lanes[i%2]
			if i%walkChattyEvery == 0 {
				ops[i%2] = append(ops[i%2], op{due, func(d time.Time) bool { return s.sendChatty(l, rec, d, true) }})
			} else {
				ops[i%2] = append(ops[i%2], op{due, func(d time.Time) bool {
					_, ok := s.sendBatch(l, rec, d, true)
					return ok
				}})
			}
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	both(func(li int) { openLoop(start, ops[li], open) })
	open.elapsed = time.Since(start)
	out.e2e["rss_peak_mb"] = samp.finish()
	open.note += fmt.Sprintf("; process CPU %.0f%% of %d CPUs", 100*samp.cpuShare, runtime.NumCPU())

	// Closed loop: both connections send /batch back to back, round robin
	// over the open-loop sessions' remaining intervals and a fresh fleet
	// of copies of the same walks, for capDur.
	capSS, err := capacityFleet(rig.lanes, rig.ss, walks, capDur, walkCapMax, rec)
	if err != nil {
		return nil, err
	}
	pr, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	capPh := out.phase("closed-loop capacity")
	settle()
	cr, err := closedLoop(rig.lanes, capSS, rec, capDur, capPh, pr)
	if err != nil {
		return nil, err
	}
	m2, err := rig.lanes[0].metricsz()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	all := capSS // the open-loop sessions come first

	latencies(out, []*samples{&rec.fixLat}, []*samples{&rec.writeLat}, start, windowedQ)
	out.capacity = cr
	out.e2e["capacity_per_s"] = cr.scaled()
	out.e2e["fix_error_p50_m"] = median(fixErrors(rig.w, all))
	open.note = fmt.Sprintf("%d fix and %d write latencies", rec.fixLat.len(), rec.writeLat.len()) + open.note

	// Output check: every session's fix stream equals a reference
	// tracker's on the identical inputs.
	var tm *trackerTiming
	if cfg.trace {
		tm = &trackerTiming{}
	}
	cmp := rig.h.srv.CompiledSnapshot()
	ref, err := referenceFixes(rig.w, all, cmp, false, tm)
	if err != nil {
		return nil, err
	}
	bad, failed, total2 := 0, 0, 0
	for i, s := range all {
		if s.failed {
			failed++
			continue
		}
		total2 += len(s.fixes)
		if !equalFixes(s.fixes, ref[i]) {
			bad++
		}
	}
	out.check("fixes equal reference tracker", bad == 0 && failed == 0,
		"%d sessions, %d fixes; %d mismatched, %d with failed requests", len(all), total2, bad, failed)
	out.check("capacity phase had input to the end", !cr.ranShort, "%d sessions", len(capSS))

	if cfg.trace {
		lay := newLayers()
		lay.http(rig.spans, rec)
		lay.codecJSON(rec, nil)
		lay.trackerReplay(tm)
		lay.motionLocalizer(rig.w, rig.ss, cmp, false)
		lay.serverCounters(m0, m2, samp)
		runtimeLayers(rt0, rt1, lay.m)
		out.tables = append(out.tables, lay.whereTimeGoes())
		out.layers = lay.m
	}
	return out, nil
}

// bootWalk boots a walk-http server, creates every session over both
// connections and warms each with its first interval.
func bootWalk(w *world, walks []*walk, traced bool, rec *httpRec) (*walkRig, error) {
	srv, err := w.newServer(server.Options{TrainGraph: w.sys.Graph})
	if err != nil {
		return nil, err
	}
	var spans *spanRec
	if traced {
		spans = newSpanRec()
	}
	h, err := serve(srv, spans, false)
	if err != nil {
		return nil, err
	}
	rig := &walkRig{w: w, h: h, spans: spans, lanes: [2]*lane{newLane(h.base), newLane(h.base)}}
	rig.ss = make([]*sess, len(walks))
	for i, wk := range walks {
		rig.ss[i] = &sess{wk: wk}
	}
	if err := createAll(rig.lanes, rig.ss, nil); err != nil {
		rig.close()
		return nil, err
	}
	var warmFail [2]int
	both(func(li int) {
		for i := li; i < len(rig.ss); i += 2 {
			s := rig.ss[i]
			ok := false
			if i%walkChattyEvery == 0 {
				ok = s.sendChatty(rig.lanes[li], rec, time.Now(), false)
			} else {
				_, ok = s.sendBatch(rig.lanes[li], rec, time.Now(), false)
			}
			if !ok {
				warmFail[li]++
			}
		}
	})
	if n := warmFail[0] + warmFail[1]; n > 0 {
		rig.close()
		return nil, fmt.Errorf("walk-http warm-up: %d requests failed", n)
	}
	return rig, nil
}

// capacityFleet returns a closed-loop phase's sessions: ss (one per
// walk, in walk order), then as many fresh copies of every walk as a
// phase of dur could use at maxRate fixes/s, each created and warmed with
// its first interval's /batch here, untimed, so the phase never runs out
// of input. Session i keeps lane i%2.
func capacityFleet(lanes [2]*lane, ss []*sess, walks []*walk, dur time.Duration, maxRate float64, rec *httpRec) ([]*sess, error) {
	left, per := 0, 0
	for i, s := range ss {
		left += len(s.wk.ivs) - s.next
		per += len(walks[i].ivs) - 1
	}
	copies := 0
	if need := int(dur.Seconds() * maxRate); need > left {
		copies = (need - left + per - 1) / per
	}
	fresh := make([]*sess, 0, copies*len(walks))
	for c := 0; c < copies; c++ {
		for _, wk := range walks {
			fresh = append(fresh, &sess{wk: wk})
		}
	}
	if err := createAll(lanes, fresh, nil); err != nil {
		return nil, err
	}
	var fail [2]int
	both(func(li int) {
		for i := li; i < len(fresh); i += 2 {
			if _, ok := fresh[i].sendBatch(lanes[li], rec, time.Time{}, false); !ok {
				fail[li]++
			}
		}
	})
	if n := fail[0] + fail[1]; n > 0 {
		return nil, fmt.Errorf("capacity fleet warm-up: %d requests failed", n)
	}
	return append(append([]*sess(nil), ss...), fresh...), nil
}

// capResult is a sliced closed-loop phase's outcome: units of work done
// in the closed-loop slices, the slices' total length, and the probe's
// speed over the probe slices between them.
type capResult struct {
	work     int
	busy     time.Duration
	slices   int
	probe    float64
	ranShort bool // the phase ran out of input before its length
}

// raw is the work done per second of closed-loop time.
func (c capResult) raw() float64 { return float64(c.work) / c.busy.Seconds() }

// scaled is raw at the probe's reference speed (see probe.go).
func (c capResult) scaled() float64 { return c.raw() * probeRefRate / c.probe }

func (c capResult) String() string {
	s := fmt.Sprintf("%d in %d slices of %.2fs; raw %.0f/s, probe %.0f/s, scaled %.0f/s",
		c.work, c.slices, c.busy.Seconds(), c.raw(), c.probe, c.scaled())
	if c.ranShort {
		s += "; RAN OUT OF INPUT"
	}
	return s
}

// sliced runs a closed-loop phase of length dur as capSlice slices of
// slice(d), which does up to d of closed-loop work and returns the work
// done and whether input ran out, each slice preceded and the last one
// followed by a probeSlice of the probe.
func sliced(dur time.Duration, pr *probe, slice func(d time.Duration) (int, bool)) (capResult, error) {
	var c capResult
	start := time.Now()
	if err := pr.measure(probeSlice); err != nil {
		return c, err
	}
	for !c.ranShort {
		left := dur - time.Since(start) - probeSlice
		if left < capSlice/4 {
			break
		}
		if left > capSlice {
			left = capSlice
		}
		t0 := time.Now()
		n, short := slice(left)
		c.busy += time.Since(t0)
		c.work += n
		c.slices++
		c.ranShort = short
		if err := pr.measure(probeSlice); err != nil {
			return c, err
		}
	}
	c.probe = pr.rate()
	return c, nil
}

// closedLoop sends /batch back to back on both connections, round robin
// over each connection's sessions (session i on lane i%2), in probe-
// interleaved slices for dur; its work is fixes. Both connections stop
// when either reaches a session with no interval left.
func closedLoop(lanes [2]*lane, ss []*sess, rec *httpRec, dur time.Duration, ph *phaseCount, pr *probe) (capResult, error) {
	cur := [2]int{0, 1}
	start := time.Now()
	c, err := sliced(dur, pr, func(d time.Duration) (int, bool) {
		var got [2]int
		var out atomic.Bool
		t0 := time.Now()
		both(func(li int) {
			for time.Since(t0) < d && !out.Load() && cur[li] < len(ss) {
				s := ss[cur[li]]
				if s.next >= len(s.wk.ivs) {
					out.Store(true)
					return
				}
				n, ok := s.sendBatch(lanes[li], rec, time.Time{}, false)
				ph.add(ok)
				got[li] += n
				if cur[li] += 2; cur[li] >= len(ss) {
					cur[li] = li // wrap to the lane's first session
				}
			}
		})
		return got[0] + got[1], out.Load()
	})
	ph.elapsed = time.Since(start)
	ph.note = c.String() + " (fixes)"
	return c, err
}

func equalFixes(a, b []fix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
