package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"moloc/internal/server"
)

// city-paced: a server-paced fleet on the 1024-location grid with Gate
// and PaceAll on. Tens of thousands of sessions sit parked on the tick
// wheel; a fixed active share walks in real time and uploads each
// interval through /imu + /scan on an open-loop schedule, and a probe
// sample of them is polled with GET at a fixed cadence (the fix-age
// resolution) to see when each fix appears. A separate closed-loop
// /batch phase on both connections measures capacity at city scale.
const (
	cityActive  = 600
	cityParked  = 20000
	cityProbes  = 600
	cityPoll    = 250 * time.Millisecond
	citySetups  = 3
	cityCapIvs  = 16
	cityGraceIv = 1.2 // polling continues this many intervals past the last upload
	// cityCapMax bounds the closed-loop phase's fixes/s when sizing its
	// fleet: above any raw rate seen on the 2-vCPU host.
	cityCapMax = 12000
)

type cityRig struct {
	w      *world
	h      *host
	lanes  [2]*lane
	active []*sess
	spans  *spanRec
}

func (r *cityRig) close() {
	r.lanes[0].close()
	r.lanes[1].close()
	r.h.close()
}

func runCityPaced(cfg runCfg) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	total := secs(cfg.seconds)
	grace := secs(intervalSec * cityGraceIv)
	openDur := total * 2 / 5
	capDur := total - openDur - grace
	if capDur < time.Second {
		capDur = time.Second
	}
	openIvs := int(openDur/secs(intervalSec)) + 1
	rec := &httpRec{traced: cfg.trace}

	var walks []*walk
	var rig *cityRig
	for r := 0; r < citySetups; r++ {
		settle()
		t0 := time.Now()
		w, err := cityWorld()
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)
		if walks == nil {
			if walks, err = genWalks(w, cityActive, 1+openIvs+cityCapIvs, cfg.seed, "city-paced"); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		rg, err := bootCity(w, walks, capDur, cfg.trace, rec)
		if err != nil {
			return nil, err
		}
		out.setupRun = append(out.setupRun, (build + time.Since(t1)).Seconds())
		if r < citySetups-1 {
			rg.close()
		} else {
			rig = rg
		}
	}
	defer rig.close()
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

	// Open loop. Lane 0 uploads every active session's intervals on its
	// real-time schedule; lane 1 polls the probe sessions round robin,
	// each once per cityPoll.
	open := out.phase("open-loop")
	n := len(rig.active)
	// Session i uploads each interval lead_i = (i+0.5)/n * 3s before its
	// wheel deadline (its create time plus whole intervals), so the wheel
	// wait a fix sees is spread evenly over one interval in every run,
	// whatever the phase between the set-up and the schedule.
	start := time.Now().Add(20 * time.Millisecond)
	var ups, polls []op
	for i, s := range rig.active {
		s := s
		lead := secs(intervalSec * (float64(i) + 0.5) / float64(n))
		first := s.created.Add(-lead)
		for first.Before(start) {
			first = first.Add(secs(intervalSec))
		}
		for k := 1; k < len(s.wk.ivs); k++ {
			due := first.Add(secs(intervalSec * float64(k-1))).Sub(start)
			if due >= openDur {
				break
			}
			s.upDue[k] = start.Add(due)
			ups = append(ups, op{due, func(d time.Time) bool { return s.upload(rig.lanes[0], rec, d, kUpload, true) }})
		}
	}
	var missed, seen atomic.Int64
	for j := 0; j < cityProbes && j < n; j++ {
		s := rig.active[j*n/cityProbes]
		for due := cityPoll * time.Duration(j) / cityProbes; due < openDur+grace; due += cityPoll {
			polls = append(polls, op{due, func(time.Time) bool {
				v, ok := s.get(rig.lanes[1])
				if !ok {
					return false // counted as failed by the phase
				}
				if v.Fix == nil || v.Fix.T <= s.lastSeen {
					return true
				}
				now := time.Now()
				if s.lastSeen > 0 && v.Fix.T-s.lastSeen > intervalSec*1.5 {
					missed.Add(1)
				}
				s.lastSeen = v.Fix.T
				s.fixes = append(s.fixes, *v.Fix)
				// The fix closes interval k; the upload of interval k+1
				// is what let the wheel close it.
				k := int(math.Round((v.Fix.T-s.wk.ivs[0].end)/intervalSec)) + 1
				if due, ok := s.upDue[k]; ok {
					rec.fixLat.add(due, ms(now.Sub(due)))
					seen.Add(1)
				}
				return true
			}})
		}
	}
	both(func(li int) {
		if li == 0 {
			openLoop(start, ups, open)
		} else {
			openLoop(start, polls, open)
		}
	})
	open.elapsed = time.Since(start)
	out.e2e["rss_peak_mb"] = samp.finish()
	open.note += fmt.Sprintf("; process CPU %.0f%% of %d CPUs", 100*samp.cpuShare, runtime.NumCPU())

	// Closed loop: both connections send /batch back to back over the
	// active sessions' remaining intervals and a fresh fleet of copies of
	// the same walks (paced like every session).
	all, err := capacityFleet(rig.lanes, rig.active, walks, capDur, cityCapMax, rec)
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
	cr, err := closedLoop(rig.lanes, all, rec, capDur, capPh, pr)
	if err != nil {
		return nil, err
	}
	m1, err := rig.lanes[0].metricsz()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()

	latencies(out, []*samples{&rec.fixLat}, []*samples{&rec.writeLat}, start, wholeQ)
	out.capacity = cr
	out.e2e["capacity_per_s"] = cr.scaled()
	out.check("capacity phase had input to the end", !cr.ranShort, "%d sessions", len(all))
	out.e2e["fix_error_p50_m"] = median(fixErrors(rig.w, all))
	open.note = fmt.Sprintf("%d fix ages (poll resolution %v), %d uploads timed, %d fixes missed between polls",
		rec.fixLat.len(), cityPoll, rec.writeLat.len(), missed.Load()) + open.note

	// Output check: every fix a poll or a /batch returned, and each
	// session's final fix count and last fix, equal a reference tracker
	// fed the same uploads and ticked at each upload's last event time
	// (the wheel's tick clock).
	final := out.phase("final GET")
	views := make([]*sessionView, len(all))
	both(func(li int) {
		for i := li; i < len(all); i += 2 {
			v, ok := all[i].get(rig.lanes[li])
			final.add(ok)
			views[i] = v
		}
	})
	var tm *trackerTiming
	if cfg.trace {
		tm = &trackerTiming{}
	}
	cmp := rig.h.srv.CompiledSnapshot()
	ref, err := referenceFixes(rig.w, all, cmp, true, tm)
	if err != nil {
		return nil, err
	}
	bad, failed, checked := 0, 0, 0
	for i, s := range all {
		if s.failed || views[i] == nil {
			failed++
			continue
		}
		byT := make(map[float64]fix, len(ref[i]))
		for _, f := range ref[i] {
			byT[f.T] = f
		}
		ok := int(views[i].Stats.Fixes) == len(ref[i]) && len(ref[i]) > 0 &&
			views[i].Fix != nil && *views[i].Fix == ref[i][len(ref[i])-1]
		for _, f := range s.fixes {
			checked++
			if byT[f.T] != f {
				ok = false
			}
		}
		if !ok {
			bad++
		}
	}
	out.check("fixes equal reference tracker", bad == 0 && failed == 0,
		"%d sessions, %d received fixes checked; %d mismatched, %d with failed requests", len(all), checked, bad, failed)
	out.check("probe fix ages observed", seen.Load() > 0, "%d", seen.Load())

	if cfg.trace {
		lay := newLayers()
		lay.http(rig.spans, rec)
		lay.codecJSON(rec, nil)
		lay.trackerReplay(tm)
		lay.motionLocalizer(rig.w, rig.active, cmp, true)
		lay.serverCounters(m0, m1, samp)
		// Share of the paced ticks the registry's sessions were due over
		// the measured phases: below 1 when wheel entries miss their slot.
		due := (float64(m0.Sessions)*open.elapsed.Seconds() + float64(m1.Sessions)*capPh.elapsed.Seconds()) / intervalSec
		lay.m["server.wheel.tick_share"] = lay.m["server.wheel.ticks"] / due
		runtimeLayers(rt0, rt1, lay.m)
		out.layers = lay.m
	}
	return out, nil
}

// bootCity boots a paced, gated server sized for the fleet (and for a
// capacity fleet of a closed-loop phase of capDur), creates the
// active and parked sessions over both connections, and warms each
// active session with its first interval's upload.
func bootCity(w *world, walks []*walk, capDur time.Duration, traced bool, rec *httpRec) (*cityRig, error) {
	// Every walk has at least cityCapIvs intervals, and capacityFleet adds
	// whole copies of the walks.
	fleet := int(capDur.Seconds()*cityCapMax)/cityCapIvs + cityActive
	srv, err := w.newServer(server.Options{Gate: true, PaceAll: true, MaxSessions: cityActive + cityParked + fleet + 64})
	if err != nil {
		return nil, err
	}
	var spans *spanRec
	if traced {
		spans = newSpanRec()
	}
	// Start the wheel's pace loop at a fixed phase of the slot grid (see
	// wheelPhase).
	sleepUntil(nextPhase(time.Now(), server.DefaultWheelSlotDur, cityLoopPhase))
	h, err := serve(srv, spans, false)
	if err != nil {
		return nil, err
	}
	rig := &cityRig{w: w, h: h, spans: spans, lanes: [2]*lane{newLane(h.base), newLane(h.base)}}
	rig.active = make([]*sess, len(walks))
	for i, wk := range walks {
		rig.active[i] = &sess{wk: wk, upDue: map[int]time.Time{}}
	}
	if err := createAll(rig.lanes, rig.active, wheelPhase); err != nil {
		rig.close()
		return nil, err
	}
	parked := make([]*sess, cityParked)
	for i := range parked {
		parked[i] = &sess{wk: walks[i%len(walks)]}
	}
	if err := createAll(rig.lanes, parked, nil); err != nil {
		rig.close()
		return nil, err
	}
	var warmFail [2]int
	both(func(li int) {
		for i := li; i < len(rig.active); i += 2 {
			if !rig.active[i].upload(rig.lanes[li], rec, time.Now(), kUpload, false) {
				warmFail[li]++
			}
		}
	})
	if warmFail[0]+warmFail[1] > 0 {
		rig.close()
		return nil, fmt.Errorf("city-paced warm-up: %d uploads failed", warmFail[0]+warmFail[1])
	}
	return rig, nil
}

// The tick wheel processes a slot once, at the pace loop's first
// advance after the slot begins; an entry due later in that slot than
// the advance is skipped until the wheel comes round again (64 slots, 16
// s), and since its next deadline is rescheduled one interval past the
// late fire, it keeps missing. Which sessions that hits depends on the
// phase between each session's create time and the pace loop, so left
// to chance it would make fix ages bimodal and different in every run.
// The active sessions are therefore created early in a slot
// (wheelPhase) and the pace loop is started later in the slot
// (cityLoopPhase): their deadlines always fall before the advance, and
// the loop's drift of about a millisecond per advance cannot close the
// gap within a run. Parked sessions are created at any phase.
const (
	cityCreateWindow = 40 * time.Millisecond
	cityLoopPhase    = 100 * time.Millisecond
)

// wheelPhase holds a create until the wall clock is in the first
// cityCreateWindow of a wheel slot.
func wheelPhase() {
	now := time.Now()
	if time.Duration(now.UnixNano()%int64(server.DefaultWheelSlotDur)) >= cityCreateWindow {
		sleepUntil(nextPhase(now, server.DefaultWheelSlotDur, 0))
	}
}

// nextPhase is the next instant after now at offset within the slot grid.
func nextPhase(now time.Time, slot, offset time.Duration) time.Time {
	d := offset - time.Duration(now.UnixNano()%int64(slot))
	if d <= 0 {
		d += slot
	}
	return now.Add(d)
}
