package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"moloc/internal/checkpoint"
	"moloc/internal/fault"
	"moloc/internal/fingerprint"
	"moloc/internal/localizer"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// layers assembles the traced run's per-layer metrics. Spans come from
// the timing handler around the server; stage costs come from replaying
// the run's own inputs through each module's public functions after the
// load has stopped, so the replays never perturb the measured phases.
type layers struct {
	m map[string]float64
	// tickIvs is the tracker replay's per-interval sample count, for the
	// where-the-time-goes table.
	ingestUs []float64
	extract  []float64
	localize []float64
	tick     []float64
}

func newLayers() *layers { return &layers{m: map[string]float64{}} }

// http reports per-route in-server spans and the transport overhead:
// client-observed /batch latency minus the in-server /batch span.
func (l *layers) http(spans *spanRec, rec *httpRec) {
	for _, r := range httpRoutes {
		v := spans.get(r)
		l.m["server.http."+r+"_us_p50"] = median(v)
		l.m["server.http."+r+"_us_p99"] = quantile(v, 0.99)
	}
	if rtt := rec.rtt.all(); len(rtt) > 0 {
		l.m["transport.http.overhead_us_p50"] = median(rtt) - median(spans.get("batch"))
	}
}

// replayReps repeats each codec replay so one body's timing is not a
// single cold sample.
const replayReps = 3

// codecJSON replays encoding/json on the run's own bodies: /batch
// request decode (as the server's json.Decoder does it), the fix
// response encode, and the observation-batch decode.
func (l *layers) codecJSON(rec *httpRec, obsBodies [][]byte) {
	var dec, enc, od []float64
	for _, b := range rec.batchReqs {
		for r := 0; r < replayReps; r++ {
			var req struct {
				Samples []sensors.Sample `json:"samples"`
				Scans   []struct {
					T   float64   `json:"t"`
					RSS []float64 `json:"rss"`
				} `json:"scans"`
				T float64 `json:"t"`
			}
			t0 := time.Now()
			if json.NewDecoder(bytes.NewReader(b)).Decode(&req) == nil {
				dec = append(dec, us(time.Since(t0)))
			}
		}
	}
	for _, b := range rec.batchResps {
		var resp struct {
			Fixes []struct {
				T          float64                 `json:"t"`
				Loc        int                     `json:"loc"`
				X          float64                 `json:"x"`
				Y          float64                 `json:"y"`
				Moved      bool                    `json:"moved"`
				Mode       string                  `json:"mode"`
				Candidates []fingerprint.Candidate `json:"candidates"`
			} `json:"fixes"`
		}
		if json.Unmarshal(b, &resp) != nil {
			continue
		}
		for r := 0; r < replayReps; r++ {
			t0 := time.Now()
			if json.NewEncoder(io.Discard).Encode(resp) == nil {
				enc = append(enc, us(time.Since(t0)))
			}
		}
	}
	for _, b := range obsBodies {
		for r := 0; r < replayReps; r++ {
			var req struct {
				Observations []motiondb.Observation `json:"observations"`
			}
			t0 := time.Now()
			if json.Unmarshal(b, &req) == nil {
				od = append(od, us(time.Since(t0)))
			}
		}
	}
	l.m["codec.json.batch_decode_us"] = median(dec)
	l.m["codec.json.fix_encode_us"] = median(enc)
	l.m["codec.json.obs_decode_us"] = median(od)
}

// codecWire replays the binary stream decoders on the run's own frames.
func (l *layers) codecWire(frames [][]byte) {
	var fd, odec []float64
	var scratch []motiondb.Observation
	for _, f := range frames {
		for r := 0; r < replayReps; r++ {
			t0 := time.Now()
			fr, _, err := wire.DecodeFrame(f, wire.DefaultMaxPayload)
			d := time.Since(t0)
			if err != nil {
				continue
			}
			fd = append(fd, float64(d.Nanoseconds()))
			t0 = time.Now()
			scratch, err = wire.DecodeObservations(fr.Payload, scratch)
			if err == nil {
				odec = append(odec, float64(time.Since(t0).Nanoseconds()))
			}
		}
	}
	l.m["codec.wire.frame_decode_ns"] = median(fd)
	l.m["codec.wire.obs_decode_ns"] = median(odec)
}

// trackerReplay reports the reference replay's tracker timings.
func (l *layers) trackerReplay(tm *trackerTiming) {
	l.m["tracker.add_imu_ns"] = median(tm.imuNs)
	l.m["tracker.add_scan_ns"] = median(tm.scanNs)
	l.m["tracker.tick_us_p50"] = median(tm.tickUs)
	l.m["tracker.tick_us_p99"] = quantile(tm.tickUs, 0.99)
	l.m["tracker.intervals_closed"] = float64(tm.stats.IntervalsClosed)
	l.m["tracker.no_scan_intervals"] = float64(tm.stats.NoScanIntervals)
	l.m["tracker.snapshot_swaps"] = float64(tm.stats.SnapshotSwaps)
	l.tick = tm.tickUs
	l.ingestUs = tm.ingestUs
}

// replaySessions bounds how many sessions the motion/localizer replay
// walks; their intervals are the sample.
const replaySessions = 200

// motionLocalizer replays each sent interval through motion.Extract and
// a fresh MoLoc localizer on the run's snapshot, and the candidate scan
// the localizer issues through the fingerprint map: the masked
// (reachability-gated) scan when gating is on and a prior exists, the
// full scan otherwise. quant_fallback_share counts the quantized
// kernel's refusals of the interval's scan.
func (l *layers) motionLocalizer(w *world, ss []*sess, cmp *motiondb.Compiled, gate bool) {
	mcfg := w.sys.Config.Motion
	lcfg := w.sys.Config.MoLoc
	lcfg.Gate = gate
	q := fingerprint.NewQuery(w.fdb.NumLocs())
	qq := fingerprint.NewQuery(w.fdb.NumLocs())
	var scanUs []float64
	var dst []fingerprint.Candidate
	calls, gated, refusals, quantCalls := 0, 0, 0, 0
	for i, s := range ss {
		if i >= replaySessions {
			break
		}
		ml, err := localizer.NewMoLoc(w.fdb, w.sys.MDB, lcfg)
		if err != nil || ml.UseCompiled(cmp) != nil {
			continue
		}
		stepLen := motion.StepLength(mcfg, s.wk.user.HeightM, s.wk.user.WeightKg)
		var est motion.HeadingEstimator
		for _, st := range s.sent {
			iv := &s.wk.ivs[st.iv]
			fp := fingerprint.Fingerprint(iv.lastScan().RSS)
			t0 := time.Now()
			rlm, ok := motion.Extract(mcfg, iv.samples, iv.end-intervalSec, iv.end, stepLen, &est)
			l.extract = append(l.extract, us(time.Since(t0)))
			obs := localizer.Observation{FP: fp}
			if ok {
				obs.Motion = &rlm
			}
			prior := ml.Candidates()
			if gate && ok && len(prior) > 0 {
				q.ResetMask()
				for _, c := range prior {
					q.MaskLoc(c.Loc)
					lo, hi := cmp.Row(c.Loc)
					for e := lo; e < hi; e++ {
						q.MaskLoc(cmp.Col(e))
					}
				}
				t0 = time.Now()
				dst, _ = w.fdb.CandidatesMaskedAppend(dst[:0], fp, lcfg.K, q)
				scanUs = append(scanUs, us(time.Since(t0)))
			} else {
				t0 = time.Now()
				dst = w.fdb.KNearestAppend(dst[:0], fp, lcfg.K)
				scanUs = append(scanUs, us(time.Since(t0)))
			}
			quantCalls++
			if _, ok := w.fdb.KNearestQuantAppend(dst[:0], fp, lcfg.K, qq); !ok {
				refusals++
			}
			t0 = time.Now()
			ml.Localize(obs)
			l.localize = append(l.localize, us(time.Since(t0)))
			calls++
		}
		gated += ml.GatedScans()
	}
	l.m["motion.extract_us_p50"] = median(l.extract)
	l.m["localizer.localize_us_p50"] = median(l.localize)
	l.m["localizer.localize_us_p99"] = quantile(l.localize, 0.99)
	l.m["fingerprint.scan_us_p50"] = median(scanUs)
	if calls > 0 {
		l.m["localizer.gated_share"] = float64(gated) / float64(calls)
	}
	if quantCalls > 0 {
		l.m["fingerprint.quant_fallback_share"] = float64(refusals) / float64(quantCalls)
	}
}

// serverCounters reads the layers' own counters from two /v1/metricsz
// scrapes taken around the measured phases.
func (l *layers) serverCounters(a, b *metricsz, samp *sampler) {
	l.m["server.pool.shed_total"] = delta(a, b, "pool_shed_total")
	l.m["server.pool.queue_depth_max"] = float64(samp.queueMax)
	ticks, loads := delta(a, b, "paced_ticks"), delta(a, b, "paced_snapshot_loads")
	l.m["server.wheel.ticks"] = ticks
	l.m["server.wheel.snapshot_loads"] = loads
	if loads > 0 {
		l.m["server.wheel.ticks_per_load"] = ticks / loads
	}
	pf := histDelta(a, b, "paced_fix_seconds")
	l.m["server.wheel.fix_us_p50"] = pf.Quantile(0.5) * 1e6
	l.m["server.wheel.fix_us_p99"] = pf.Quantile(0.99) * 1e6
	l.m["server.registry.sessions"] = float64(b.Sessions)
	l.m["server.retrain.count"] = delta(a, b, "retrains")
	l.m["server.retrain.dirty_edges"] = delta(a, b, "retrain_dirty_edges")
	l.m["server.retrain.full_compiles"] = delta(a, b, "retrain_full_compiles")
	l.m["server.retrain.ms_p50"] = histDelta(a, b, "retrain_seconds").Quantile(0.5) * 1e3
	if syncs := float64(b.WALGroupSyncs - a.WALGroupSyncs); syncs > 0 {
		l.m["wal.batches_per_sync"] = float64(b.WALGroupBatches-a.WALGroupBatches) / syncs
	}
	l.m["checkpoint.writes"] = delta(a, b, "checkpoint_writes")
	frames, acks := delta(a, b, "stream_frames"), delta(a, b, "stream_acks")
	l.m["server.stream.frames"] = frames
	l.m["server.stream.acks"] = acks
	if acks > 0 {
		l.m["server.stream.frames_per_ack"] = frames / acks
	}
}

// durableReplays replays the write path's stages on the run's own
// payloads, on the same filesystem as the leader's data directory:
// wal.AppendNoSync + GroupCommitter.WaitDurable under fsync always,
// checkpoint.Save of the motion database, and RecompileEdges over every
// trained pair the run's observations touch.
func (l *layers) durableReplays(w *world, dir string, frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncAlways},
		func(uint64, []byte) error { return nil })
	if err != nil {
		return err
	}
	g := wal.NewGroupCommitter(log)
	var appendUs, fsyncUs []float64
	touched := map[[2]int]bool{}
	for i := 0; i < 300; i++ {
		fr, _, err := wire.DecodeFrame(frames[i%len(frames)], wire.DefaultMaxPayload)
		if err != nil {
			continue
		}
		if obs, err := wire.DecodeObservations(fr.Payload, nil); err == nil {
			for _, o := range obs {
				touched[[2]int{o.From, o.To}] = true
			}
		}
		t0 := time.Now()
		seq, err := log.AppendNoSync(fr.Payload)
		t1 := time.Now()
		if err != nil {
			break
		}
		if err := g.WaitDurable(seq); err != nil {
			break
		}
		appendUs = append(appendUs, us(t1.Sub(t0)))
		fsyncUs = append(fsyncUs, us(time.Since(t1)))
	}
	g.Close()
	if err := log.Close(); err != nil {
		return err
	}
	l.m["wal.append_us_p50"] = median(appendUs)
	l.m["wal.fsync_us_p50"] = median(fsyncUs)
	l.m["wal.fsync_us_p99"] = quantile(fsyncUs, 0.99)

	payload, err := w.sys.MDB.Encode()
	if err != nil {
		return err
	}
	var ckMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if err := checkpoint.Save(fault.Disk{}, filepath.Join(dir, "ckpt"), uint64(i+1), payload); err != nil {
			return err
		}
		ckMs = append(ckMs, ms(time.Since(t0)))
	}
	l.m["checkpoint.write_ms"] = median(ckMs)

	var pairs [][2]int
	for p := range touched {
		pairs = append(pairs, p)
	}
	cfg := w.sys.Config.MoLoc
	base, err := w.sys.MDB.Compile(cfg.Alpha, cfg.Beta)
	if err != nil {
		return err
	}
	var rcMs []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := base.RecompileEdges(w.sys.MDB, pairs); err != nil {
			return err
		}
		rcMs = append(rcMs, ms(time.Since(t0)))
	}
	l.m["motiondb.recompile_ms_p50"] = median(rcMs)
	return nil
}

// reconcileTol is how far the walk-http stage sum may sit from the
// in-server /batch span (as a share of the span) and still count as
// reconciled. The stages are replayed in isolation; what they cannot
// see is net/http request parsing and response writing, routing, the
// instrumentation middleware and the worker-pool hand-off.
const reconcileTol = 0.35

// whereTimeGoes prints the walk-http /batch stage table and records the
// stage sum and the unexplained share.
func (l *layers) whereTimeGoes() string {
	span := l.m["server.http.batch_us_p50"]
	extract, localize := median(l.extract), median(l.localize)
	other := math.Max(0, median(l.tick)-extract-localize)
	stages := []struct {
		name string
		v    float64
	}{
		{"decode (encoding/json request)", l.m["codec.json.batch_decode_us"]},
		{"tracker ingest (AddIMU + AddScan)", median(l.ingestUs)},
		{"motion.Extract (Eq. 5 input)", extract},
		{"localizer.Localize (Eq. 4-7)", localize},
		{"tracker interval close (rest of TickBatch)", other},
		{"encode (encoding/json fixes)", l.m["codec.json.fix_encode_us"]},
	}
	var b strings.Builder
	sum := 0.0
	fmt.Fprintf(&b, "where the time goes: one walk-http /batch (p50 of each stage, us)\n")
	for _, s := range stages {
		sum += s.v
		fmt.Fprintf(&b, "  %-44s %9.2f  %5.1f%%\n", s.name, s.v, 100*s.v/span)
	}
	unexplained := 0.0
	if span > 0 {
		unexplained = (span - sum) / span
	}
	verdict := "reconciles"
	if math.Abs(unexplained) > reconcileTol {
		verdict = "DOES NOT reconcile"
	}
	fmt.Fprintf(&b, "  %-44s %9.2f\n", "stage sum", sum)
	fmt.Fprintf(&b, "  %-44s %9.2f\n", "in-server span (server.http.batch_us_p50)", span)
	fmt.Fprintf(&b, "  unexplained %.1f%% of the span (net/http, routing, middleware, pool hand-off): %s within the %.0f%% tolerance\n",
		100*unexplained, verdict, 100*reconcileTol)
	l.m["stages.sum_us"] = sum
	l.m["stages.unexplained_share"] = unexplained
	return b.String()
}
