// Command molocsim runs the full MoLoc pipeline end to end on a chosen
// floor plan and prints the headline comparison between MoLoc and the
// WiFi fingerprinting baseline, per AP count.
//
// Usage:
//
//	molocsim [-seed N] [-plan office|mall|museum] [-train N] [-test N] [-aps list]
//
// With -stream, molocsim instead acts as a fleet load generator: it
// opens -streams persistent binary connections (internal/wire) to a
// running molocd's -stream-addr listener and pushes jittered
// crowdsourced observation batches at it, reporting throughput. The
// target server must have been built from the same plan and seed:
//
//	molocsim -stream localhost:8081 -streams 16 -batches 200
//
// With -sessions, molocsim runs the city-scale serving load instead
// (Scalability/sessions_100k): it creates N server-paced tracking
// sessions ({"paced":true}) against a running molocd's HTTP API, feeds
// them WiFi scans from -feeders concurrent connections for -load-for,
// and reports fixes/sec plus p50/p99 fix latency from the server's
// paced_fix_seconds histogram (sweep start → fix produced), alongside the
// paced-tick : snapshot-load amortization ratio. A scan the server sheds
// (503 + Retry-After, its worker queue full) is counted as client_shed
// and resent on the feeder's next round; any other non-202 is fatal. The target must be
// built from the same plan and seed and run with -paced-capable limits:
//
//	molocd -max-sessions 120000 &
//	molocsim -sessions 100000 -api localhost:8080 -load-for 20s
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moloc/internal/core"
	"moloc/internal/eval"
	"moloc/internal/floorplan"
	"moloc/internal/geom"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/obs"
	"moloc/internal/stats"
	"moloc/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "molocsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		seed     = flag.Int64("seed", 3, "experiment seed")
		planName = flag.String("plan", "office", "floor plan: office, mall, or museum")
		train    = flag.Int("train", 150, "number of training traces")
		test     = flag.Int("test", 34, "number of test traces")
		apCounts = flag.String("aps", "4,5,6", "comma-separated AP counts to evaluate")
		export   = flag.String("export", "", "directory to export the full-AP deployment bundle to")
		stream   = flag.String("stream", "", "molocd stream listener (host:port); run a fleet observation load instead of the offline evaluation")
		streams  = flag.Int("streams", 8, "concurrent stream connections in -stream mode")
		batches  = flag.Int("batches", 200, "observation batches per stream in -stream mode")
		batchLen = flag.Int("batch-size", 64, "observations per batch in -stream mode")
		sessions = flag.Int("sessions", 0, "city-scale serving load: create N server-paced sessions against -api and report fixes/sec + fix-latency percentiles")
		api      = flag.String("api", "localhost:8080", "molocd HTTP API address in -sessions mode")
		feeders  = flag.Int("feeders", 64, "concurrent feeder connections in -sessions mode")
		loadFor  = flag.Duration("load-for", 15*time.Second, "scan-feeding measurement window in -sessions mode")
	)
	flag.Parse()

	cfg := core.NewConfig()
	cfg.Seed = *seed
	cfg.NumTrainTraces = *train
	cfg.NumTestTraces = *test
	switch *planName {
	case "office":
		// defaults
	case "mall":
		cfg.Plan = floorplan.Mall()
		cfg.AdjDist = floorplan.MallAdjDist
	case "museum":
		cfg.Plan = floorplan.Museum()
		cfg.AdjDist = floorplan.MuseumAdjDist
	default:
		return fmt.Errorf("unknown plan %q", *planName)
	}

	sys, err := core.Build(cfg)
	if err != nil {
		return err
	}
	if *stream != "" {
		return streamLoad(sys, *stream, *streams, *batches, *batchLen)
	}
	if *sessions > 0 {
		return sessionLoad(sys, *api, *sessions, *feeders, *loadFor)
	}
	fmt.Printf("plan=%s locations=%d aps=%d train=%d test=%d seed=%d\n",
		sys.Plan.Name, sys.Plan.NumLocs(), sys.Model.NumAPs(),
		len(sys.TrainTraces), len(sys.TestTraces), cfg.Seed)

	counts, err := parseCounts(*apCounts, sys.Model.NumAPs())
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-10s %9s %9s %9s %9s\n",
		"setting", "method", "accuracy", "mean(m)", "p50(m)", "max(m)")
	for _, n := range counts {
		dep, err := sys.Deploy(sys.AllAPs()[:n])
		if err != nil {
			return err
		}
		ml, err := dep.NewMoLoc()
		if err != nil {
			return err
		}
		for _, pair := range []struct {
			name string
			sum  eval.Summary
		}{
			{"WiFi", eval.Summarize(dep.Evaluate(dep.NewWiFi()))},
			{"MoLoc", eval.Summarize(dep.Evaluate(ml))},
		} {
			fmt.Printf("%-8s %-10s %8.1f%% %9.2f %9.2f %9.2f\n",
				fmt.Sprintf("%d-AP", n), pair.name,
				pair.sum.Accuracy*100, pair.sum.MeanErr,
				pair.sum.CDF.Median(), pair.sum.MaxErr)
		}
	}
	dirErrs, offErrs := sys.MotionDBErrors()
	fmt.Printf("motion-db entries=%d dir-med=%.1fdeg off-med=%.2fm\n",
		sys.MDB.NumEntries(), median(dirErrs), median(offErrs))

	if *export != "" {
		dep, err := sys.Deploy(sys.AllAPs())
		if err != nil {
			return err
		}
		if err := dep.SaveBundle(*export); err != nil {
			return err
		}
		fmt.Printf("deployment bundle exported to %s (serve with: molocd -bundle %s)\n",
			*export, *export)
	}
	return nil
}

// streamLoad drives a fleet of observation streams at a running molocd:
// each worker owns one persistent wire connection and pushes jittered
// ground-truth observations for the deployment's trained pairs. It is
// the load half of the streaming-ingest benchmark run against a real
// process (EXPERIMENTS.md), and it exercises the exact client path the
// phones use — binary frames, cumulative acks, redial with resume.
func streamLoad(sys *core.System, addr string, streams, batches, batchLen int) error {
	pairs := sys.MDB.Pairs()
	if len(pairs) == 0 {
		return errors.New("motion database has no trained pairs to observe")
	}
	if streams < 1 || batches < 1 || batchLen < 1 {
		return fmt.Errorf("streams (%d), batches (%d), and batch-size (%d) must all be >= 1",
			streams, batches, batchLen)
	}
	var (
		wg      sync.WaitGroup
		sent    atomic.Int64
		resumes atomic.Int64
		errs    = make(chan error, streams)
	)
	start := time.Now()
	for w := 0; w < streams; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.DialStream(addr, fmt.Sprintf("molocsim-%d", w), wire.ClientOptions{
				RedialAttempts: 10,
				RedialWait:     100 * time.Millisecond,
			})
			if err != nil {
				errs <- fmt.Errorf("stream %d: dial %s: %w", w, addr, err)
				return
			}
			defer func() {
				_ = c.Close() // every batch is already acked by WaitAcked below
			}()
			rng := stats.NewRNG(stats.HashSeed("molocsim-stream", fmt.Sprint(w)))
			obs := make([]motiondb.Observation, batchLen)
			for b := 0; b < batches; b++ {
				pair := pairs[(w+b)%len(pairs)]
				gtDir, gtOff := floorplan.GroundTruthRLM(sys.Plan, pair[0], pair[1])
				for k := range obs {
					obs[k] = motiondb.Observation{
						From: pair[0], To: pair[1],
						RLM: motion.RLM{
							Dir: geom.NormalizeDeg(gtDir + rng.Uniform(-2, 2)),
							Off: gtOff + rng.Uniform(0, 0.3),
						},
					}
				}
				if err := c.SendObservations(obs); err != nil {
					errs <- fmt.Errorf("stream %d: batch %d: %w", w, b, err)
					return
				}
				sent.Add(int64(batchLen))
			}
			if err := c.WaitAcked(); err != nil {
				errs <- fmt.Errorf("stream %d: wait acked: %w", w, err)
				return
			}
			resumes.Add(int64(c.Resumes()))
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	elapsed := time.Since(start)
	total := sent.Load()
	fmt.Printf("streamed %d observations (%d batches of %d over %d streams) in %v: %.0f obs/s, %d resumes\n",
		total, streams*batches, batchLen, streams, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), resumes.Load())
	return nil
}

// metricsSnap is the subset of /v1/metricsz molocsim consumes: the
// session gauge plus the embedded obs registry snapshot whose counter
// deltas and histogram-bucket deltas the load report is computed from.
type metricsSnap struct {
	Sessions int `json:"sessions"`
	obs.Snapshot
}

// sessionLoad is the city-scale serving experiment
// (Scalability/sessions_N): create n server-paced sessions over the
// HTTP API, feed them WiFi scans sampled from the deployment's own
// radio model, and report fix throughput and latency percentiles from
// the server's metrics deltas. The sessions all sit on molocd's paced
// lists for the whole window — every sweep scans all of them, while
// fixes flow for the sessions receiving scans.
func sessionLoad(sys *core.System, api string, n, feeders int, dur time.Duration) error {
	if n < 1 || feeders < 1 {
		return fmt.Errorf("sessions (%d) and feeders (%d) must be >= 1", n, feeders)
	}
	if feeders > n {
		feeders = n
	}
	base := api
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        feeders * 2,
			MaxIdleConnsPerHost: feeders * 2,
		},
		Timeout: 30 * time.Second,
	}

	// One representative scan per reference location, sampled from the
	// same radio model the server's radio map was surveyed with.
	rng := stats.NewRNG(stats.HashSeed("molocsim-sessions"))
	locScans := make([][]float64, sys.Plan.NumLocs())
	for i := range locScans {
		locScans[i] = sys.Model.Sample(sys.Plan.LocPos(i+1), rng) // reference IDs are 1-based
	}

	// Phase 1: create n paced sessions.
	ids := make([]string, n)
	errs := make(chan error, feeders)
	var wg sync.WaitGroup
	start := time.Now()
	for f := 0; f < feeders; f++ {
		lo, hi := n*f/feeders, n*(f+1)/feeders
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				id, err := createPaced(client, base)
				if err != nil {
					errs <- fmt.Errorf("create session %d: %w", i, err)
					return
				}
				ids[i] = id
			}
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	created := time.Since(start)
	fmt.Printf("created %d paced sessions in %v (%.0f/s)\n",
		n, created.Round(time.Millisecond), float64(n)/created.Seconds())

	before, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}

	// Phase 2: feed scans for the measurement window. Each feeder owns
	// a disjoint slice of sessions and cycles it, advancing every
	// session's clock one localization interval per scan — so every
	// scan closes one interval, which the server's paced sweep turns
	// into one fix at the session's next deadline.
	reg := obs.NewRegistry()
	reqHist := reg.Histogram("scan_request_seconds", obs.LatencyBuckets)
	var scansSent, clientShed atomic.Int64
	deadline := time.Now().Add(dur)
	for f := 0; f < feeders; f++ {
		lo, hi := n*f/feeders, n*(f+1)/feeders
		wg.Add(1)
		go func(f, lo, hi int) {
			defer wg.Done()
			ts := make([]float64, hi-lo)
			var body bytes.Buffer
			for i := lo; time.Now().Before(deadline); i++ {
				if i >= hi {
					i = lo
				}
				loc := i % len(locScans)
				body.Reset()
				fmt.Fprintf(&body, `{"t":%g,"rss":[`, ts[i-lo])
				for k, v := range locScans[loc] {
					if k > 0 {
						body.WriteByte(',')
					}
					fmt.Fprintf(&body, "%.2f", v)
				}
				body.WriteString("]}")
				t0 := time.Now()
				resp, err := client.Post(base+"/v1/sessions/"+ids[i]+"/scan",
					"application/json", bytes.NewReader(body.Bytes()))
				if err != nil {
					errs <- fmt.Errorf("feeder %d: scan: %w", f, err)
					return
				}
				//lint:ignore errdrop the drain is best-effort connection reuse; the status code below is the signal
				_, _ = io.Copy(io.Discard, resp.Body)
				//lint:ignore errdrop a close error on a drained body adds nothing to the status check below
				_ = resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" {
					// The session's worker queue was full: the scan was
					// shed (only a shed 503 carries Retry-After; shutting
					// down or a degraded server stays fatal). Keep the
					// session's clock, so the next round resends the same
					// interval.
					clientShed.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("feeder %d: scan on %s: HTTP %d", f, ids[i], resp.StatusCode)
					return
				}
				reqHist.Observe(time.Since(t0).Seconds())
				ts[i-lo] += 3 // one localization interval per scan
				scansSent.Add(1)
			}
		}(f, lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	// Let the sweeps drain the last intervals before the closing scrape.
	time.Sleep(1500 * time.Millisecond)
	after, err := scrapeMetrics(client, base)
	if err != nil {
		return err
	}

	counter := func(name string) int64 { return after.Counters[name] - before.Counters[name] }
	fixes := counter("fixes{mode=moloc}") + counter("fixes{mode=fingerprint}")
	ticks := counter("paced_ticks")
	loads := counter("paced_snapshot_loads")
	shed := counter("pool_shed_total")
	fixHist := histDelta(before.Histograms["paced_fix_seconds"], after.Histograms["paced_fix_seconds"])
	reqSnap := reg.Snapshot().Histograms["scan_request_seconds"]

	label := fmt.Sprintf("Scalability/sessions_%s", countLabel(n))
	fmt.Printf("%s: %d live paced sessions (paced_scheduled=%d)\n",
		label, after.Sessions, after.Gauges["paced_scheduled"])
	fmt.Printf("%s: %.0f scans/s in, %.0f fixes/s out over %v (%d fixes, %d paced ticks, shed=%d, client_shed=%d)\n",
		label, float64(scansSent.Load())/dur.Seconds(), float64(fixes)/dur.Seconds(),
		dur, fixes, ticks, shed, clientShed.Load())
	if loads > 0 {
		fmt.Printf("%s: snapshot loads amortized %.1fx (%d ticks / %d sweep loads)\n",
			label, float64(ticks)/float64(loads), ticks, loads)
	}
	fmt.Printf("%s: fix latency p50=%.2fms p99=%.2fms (sweep start -> fix, server-side)\n",
		label, fixHist.Quantile(0.5)*1e3, fixHist.Quantile(0.99)*1e3)
	fmt.Printf("%s: scan request p50=%.2fms p99=%.2fms (client-side HTTP)\n",
		label, reqSnap.Quantile(0.5)*1e3, reqSnap.Quantile(0.99)*1e3)
	return nil
}

// createPaced creates one server-paced session and returns its id.
func createPaced(client *http.Client, base string) (string, error) {
	resp, err := client.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"height_m":1.7,"weight_kg":65,"paced":true}`))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		//lint:ignore errdrop the body is best-effort context for the HTTP error already being returned
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("HTTP %d: %s", resp.StatusCode, b)
	}
	var cr struct {
		SessionID string `json:"session_id"`
		Paced     bool   `json:"paced"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return "", err
	}
	if !cr.Paced {
		return "", errors.New("server did not acknowledge pacing (paced=false)")
	}
	return cr.SessionID, nil
}

// scrapeMetrics fetches and decodes /v1/metricsz.
func scrapeMetrics(client *http.Client, base string) (*metricsSnap, error) {
	resp, err := client.Get(base + "/v1/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m metricsSnap
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decode /v1/metricsz: %w", err)
	}
	return &m, nil
}

// histDelta subtracts two cumulative histogram snapshots of the same
// metric, yielding the distribution observed between the scrapes.
func histDelta(before, after obs.HistogramSnapshot) obs.HistogramSnapshot {
	d := obs.HistogramSnapshot{
		Bounds: after.Bounds,
		Counts: make([]int64, len(after.Counts)),
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
	}
	for i := range after.Counts {
		d.Counts[i] = after.Counts[i]
		if i < len(before.Counts) {
			d.Counts[i] -= before.Counts[i]
		}
	}
	return d
}

// countLabel compresses a session count for the report label
// (100000 -> "100k").
func countLabel(n int) string {
	if n%1000 == 0 && n >= 1000 {
		return fmt.Sprintf("%dk", n/1000)
	}
	return strconv.Itoa(n)
}

func parseCounts(s string, maxAPs int) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad AP count %q: %w", p, err)
		}
		if n < 1 || n > maxAPs {
			return nil, fmt.Errorf("AP count %d out of range [1,%d]", n, maxAPs)
		}
		out = append(out, n)
	}
	return out, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
