// Command perfbench is the repository's end-to-end serving benchmark: a
// seeded, single-process load generator. It boots the MoLoc server in
// process through internal/server's public API, serves it over real
// loopback TCP, drives one workload over at most two client connections
// (one sender goroutine each), checks every output against an in-process
// reference, and prints one JSON result line.
//
//	perfbench --workload walk-http|city-paced|ingest-replicated \
//	          --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload with a timing handler around the server's HTTP handler, layer
// replays after the run, and /v1/metricsz deltas, and reports the
// per-layer metrics instead. Host facts, per-phase request counts and
// the metric tables go to stderr; the last stdout line is the result.
// The process exits 1 when an output check fails.
//
// Run it through perfbench/run.py, which builds it inside the checkout.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric; the lists below are the
// benchmark's contract and must match BENCHMARK.json.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics. Every workload reports every
// one, each under the same definition (see README.md for how each
// workload maps onto it).
var endToEnd = []metricDef{
	{"fix_p50_ms", "ms"},
	{"fix_error_p50_m", "m"},
	{"write_p50_ms", "ms"},
	{"capacity_per_s", "1/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer the workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	var ds []metricDef
	for _, r := range httpRoutes {
		ds = append(ds, metricDef{"server.http." + r + "_us_p50", "us"}, metricDef{"server.http." + r + "_us_p99", "us"})
	}
	return append(ds, []metricDef{
		{"transport.http.overhead_us_p50", "us"},
		{"codec.json.batch_decode_us", "us"},
		{"codec.json.fix_encode_us", "us"},
		{"codec.json.obs_decode_us", "us"},
		{"codec.wire.frame_decode_ns", "ns"},
		{"codec.wire.obs_decode_ns", "ns"},
		{"server.pool.shed_total", "count"},
		{"server.pool.queue_depth_max", "count"},
		{"server.wheel.ticks", "count"},
		{"server.wheel.snapshot_loads", "count"},
		{"server.wheel.ticks_per_load", "ratio"},
		{"server.wheel.tick_share", "ratio"},
		{"server.wheel.fix_us_p50", "us"},
		{"server.wheel.fix_us_p99", "us"},
		{"server.registry.sessions", "count"},
		{"tracker.add_imu_ns", "ns"},
		{"tracker.add_scan_ns", "ns"},
		{"tracker.tick_us_p50", "us"},
		{"tracker.tick_us_p99", "us"},
		{"tracker.intervals_closed", "count"},
		{"tracker.no_scan_intervals", "count"},
		{"tracker.snapshot_swaps", "count"},
		{"motion.extract_us_p50", "us"},
		{"localizer.localize_us_p50", "us"},
		{"localizer.localize_us_p99", "us"},
		{"localizer.gated_share", "ratio"},
		{"fingerprint.scan_us_p50", "us"},
		{"fingerprint.quant_fallback_share", "ratio"},
		{"motiondb.recompile_ms_p50", "ms"},
		{"server.retrain.count", "count"},
		{"server.retrain.dirty_edges", "count"},
		{"server.retrain.full_compiles", "count"},
		{"server.retrain.ms_p50", "ms"},
		{"wal.append_us_p50", "us"},
		{"wal.fsync_us_p50", "us"},
		{"wal.fsync_us_p99", "us"},
		{"wal.batches_per_sync", "ratio"},
		{"checkpoint.writes", "count"},
		{"checkpoint.write_ms", "ms"},
		{"server.stream.frames", "count"},
		{"server.stream.acks", "count"},
		{"server.stream.frames_per_ack", "ratio"},
		{"server.stream.tick_ms_p95", "ms"},
		{"replica.applied_records", "count"},
		{"replica.lag_records_max", "count"},
		{"replica.lag_ms_p99", "ms"},
		{"runtime.gc_pause_p99_us", "us"},
		{"runtime.gc_cycles", "count"},
		{"runtime.heap_live_mb", "MB"},
		{"loadgen.late_p99_ms", "ms"},
		{"loadgen.sent", "count"},
		{"loadgen.capacity_raw_per_s", "1/s"},
		{"loadgen.probe_per_s", "1/s"},
		{"stages.sum_us", "us"},
		{"stages.unexplained_share", "ratio"},
	}...)
}()

// httpRoutes are the API routes the timing handler attributes spans to.
var httpRoutes = []string{"batch", "tick", "imu", "scan", "get", "observations", "create"}

// runCfg is one invocation's settings.
type runCfg struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

// phaseCount is one phase's request tally, shared by both senders.
type phaseCount struct {
	name             string
	note             string
	elapsed          time.Duration
	mu               sync.Mutex
	sent, ok, failed int64
	late             []float64 // generator lateness, ms (open-loop phases)
}

// outcome is what a workload hands back to main.
type outcome struct {
	phases   []*phaseCount
	checks   []check
	e2e      map[string]float64
	layers   map[string]float64
	tables   []string // extra human-readable tables (stderr)
	setupRun []float64
	capacity capResult // the closed-loop phase
}

// check is one output verification.
type check struct {
	name string
	ok   bool
	note string
}

func (o *outcome) check(name string, ok bool, format string, args ...interface{}) {
	o.checks = append(o.checks, check{name: name, ok: ok, note: fmt.Sprintf(format, args...)})
}

func (o *outcome) phase(name string) *phaseCount {
	p := &phaseCount{name: name}
	o.phases = append(o.phases, p)
	return p
}

var workloads = map[string]func(runCfg) (*outcome, error){
	"walk-http":         runWalkHTTP,
	"city-paced":        runCityPaced,
	"ingest-replicated": runIngest,
}

func main() {
	var (
		cfg   runCfg
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "walk-http, city-paced, or ingest-replicated")
	flag.Int64Var(&cfg.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "measured seconds (split across the workload's phases)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for durable state")
	flag.Parse()
	cfg.trace = trace == 1
	fn, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	hostFacts()
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := report(cfg, out)
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(enc))
	if !res.Correct {
		os.Exit(1)
	}
}

// hostFacts prints the facts every result must travel with: numbers
// from different hosts are not comparable.
func hostFacts() {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		//lint:ignore errdrop read-only file
		_ = f.Close()
	}
	fmt.Fprintf(os.Stderr, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the human tables and assembles the result line.
func report(cfg runCfg, out *outcome) result {
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	w := os.Stderr
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "%-22s %9s %9s %7s %9s  %s\n", "phase", "sent", "ok", "failed", "elapsed", "note")
	var late []float64
	for _, p := range out.phases {
		res.Attempted += p.sent
		res.Failed += p.failed
		late = append(late, p.late...)
		fmt.Fprintf(w, "%-22s %9d %9d %7d %8.2fs  %s\n", p.name, p.sent, p.ok, p.failed, p.elapsed.Seconds(), p.note)
	}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Correct = false
	}
	lateP99 := quantile(late, 0.99)
	valid := "yes"
	if lateP99 > lateBoundMs {
		valid = "NO: the generator, not the server, set part of the latency"
	}
	fmt.Fprintf(w, "loadgen lateness p50 %.3f ms, p99 %.3f ms over %d open-loop sends (validity bound %.0f ms at p99): %s\n",
		median(late), lateP99, len(late), lateBoundMs, valid)
	if out.layers != nil {
		out.layers["loadgen.late_p99_ms"] = lateP99
		out.layers["loadgen.sent"] = float64(res.Attempted)
		out.layers["loadgen.capacity_raw_per_s"] = out.capacity.raw()
		out.layers["loadgen.probe_per_s"] = out.capacity.probe
	}
	for _, c := range out.checks {
		mark := "ok  "
		if !c.ok {
			mark = "FAIL"
			res.Correct = false
		}
		fmt.Fprintf(w, "check %s %-34s %s\n", mark, c.name, c.note)
	}
	for _, t := range out.tables {
		fmt.Fprint(w, t)
	}
	fmt.Fprintf(w, "setup runs (s): %v\n", fmtFloats(out.setupRun))
	emit := func(defs []metricDef, vals map[string]float64, title string, into map[string]metricValue) {
		fmt.Fprintf(w, "%s\n", title)
		for _, d := range defs {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			into[d.name] = metricValue{Value: v, Unit: d.unit}
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", d.name, v, d.unit)
		}
	}
	if cfg.trace {
		// The end-to-end table is printed on traced runs too (stderr
		// only): traced minus untraced medians is the tracing overhead.
		emit(endToEnd, out.e2e, "end-to-end (traced; compare with untraced runs for the overhead)", map[string]metricValue{})
		emit(perLayer, out.layers, "per-layer", res.Metrics)
	} else {
		emit(endToEnd, out.e2e, "end-to-end", res.Metrics)
	}
	return res
}

// lateBoundMs is the generator-validity bound: when the sender itself
// ran later than this at p99 (measured from when the connection was free
// and the request due), the latency figures partly measure the client.
const lateBoundMs = 5.0

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
