package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"moloc/internal/obs"
	"moloc/internal/server"
)

// lane is one client connection: an HTTP client pinned to a single
// keep-alive TCP connection, driven by exactly one sender goroutine.
type lane struct {
	base string
	tr   *http.Transport
	cl   *http.Client
}

func newLane(base string) *lane {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &lane{base: base, tr: tr, cl: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// do sends one request and reads the whole response body.
func (l *lane) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, l.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.cl.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, out, err
}

func (l *lane) close() { l.tr.CloseIdleConnections() }

// createSession opens a tracking session for a user profile.
func (l *lane) createSession(heightM, weightKg float64) (string, error) {
	body, err := json.Marshal(map[string]float64{"height_m": heightM, "weight_kg": weightKg})
	if err != nil {
		return "", err
	}
	st, resp, err := l.do(http.MethodPost, "/v1/sessions", body)
	if err != nil {
		return "", err
	}
	if st != http.StatusCreated {
		return "", fmt.Errorf("create session: status %d: %s", st, resp)
	}
	var cr struct {
		SessionID string `json:"session_id"`
	}
	if err := json.Unmarshal(resp, &cr); err != nil {
		return "", err
	}
	return cr.SessionID, nil
}

// host serves one server in process on loopback listeners.
type host struct {
	srv        *server.Server
	hs         *http.Server
	base       string
	served     chan error
	streamAddr string
	streamDone chan error
}

// serve starts srv's background loops, its HTTP API (wrapped by spans
// when tracing) and, when stream is set, its binary stream listener.
func serve(srv *server.Server, spans *spanRec, stream bool) (*host, error) {
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	h := srv.Handler()
	if spans != nil {
		h = spans.wrap(h)
	}
	hs := &http.Server{Handler: h}
	hst := &host{srv: srv, hs: hs, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { hst.served <- hs.Serve(ln) }()
	if stream {
		sln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			hst.close()
			return nil, err
		}
		hst.streamAddr = sln.Addr().String()
		hst.streamDone = make(chan error, 1)
		go func() { hst.streamDone <- srv.ServeStreams(sln) }()
	}
	return hst, nil
}

// close stops the HTTP server, the server (which closes its stream
// listeners), and waits for every serving goroutine to return.
func (h *host) close() {
	//lint:ignore errdrop the listener is being torn down; Serve's return is awaited next
	_ = h.hs.Close()
	<-h.served
	h.srv.Close()
	if h.streamDone != nil {
		<-h.streamDone
	}
}

// spanRec is the traced run's timing handler: it wraps the server's
// public handler and records each request's in-server span by route.
type spanRec struct {
	mu sync.Mutex
	by map[string][]float64 // route -> microseconds
}

func newSpanRec() *spanRec { return &spanRec{by: map[string][]float64{}} }

func (s *spanRec) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if route := routeOf(r); route != "" {
			s.mu.Lock()
			s.by[route] = append(s.by[route], us(d))
			s.mu.Unlock()
		}
	})
}

func (s *spanRec) get(route string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.by[route]...)
}

// routeOf names the API route of a request (empty for admin routes).
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method == http.MethodPost && p == "/v1/sessions":
		return "create"
	case r.Method == http.MethodPost && p == "/v1/observations":
		return "observations"
	case r.Method == http.MethodGet && strings.HasPrefix(p, "/v1/sessions/"):
		return "get"
	case r.Method == http.MethodPost && strings.HasPrefix(p, "/v1/sessions/"):
		return p[strings.LastIndexByte(p, '/')+1:]
	}
	return ""
}

// metricsz is the /v1/metricsz payload.
type metricsz struct {
	Sessions        int                              `json:"sessions"`
	WALGroupSyncs   uint64                           `json:"wal_group_syncs"`
	WALGroupBatches uint64                           `json:"wal_group_batches"`
	Counters        map[string]int64                 `json:"counters"`
	Histograms      map[string]obs.HistogramSnapshot `json:"histograms"`
	Gauges          map[string]int64                 `json:"gauges"`
}

func (l *lane) metricsz() (*metricsz, error) {
	st, body, err := l.do(http.MethodGet, "/v1/metricsz", nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("metricsz: status %d", st)
	}
	var m metricsz
	return &m, json.Unmarshal(body, &m)
}

// delta is the counter's growth between two scrapes.
func delta(a, b *metricsz, name string) float64 {
	return float64(b.Counters[name] - a.Counters[name])
}

// histDelta is the histogram of the observations made between scrapes.
func histDelta(a, b *metricsz, name string) obs.HistogramSnapshot {
	hb := b.Histograms[name]
	ha, ok := a.Histograms[name]
	out := obs.HistogramSnapshot{Bounds: hb.Bounds, Counts: append([]int64(nil), hb.Counts...), Count: hb.Count, Sum: hb.Sum}
	if ok && len(ha.Counts) == len(hb.Counts) {
		for i := range out.Counts {
			out.Counts[i] -= ha.Counts[i]
		}
		out.Count -= ha.Count
		out.Sum -= ha.Sum
	}
	return out
}

// sampler polls process RSS (and, when traced, the server's worker
// queue-depth gauges) on a fixed period until stopped.
type sampler struct {
	stop, done chan struct{}
	rssPeak    int64
	queueMax   int64
	start      time.Time
	cpu0       time.Duration
	// cpuShare is the process's CPU time over the sampled span as a share
	// of every CPU's wall time, set by finish.
	cpuShare float64
}

func startSampler(srv *server.Server) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now(), cpu0: cpuTime()}
	go func() {
		defer close(s.done)
		tk := time.NewTicker(25 * time.Millisecond)
		defer tk.Stop()
		for {
			if r := rssBytes(); r > s.rssPeak {
				s.rssPeak = r
			}
			if srv != nil {
				for name, v := range srv.Metrics().Snapshot().Gauges {
					if strings.HasPrefix(name, "worker_queue_depth") && v > s.queueMax {
						s.queueMax = v
					}
				}
			}
			select {
			case <-s.stop:
				return
			case <-tk.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak RSS in MB.
func (s *sampler) finish() float64 {
	close(s.stop)
	<-s.done
	s.cpuShare = float64(cpuTime()-s.cpu0) / float64(time.Since(s.start)) / float64(runtime.NumCPU())
	return float64(s.rssPeak) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssBytes reads the process's resident set from /proc/self/statm.
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// settle drops the garbage of earlier set-ups so the measured phases
// start from the live heap alone.
func settle() {
	runtime.GC()
	runtime.GC()
}

// rtStats is a runtime/metrics snapshot: GC pause histogram, GC cycle
// count and live heap. Process-wide: client and server share it.
type rtStats struct {
	pauses *metrics.Float64Histogram
	cycles uint64
	live   uint64
}

var rtNames = []string{"/sched/pauses/total/gc:seconds", "/gc/cycles/total:gc-cycles", "/gc/heap/live:bytes"}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out rtStats
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[0].Value.Float64Histogram()
		out.pauses = &metrics.Float64Histogram{Counts: append([]uint64(nil), h.Counts...), Buckets: h.Buckets}
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.cycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.live = s[2].Value.Uint64()
	}
	return out
}

// runtimeLayers reports GC behaviour between two snapshots.
func runtimeLayers(a, b rtStats, into map[string]float64) {
	into["runtime.gc_cycles"] = float64(b.cycles - a.cycles)
	into["runtime.heap_live_mb"] = float64(b.live) / (1 << 20)
	if a.pauses == nil || b.pauses == nil || len(a.pauses.Counts) != len(b.pauses.Counts) {
		return
	}
	var total uint64
	counts := make([]uint64, len(b.pauses.Counts))
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return
	}
	rank := uint64(float64(total)*0.99 + 0.5)
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			into["runtime.gc_pause_p99_us"] = b.pauses.Buckets[i+1] * 1e6
			return
		}
	}
}

func (p *phaseCount) add(ok bool) {
	p.mu.Lock()
	p.sent++
	if ok {
		p.ok++
	} else {
		p.failed++
	}
	p.mu.Unlock()
}

func (p *phaseCount) addLate(v float64) {
	p.mu.Lock()
	p.late = append(p.late, v)
	p.mu.Unlock()
}

// samples is a mutex-guarded sample shared by the senders: each value
// with the time it is filed under (an open-loop operation's due time).
type samples struct {
	mu sync.Mutex
	at []time.Time
	v  []float64
}

func (s *samples) add(at time.Time, x float64) {
	s.mu.Lock()
	s.at = append(s.at, at)
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) all() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// statWindow is the window the latency statistics are taken over: a
// quantile is the median, across the phase's windows, of the quantile
// within each window, so a burst of CPU steal or one long pause moves
// one window, not the run's figure. Ingest-replicated retrains once per
// window, so every window holds one retrain and one checkpoint.
const statWindow = time.Second

// minWindowN is the fewest samples a window needs to count.
const minWindowN = 20

// windowedQ is the median over statWindow windows (from start) of the
// q-quantile of the samples filed in each; the plain quantile when no
// window has minWindowN samples.
func windowedQ(ss []*samples, start time.Time, q float64) float64 {
	byW := map[int][]float64{}
	var all []float64
	for _, s := range ss {
		s.mu.Lock()
		for i, v := range s.v {
			w := int(s.at[i].Sub(start) / statWindow)
			byW[w] = append(byW[w], v)
			all = append(all, v)
		}
		s.mu.Unlock()
	}
	var per []float64
	for _, vs := range byW {
		if len(vs) >= minWindowN {
			per = append(per, quantile(vs, q))
		}
	}
	if len(per) == 0 {
		return quantile(all, q)
	}
	return median(per)
}

// latencies sets fix_p50_ms and write_p50_ms from open-loop samples
// filed from start; fixQ computes the fix quantiles. The tails are
// printed, not reported as metrics: on a shared 2-vCPU host a busy
// neighbour moved even the windowed p90 threefold between runs.
func latencies(out *outcome, fix, write []*samples, start time.Time, fixQ func([]*samples, time.Time, float64) float64) {
	out.e2e["fix_p50_ms"] = fixQ(fix, start, 0.5)
	out.e2e["write_p50_ms"] = windowedQ(write, start, 0.5)
	out.tables = append(out.tables, fmt.Sprintf("tails (printed only), ms: fix p90 %.4f p95 %.4f p99 %.4f; write p90 %.4f p95 %.4f p99 %.4f\n",
		fixQ(fix, start, 0.9), fixQ(fix, start, 0.95), fixQ(fix, start, 0.99),
		windowedQ(write, start, 0.9), windowedQ(write, start, 0.95), windowedQ(write, start, 0.99)))
}

// wholeQ is the plain q-quantile of every sample, for fix ages, whose
// due times are stratified by design (see city-paced) and so must not
// be split into windows.
func wholeQ(ss []*samples, _ time.Time, q float64) float64 {
	var all []float64
	for _, s := range ss {
		all = append(all, s.all()...)
	}
	return quantile(all, q)
}

// op is one open-loop operation, due at an offset from phase start.
// run sends it and reports success; it times itself from due.
type op struct {
	due time.Duration
	run func(due time.Time) bool
}

// openLoop sends ops in due order from the calling goroutine, sleeping
// until each is due and never waiting for the schedule to catch up: a
// stalled response makes later requests late, and their latency counts
// from when they were due. Generator lateness (send time minus the
// later of due and connection-free) goes to the phase.
func openLoop(start time.Time, ops []op, pc *phaseCount) {
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	free := start
	for _, o := range ops {
		due := start.Add(o.due)
		sleepUntil(due)
		ready := due
		if free.After(ready) {
			ready = free
		}
		pc.addLate(ms(time.Since(ready)))
		pc.add(o.run(due))
		free = time.Now()
	}
}

// sleepUntil wakes close to t. Runtime timers wake on the network
// poller's millisecond granularity, which would add about half a
// millisecond of generator lateness to every open-loop request; the
// last stretch is therefore slept with nanosleep(2) on the sender's own
// thread.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d > 2*time.Millisecond {
		time.Sleep(d - 2*time.Millisecond)
		d = time.Until(t)
	}
	if d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		//lint:ignore errdrop an interrupted sleep only wakes the sender early; lateness is measured
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// both runs one function per lane concurrently and waits for both.
func both(fn func(li int)) {
	var wg sync.WaitGroup
	for li := 0; li < 2; li++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			fn(li)
		}(li)
	}
	wg.Wait()
}
