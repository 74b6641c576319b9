// Package obs provides the dependency-free observability primitives of
// the serving layer: atomic counters and fixed-bucket latency
// histograms collected in a registry that snapshots to JSON for the
// /v1/metricsz endpoint.
//
// The package deliberately reimplements the tiny subset of a metrics
// library the server needs rather than importing one: counters and
// histograms are lock-free on the hot path (a single atomic add per
// observation), and the registry mutex is only taken on first use of a
// name and on snapshot.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event count, safe for
// concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n, which must be non-negative; negative deltas are ignored
// so a counter can never run backwards.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram accumulates observations into fixed buckets chosen at
// construction. Buckets are cumulative-upper-bound style: counts[i]
// holds observations <= bounds[i], and the final slot holds the
// overflow. Observation is one atomic add; Sum is kept as float64 bits
// under compare-and-swap so mean latency can be derived.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	total  atomic.Int64
	sum    atomic.Uint64 // math.Float64bits
}

// NewHistogram builds a histogram over the given strictly increasing
// upper bounds. It panics on an empty or unsorted bound list, which is
// a programming error (bounds are compile-time constants in practice).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 || !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram bounds must be non-empty and sorted, got %v", bounds))
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Snapshot freezes the histogram for serialization.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.Count(),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistogramSnapshot is the JSON form of a histogram: Counts[i] is the
// number of observations <= Bounds[i]; the final extra slot is the
// overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution by linear interpolation inside the bucket containing the
// target rank: values within a bucket are assumed uniform between its
// lower and upper bound. The overflow bucket has no upper bound, so a
// rank landing there reports the highest finite bound — an estimate
// that is deliberately a lower bound rather than an invention. Returns
// 0 for an empty histogram or an out-of-range q.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || q < 0 || q > 1 || len(s.Bounds) == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, n := range s.Counts {
		next := cum + float64(n)
		if next < rank || n == 0 {
			cum = next
			continue
		}
		hi := s.Bounds[len(s.Bounds)-1]
		lo := 0.0
		if i < len(s.Bounds) {
			hi = s.Bounds[i]
		}
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		if i >= len(s.Bounds) {
			return hi // overflow bucket: report the last finite bound
		}
		return lo + (hi-lo)*(rank-cum)/float64(n)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// LatencyBuckets are the default request-latency bounds in seconds,
// spanning sub-millisecond in-process handling to multi-second stalls.
var LatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// SizeBuckets are the default bounds for small-cardinality size
// distributions such as candidate-set sizes or batch lengths.
var SizeBuckets = []float64{1, 2, 3, 5, 8, 13, 21, 34, 55}

// GaugeFunc reports an instantaneous level (a queue depth, a pool
// size). Gauges are callback-based: nothing is recorded on the hot
// path; the function is evaluated only when the registry snapshots, so
// instrumenting a queue costs its producer nothing. The callback must
// be safe to invoke from any goroutine.
type GaugeFunc func() int64

// Registry is a named collection of counters, histograms, and gauges.
// Metric handles are stable: the pointer returned for a name never
// changes, so callers should look up once and hold the handle on hot
// paths.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	gauges     map[string]GaugeFunc
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		gauges:     make(map[string]GaugeFunc),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it
// with the given bounds on first use. Later calls ignore bounds, so
// concurrent callers always share one instance.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Gauge registers fn under name, replacing any previous registration
// (a re-registered gauge simply reads from the new source).
func (r *Registry) Gauge(name string, fn GaugeFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Snapshot freezes every registered metric. Counters and histograms
// keep accumulating while the snapshot is taken; each individual value
// is atomically read, so the snapshot is per-metric consistent. Gauge
// callbacks are evaluated here, under the registry lock, so they must
// not themselves register metrics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
		Gauges:     make(map[string]int64, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	for name, fn := range r.gauges {
		s.Gauges[name] = fn()
	}
	return s
}

// Snapshot is the JSON form of a registry, served by /v1/metricsz.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
}
