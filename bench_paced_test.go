// City-scale serving benchmarks (PR 9): the striped session registry
// under concurrent lookups (BenchmarkSessionShards) and the
// server-paced sweeps' throughput (BenchmarkTickWheel).
// Pinned in BENCH_PR9.json; `make bench-diff` gates them against the
// previous PR's artifact.
package moloc_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"moloc/internal/server"
)

// benchClock is a hand-advanced clock for driving the paced sweeps
// deterministically from a benchmark loop.
type benchClock struct {
	mu  sync.Mutex
	now time.Time
}

func newBenchClock() *benchClock {
	return &benchClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *benchClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *benchClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// pacedBenchServer builds a server over the shared stream fixture with
// n sessions created through the API (paced when paced is set), each
// fed one scan so its tracker has an interval to close. Returns the
// server, its handler, and the session ids.
func pacedBenchServer(b *testing.B, o server.Options, n int, paced bool) (*server.Server, http.Handler, []string) {
	b.Helper()
	sys, src := streamBenchSys(b)
	o.MaxSessions = n + 1
	srv, err := server.NewWithOptions(sys.Plan, src, sys.Model.NumAPs(), sys.MDB, sys.Config.Motion, o)
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Handler()

	var rssB strings.Builder
	rssB.WriteString("[")
	for i := 0; i < sys.Model.NumAPs(); i++ {
		if i > 0 {
			rssB.WriteString(",")
		}
		rssB.WriteString("-60")
	}
	rssB.WriteString("]")
	rssJSON := rssB.String()

	createBody := `{"height_m":1.7,"weight_kg":65}`
	if paced {
		createBody = `{"height_m":1.7,"weight_kg":65,"paced":true}`
	}
	ids := make([]string, n)
	for i := range ids {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(createBody))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusCreated {
			b.Fatalf("create: %d %s", rec.Code, rec.Body.String())
		}
		var cr struct {
			SessionID string `json:"session_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			b.Fatal(err)
		}
		ids[i] = cr.SessionID
		req = httptest.NewRequest(http.MethodPost, "/v1/sessions/"+ids[i]+"/scan",
			strings.NewReader(`{"t":0.5,"rss":`+rssJSON+`}`))
		rec = httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			b.Fatalf("scan: %d %s", rec.Code, rec.Body.String())
		}
	}
	return srv, handler, ids
}

// BenchmarkSessionShards measures concurrent session lookups against
// the striped registry: every GET takes one stripe lock, so throughput
// under parallel load is the striping win. shards=1 approximates the
// old single-mutex registry; shards=16 is the default-class config.
func BenchmarkSessionShards(b *testing.B) {
	const n = 4096
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			srv, handler, ids := pacedBenchServer(b,
				server.Options{Shards: shards, Workers: 4}, n, false)
			defer srv.Close()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(1))
				rec := httptest.NewRecorder()
				for pb.Next() {
					id := ids[rng.Intn(n)]
					req := httptest.NewRequest(http.MethodGet, "/v1/sessions/"+id, nil)
					rec.Body.Reset()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("get: %d", rec.Code)
					}
				}
			})
		})
	}
}

// tickWheelWait bounds one BenchmarkTickWheel round.
const tickWheelWait = 10 * time.Second

// BenchmarkTickWheel measures the paced serving path end to end: one
// iteration advances the clock by one interval, queues the per-worker
// sweeps, and waits for all n sessions' ticks to complete on the pool
// workers — the batched equivalent of n client /tick requests. ns/op is
// therefore the cost of one full paced round over n sessions. A round
// that has not finished after tickWheelWait fails the benchmark, so a
// lost tick shows as an error instead of a hang.
func BenchmarkTickWheel(b *testing.B) {
	for _, n := range []int{256, 2048} {
		b.Run(fmt.Sprintf("sessions=%d", n), func(b *testing.B) {
			clock := newBenchClock()
			srv, _, _ := pacedBenchServer(b,
				server.Options{Workers: 4, Now: clock.Now}, n, true)
			defer srv.Close()
			ticks := srv.Metrics().Counter("paced_ticks")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				want := ticks.Value() + int64(n)
				srv.AdvanceWheel(clock.Advance(4 * time.Second))
				deadline := time.Now().Add(tickWheelWait)
				for ticks.Value() < want {
					if time.Now().After(deadline) {
						b.Fatalf("round %d: %d of %d paced ticks after %v", i, ticks.Value()-want+int64(n), n, tickWheelWait)
					}
					// Yield rather than sleep: the sweeps are already on
					// the workers and land in microseconds, but a bare spin
					// would starve them of this core until preemption.
					runtime.Gosched()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n), "ticks/op")
		})
	}
}
