// City-scale serving benchmark: the striped session registry under
// concurrent lookups (BenchmarkSessionShards). Pinned in
// BENCH_PR9.json; `make bench-diff` gates it against the previous
// artifact.
package moloc_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"moloc/internal/server"
)

// shardBenchServer builds a server over the shared stream fixture with
// n sessions created through the API, each fed one scan so its tracker
// has an interval to close. Returns the server, its handler, and the
// session ids.
func shardBenchServer(b *testing.B, o server.Options, n int) (*server.Server, http.Handler, []string) {
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

	ids := make([]string, n)
	for i := range ids {
		req := httptest.NewRequest(http.MethodPost, "/v1/sessions", strings.NewReader(`{"height_m":1.7,"weight_kg":65}`))
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
			srv, handler, ids := shardBenchServer(b,
				server.Options{Shards: shards, Workers: 4}, n)
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
