// Client-paced HTTP benchmark: one walk-shaped /batch upload served in
// process through the whole handler, and the route's JSON codec on its
// own — the body decode and the response encode, each beside
// encoding/json on the same bytes (what the route ran before its
// schema-specific codec).
package moloc_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"moloc/internal/core"
	"moloc/internal/fingerprint"
	"moloc/internal/motion"
	"moloc/internal/sensors"
	"moloc/internal/server"
	"moloc/internal/stats"
	"moloc/internal/tracker"
)

// walkScan and walkUpload mirror the /batch body's JSON shape.
type walkScan struct {
	T   float64   `json:"t"`
	RSS []float64 `json:"rss"`
}

type walkUpload struct {
	Samples []sensors.Sample `json:"samples"`
	Scans   []walkScan       `json:"scans"`
	T       float64          `json:"t"`
}

// walkUploads cuts the fixture's test walks into 3 s /batch uploads, as
// perfbench's walk-http phones send them: the walk's 10 Hz IMU samples
// and a 2 Hz scan sampled from the RF model along the current leg. Each
// walk's uploads are consecutive intervals of one phone.
func walkUploads(sys *core.System) [][]walkUpload {
	rng := stats.NewRNG(24)
	var walks [][]walkUpload
	for _, tr := range sys.TestTraces {
		var samples []sensors.Sample
		var scans []walkScan
		next := -1.0
		for _, leg := range tr.Legs {
			samples = append(samples, leg.Samples...)
			for _, s := range leg.Samples {
				if s.T < next {
					continue
				}
				frac := (s.T - leg.T0) / (leg.T1 - leg.T0)
				pos := sys.Plan.LocPos(leg.From).Lerp(sys.Plan.LocPos(leg.To), frac)
				scans = append(scans, walkScan{T: s.T, RSS: sys.Model.Sample(pos, rng)})
				next = s.T + 0.5
			}
		}
		if len(samples) == 0 {
			continue
		}
		var ups []walkUpload
		si, ci := 0, 0
		for end := samples[0].T + 3; end <= samples[len(samples)-1].T; end += 3 {
			up := walkUpload{T: end}
			for ; si < len(samples) && samples[si].T < end; si++ {
				up.Samples = append(up.Samples, samples[si])
			}
			for ; ci < len(scans) && scans[ci].T < end; ci++ {
				up.Scans = append(up.Scans, scans[ci])
			}
			ups = append(ups, up)
		}
		walks = append(walks, ups)
	}
	return walks
}

// statusRW is a ResponseWriter that keeps only the status, so the
// serve benchmark times the handler, not a recorder.
type statusRW struct {
	h    http.Header
	code int
}

func (w *statusRW) Header() http.Header         { return w.h }
func (w *statusRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *statusRW) WriteHeader(c int)           { w.code = c }

// benchFix mirrors the route's JSON fix.
type benchFix struct {
	T          float64                 `json:"t"`
	Loc        int                     `json:"loc"`
	X          float64                 `json:"x"`
	Y          float64                 `json:"y"`
	Moved      bool                    `json:"moved"`
	Mode       string                  `json:"mode"`
	Candidates []fingerprint.Candidate `json:"candidates"`
}

func BenchmarkHTTPBatch(b *testing.B) {
	sys, src := streamBenchSys(b)
	srv, err := server.New(sys.Plan, src, sys.Model.NumAPs(), sys.MDB, sys.Config.Motion)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	walks := walkUploads(sys)
	if len(walks) == 0 || len(walks[0]) < 4 {
		b.Fatal("fixture walks too short")
	}
	bodies := make([][][]byte, len(walks))
	for w, ups := range walks {
		for _, up := range ups {
			body, err := json.Marshal(up)
			if err != nil {
				b.Fatal(err)
			}
			bodies[w] = append(bodies[w], body)
		}
	}
	// The codec sub-benchmarks replay one mid-walk upload and the fixes
	// a tracker closes for it.
	up, body := walks[0][3], bodies[0][3]
	cfg := tracker.NewConfig(motion.StepLength(sys.Config.Motion, 1.7, 65))
	cfg.Motion = sys.Config.Motion
	tk, err := tracker.New(sys.Plan, src, sys.MDB, cfg)
	if err != nil {
		b.Fatal(err)
	}
	var fixes []tracker.Fix
	for _, u := range walks[0][:4] {
		for _, s := range u.Samples {
			tk.AddIMU(s)
		}
		for _, sc := range u.Scans {
			tk.AddScan(sc.T, fingerprint.Fingerprint(sc.RSS))
		}
		fixes = tk.TickBatch(u.T, nil)
	}
	if len(fixes) == 0 {
		b.Fatal("tracker closed no interval")
	}

	b.Run("serve", func(b *testing.B) {
		h := srv.Handler()
		var rdr bytes.Reader
		req := &http.Request{Method: http.MethodPost, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1}
		w := &statusRW{h: make(http.Header)}
		walk, iv := 0, len(bodies[0])
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if iv == len(bodies[walk]) {
				// A fresh phone for every pass over a walk, so time moves
				// forward within each session.
				b.StopTimer()
				walk, iv = (walk+1)%len(bodies), 0
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions",
					strings.NewReader(`{"height_m":1.7,"weight_kg":65}`)))
				var cr struct {
					SessionID string `json:"session_id"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
					b.Fatal(err)
				}
				req.URL = &url.URL{Path: "/v1/sessions/" + cr.SessionID + "/batch"}
				b.StartTimer()
			}
			rdr.Reset(bodies[walk][iv])
			iv++
			req.Body = io.NopCloser(&rdr)
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("batch: status %d", w.code)
			}
		}
	})

	b.Run("decode/codec", func(b *testing.B) {
		codec := srv.BatchCodec()
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if n, _, err := codec.Decode(body); err != nil || n != len(up.Samples) {
				b.Fatalf("decode: %d samples, %v", n, err)
			}
		}
	})
	b.Run("decode/encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var v walkUpload
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&v); err != nil || len(v.Samples) != len(up.Samples) {
				b.Fatalf("decode: %d samples, %v", len(v.Samples), err)
			}
		}
	})

	resp := struct {
		Fixes []benchFix `json:"fixes"`
	}{}
	for _, f := range fixes {
		pos := sys.Plan.LocPos(f.Loc)
		resp.Fixes = append(resp.Fixes, benchFix{T: f.T, Loc: f.Loc, X: pos.X, Y: pos.Y,
			Moved: f.Moved, Mode: f.Mode.String(), Candidates: f.Candidates})
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(resp); err != nil {
		b.Fatal(err)
	}
	if got, ok := srv.BatchCodec().Encode(fixes); !ok || !bytes.Equal(got, want.Bytes()) {
		b.Fatalf("codec encodes\n%s\nencoding/json\n%s", got, want.Bytes())
	}
	b.Run("encode/codec", func(b *testing.B) {
		codec := srv.BatchCodec()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok := codec.Encode(fixes); !ok {
				b.Fatal("encode declined a finite fix")
			}
		}
	})
	b.Run("encode/encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
