// Equivalence of the data-plane JSON codec (codec.go) with encoding/json:
// the decoders must accept, reject and decode exactly what the routes'
// encoding/json calls do, into scratch a previous body already filled,
// and the fix encoder must write encoding/json's bytes.
package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"moloc/internal/fingerprint"
	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/stats"
	"moloc/internal/tracker"
)

// walkBatch is a /batch body shaped like a walking phone's upload: 10 Hz
// IMU samples and 1 Hz scans over one 3 s interval ending at t0+3, every
// value carrying full float64 precision as json.Marshal writes it.
func walkBatch(rng *stats.RNG, t0 float64, numAPs int) batchReq {
	req := batchReq{T: t0 + 3}
	for j := 0; j < 30; j++ {
		req.Samples = append(req.Samples, sensors.Sample{
			T: t0 + 0.1*float64(j), Accel: 9.8 + rng.Norm(0, 1.5),
			Compass: 90 + rng.Norm(0, 8), Gyro: rng.Norm(0, 4),
		})
	}
	for j := 0; j < 3; j++ {
		rss := make([]float64, numAPs)
		for a := range rss {
			rss[a] = -60 + rng.Norm(0, 6)
		}
		req.Scans = append(req.Scans, scanReq{T: t0 + float64(j), RSS: rss})
	}
	return req
}

func mustMarshal(t testing.TB, v interface{}) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refClient is the route's decode before the codec: a fresh value and
// encoding/json's Decoder.
func refClient(route clientRoute, body []byte) (batchReq, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	switch route {
	case routeIMU:
		var v imuReq
		err := dec.Decode(&v)
		return batchReq{Samples: v.Samples}, err
	case routeScan:
		var v scanReq
		err := dec.Decode(&v)
		return batchReq{Scans: []scanReq{v}}, err
	case routeTick:
		var v tickReq
		err := dec.Decode(&v)
		return batchReq{T: v.T}, err
	}
	var v batchReq
	err := dec.Decode(&v)
	return v, err
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameErr reports whether two decode outcomes agree: both accepted, or
// both refused with the same message (the 400's body).
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// diffBatch describes the first difference between two decoded client
// bodies, bit for bit; "" when they agree. A nil and an empty top-level
// slice are the same request (the scratch keeps its capacity), but an
// RSS slice's nil-ness must match.
func diffBatch(got, want batchReq) string {
	if !sameBits(got.T, want.T) {
		return "t"
	}
	if len(got.Samples) != len(want.Samples) {
		return "samples length"
	}
	for i, g := range got.Samples {
		w := want.Samples[i]
		if !sameBits(g.T, w.T) || !sameBits(g.Accel, w.Accel) || !sameBits(g.Compass, w.Compass) || !sameBits(g.Gyro, w.Gyro) {
			return "sample"
		}
	}
	if len(got.Scans) != len(want.Scans) {
		return "scans length"
	}
	for i, g := range got.Scans {
		w := want.Scans[i]
		if !sameBits(g.T, w.T) || len(g.RSS) != len(w.RSS) || (g.RSS == nil) != (w.RSS == nil) {
			return "scan"
		}
		for a := range g.RSS {
			if !sameBits(g.RSS[a], w.RSS[a]) {
				return "rss"
			}
		}
	}
	return ""
}

// clientEdgeBodies are the bodies the fast path must hand to
// encoding/json, or accept only where encoding/json agrees.
var clientEdgeBodies = []string{
	``, ` `, `null`, `{`, `}`, `[]`, `{}`, `{"t":1,}`, `{,"t":1}`,
	`{"T":3}`, `{"t":3}`, `{"t":null}`, `{"t":"3"}`, `{"t":true}`,
	`{"t":1,"t":2}`, `{"t":1e400}`, `{"t":-1e400}`, `{"t":1e-400}`,
	`{"t":-0}`, `{"t":-0.0}`, `{"t":01}`, `{"t":1.}`, `{"t":.5}`,
	`{"t":1e}`, `{"t":-}`, `{"t":+1}`, `{"t":1E+2}`, `{"t":0x10}`,
	`{"t":Infinity}`, `{"t":1_0}`, `{"t":1}`, `{"t\u0000":1}`,
	" \t\r\n{ \"t\" :\n3 } \n", `{"t":3} junk`, `{"t":3}{"t":4}`,
	`{"t":3}]`, `{"x":1,"t":3}`, `{"samples":null}`, `{"samples":[null]}`,
	`{"samples":[{}]}`, `{"samples":[{"T":1}]}`, `{"samples":[{"t":1,"accel":2}],"samples":[{"t":3}]}`,
	`{"samples":[{"t":1,"t":2}]}`, `{"samples":[1]}`, `{"samples":[{"t":1},]}`,
	`{"samples":{}}`, `{"scans":[{}]}`, `{"scans":[{"t":1,"rss":[]}]}`,
	`{"scans":[{"rss":null}]}`, `{"scans":[{"rss":[1,2,]}]}`, `{"scans":[{"rss":[-60,"x"]}]}`,
	`{"rss":[1,2,3],"t":4}`, `{"rss":[1],"rss":[2]}`, `{"t":1,"rss":[1e309]}`,
	`{"samples":[{"t":0.1,"accel":9.8,"compass":90,"gyro":0}],"scans":[{"t":0,"rss":[-60,-70]}],"t":3}`,
	"{\"t\":3}\xff", "{\"t\xc5\xbf\":3}",
}

// FuzzBatchDecode: for each of the four client bodies, the codec (fast
// path and fallback) accepts, rejects and decodes exactly as a fresh
// encoding/json Decoder does, even though it decodes into scratch the
// previous input and a full walk-shaped body have both filled.
func FuzzBatchDecode(f *testing.F) {
	rng := stats.NewRNG(5)
	for route := routeIMU; route <= routeBatch; route++ {
		// A walk upload cut short: the fuzzer minimizes every input that
		// finds new coverage, and a full one costs it most of its time.
		walk := walkBatch(rng, 6, 4)
		walk.Samples, walk.Scans = walk.Samples[:4], walk.Scans[:2]
		bodies := [][]byte{mustMarshal(f, walk), mustMarshal(f, imuReq{Samples: walk.Samples}),
			mustMarshal(f, walk.Scans[0]), mustMarshal(f, tickReq{T: walk.T})}
		for _, b := range bodies {
			f.Add(uint8(route), string(b))
		}
		for _, b := range clientEdgeBodies {
			f.Add(uint8(route), b)
		}
	}
	// Before each input the scratch also holds a body with every field
	// set, so a field the input omits cannot read as zero by luck.
	dirtyWalk := walkBatch(rng, 90, 4)
	dirtyWalk.Samples = dirtyWalk.Samples[:8]
	dirty := mustMarshal(f, dirtyWalk)
	var sc codecScratch
	f.Fuzz(func(t *testing.T, r uint8, body string) {
		route := clientRoute(r % 4)
		sc.body = dirty
		if err := sc.decodeClient(routeBatch); err != nil {
			t.Fatal(err)
		}
		sc.body = []byte(body)
		err := sc.decodeClient(route)
		want, wantErr := refClient(route, []byte(body))
		if !sameErr(err, wantErr) {
			t.Fatalf("route %d %q: codec err %v, encoding/json err %v", route, body, err, wantErr)
		}
		if err == nil {
			if d := diffBatch(sc.req, want); d != "" {
				t.Fatalf("route %d %q: %s differs: codec %+v, encoding/json %+v", route, body, d, sc.req, want)
			}
		}
	})
}

// FuzzObsDecode is FuzzBatchDecode for the observation body, whose
// route has always decoded with json.Unmarshal (trailing data refused).
func FuzzObsDecode(f *testing.F) {
	seeds := []string{
		`{"observations":[{"from":1,"to":2,"rlm":{"dir":90,"off":5}}]}`,
		`{"observations":[{"from":3,"to":4,"rlm":{"dir":359.99999999999994,"off":0.30000000000000004}},{"from":4,"to":3,"rlm":{"dir":180,"off":2.5}}]}`,
		`{"observations":[{}]}`, `{"observations":[{"to":7,"rlm":{"off":1}},{}]}`, `{"observations":[]}`, `{"observations":null}`, `{"observations":[null]}`,
		`{"observations":[{"rlm":null}]}`, `{"observations":[{"rlm":{}}]}`, `{"Observations":[{}]}`,
		`{"observations":[{"From":1}]}`, `{"observations":[{"from":1.0}]}`, `{"observations":[{"from":1e2}]}`,
		`{"observations":[{"from":-0}]}`, `{"observations":[{"from":99999999999999999999}]}`,
		`{"observations":[{"from":1,"from":2}]}`, `{"observations":[{"rlm":{"dir":1,"dir":2}}]}`,
		`{"observations":[{"rlm":{"dir":1e400}}]}`, `{"observations":[{"rlm":{"off":-0}}]}`,
		`{"observations":[],"observations":[{}]}`, `{"observations":[]} x`, `{"observations":[]}{}`,
		" {\n\"observations\" : [ { \"from\" : 1 } ] }\t", `{"observations":[{"from":01}]}`,
		`{"observations":[{"from":"1"}]}`, `{"observations":[{"x":1}]}`, `{"observations":[{"from":1},]}`,
		``, `null`, `{}`, `[]`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	dirty := []byte(`{"observations":[{"from":7,"to":8,"rlm":{"dir":45,"off":3}},{"from":9,"to":10,"rlm":{"dir":1,"off":2}},{"from":11,"to":12,"rlm":{"dir":3,"off":4}}]}`)
	var sc codecScratch
	f.Fuzz(func(t *testing.T, body string) {
		sc.body = dirty
		if err := sc.decodeObservations(); err != nil {
			t.Fatal(err)
		}
		sc.body = []byte(body)
		err := sc.decodeObservations()
		var want obsReq
		wantErr := json.Unmarshal([]byte(body), &want)
		if !sameErr(err, wantErr) {
			t.Fatalf("%q: codec err %v, encoding/json err %v", body, err, wantErr)
		}
		if err != nil {
			return
		}
		if len(sc.obs) != len(want.Observations) {
			t.Fatalf("%q: %d observations, encoding/json %d", body, len(sc.obs), len(want.Observations))
		}
		for i, g := range sc.obs {
			w := want.Observations[i]
			if g.From != w.From || g.To != w.To || !sameBits(g.RLM.Dir, w.RLM.Dir) || !sameBits(g.RLM.Off, w.RLM.Off) {
				t.Fatalf("%q: observation %d: codec %+v, encoding/json %+v", body, i, g, w)
			}
		}
	})
}

var (
	codecSrvOnce sync.Once
	codecSrv     *Server
)

// sharedCodecServer is one server for the encoder fuzzer, whose fixes
// need a floor plan for their positions.
func sharedCodecServer(t testing.TB) *Server {
	codecSrvOnce.Do(func() { codecSrv, _, _ = newTestServer() })
	if codecSrv == nil {
		t.Fatal("test server unavailable")
	}
	return codecSrv
}

// FuzzFixEncode: the append encoder writes encoding/json's Encoder bytes
// for a /batch response and a /tick fix, and declines exactly the fixes
// encoding/json refuses.
func FuzzFixEncode(f *testing.F) {
	f.Add(12.0, 0.7324, 0.31, 3, uint8(2), true, false)
	f.Add(3.0, 1e-7, 1e21, 1, uint8(3), false, true)
	f.Add(-0.0, 123456789.125, 5e-324, 28, uint8(3), true, true)
	f.Add(1e20, 9.999999e-7, 1.7976931348623157e308, 2, uint8(0), false, false)
	f.Add(math.NaN(), 0.5, 0.5, 1, uint8(1), false, false)
	f.Add(3.0, math.Inf(1), 0.5, 1, uint8(2), false, false)
	f.Fuzz(func(t *testing.T, ft, dissim, prob float64, loc int, ncand uint8, moved, fpMode bool) {
		s := sharedCodecServer(t)
		n := s.plan.NumLocs()
		loc = 1 + int(uint(loc)%uint(n))
		fix := tracker.Fix{T: ft, Loc: loc, Moved: moved}
		if fpMode {
			fix.Mode = tracker.ModeFingerprint
		}
		if ncand%4 > 0 {
			fix.Candidates = []fingerprint.Candidate{}
			for i := 0; i < int(ncand%4)-1; i++ {
				fix.Candidates = append(fix.Candidates, fingerprint.Candidate{
					Loc: 1 + (loc+i)%n, Dissim: dissim * float64(i+1), Prob: prob / float64(i+1)})
			}
		}
		second := tracker.Fix{T: ft + 3, Loc: 1 + loc%n, Mode: tracker.ModeMoLoc}
		fixes := []tracker.Fix{fix, second}

		resp := batchResp{Fixes: []fixResp{s.toResp(fix), s.toResp(second)}}
		for _, c := range []struct {
			batch bool
			in    []tracker.Fix
			v     interface{}
		}{{true, fixes, resp}, {false, fixes, resp.Fixes[1]}, {false, fixes[:1], resp.Fixes[0]}} {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(c.v)
			got, ok := s.appendFixes([]byte("stale"), c.in, c.batch)
			if ok != (wantErr == nil) {
				t.Fatalf("encoder ok=%v, encoding/json err %v", ok, wantErr)
			}
			if ok && string(got[len("stale"):]) != want.String() {
				t.Fatalf("encoder wrote\n%s\nencoding/json\n%s", got[len("stale"):], want.String())
			}
		}
	})
}

// TestCodecFastPathTakesWriterShapes: the bodies json.Marshal writes for
// each route, compact or indented, decode on the fast path — the
// fallback is for odd inputs, and a codec that silently fell back on
// real uploads would forfeit its whole gain.
func TestCodecFastPathTakesWriterShapes(t *testing.T) {
	rng := stats.NewRNG(9)
	walk := walkBatch(rng, 0, 12)
	obs := obsReq{Observations: []motiondb.Observation{{From: 1, To: 2}, {From: 2, To: 3}}}
	obs.Observations[0].RLM.Dir, obs.Observations[0].RLM.Off = 87.25, 4.25
	cases := []struct {
		route clientRoute
		v     interface{}
	}{
		{routeBatch, walk}, {routeIMU, imuReq{Samples: walk.Samples}},
		{routeScan, walk.Scans[1]}, {routeTick, tickReq{T: 2.9999999999999996}},
	}
	for _, c := range cases {
		compact := mustMarshal(t, c.v)
		indented, err := json.MarshalIndent(c.v, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{compact, indented} {
			var sc codecScratch
			d := jsonScan{b: body}
			if !d.client(c.route, &sc) || !d.end() {
				t.Errorf("route %d: fast path declined %.60s…", c.route, body)
			}
		}
	}
	var sc codecScratch
	d := jsonScan{b: mustMarshal(t, obs)}
	if !d.observations(&sc) || !d.end() {
		t.Error("fast path declined an observation batch")
	}
}

// TestObservationsRefuseStaleScratch: an observation whose fields are
// all omitted is refused (400) even right after a valid batch went
// through the same pooled scratch, and only the valid batches reach the
// pending queue. encoding/json decodes into existing slice elements
// without zeroing them, so a decoder over pooled elements that skipped
// the zeroing would let the empty observation inherit the previous
// batch's endpoints and RLM and be queued, WAL-logged and replicated.
func TestObservationsRefuseStaleScratch(t *testing.T) {
	srv, _ := testServer(t)
	defer srv.Close()
	h := srv.Handler()
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body)))
		return rec.Code
	}
	const rounds = 8
	for i := 0; i < rounds; i++ {
		if code := post(`{"observations":[{"from":1,"to":2,"rlm":{"dir":90,"off":5}}]}`); code != http.StatusAccepted {
			t.Fatalf("round %d: valid batch: status %d, want 202", i, code)
		}
		if code := post(`{"observations":[{}]}`); code != http.StatusBadRequest {
			t.Fatalf("round %d: empty observation after a valid batch: status %d, want 400", i, code)
		}
	}
	if n := srv.retrain.pendingLen(); n != rounds {
		t.Fatalf("pending queue holds %d observations, want the %d valid ones", n, rounds)
	}
}

// TestNonFiniteFixAnswersError: against a radio map whose every reading
// is huge but finite, every dissimilarity of an ordinary scan overflows
// to +Inf and the candidate probabilities come out 0/0 = NaN. JSON has
// no form for such a fix, so /batch and /tick answer an explicit 500
// error, never a 200 with an empty body. (A scan can no longer carry
// such a reading itself: serveClient refuses it with a 400.)
func TestNonFiniteFixAnswersError(t *testing.T) {
	_, sys := testServer(t)
	numAPs := sys.Model.NumAPs()
	radioMap := make([][]fingerprint.Fingerprint, sys.Plan.NumLocs())
	for i := range radioMap {
		fp := make(fingerprint.Fingerprint, numAPs)
		for a := range fp {
			fp[a] = -1e200
		}
		radioMap[i] = []fingerprint.Fingerprint{fp}
	}
	fdb, err := fingerprint.NewDB(fingerprint.Euclidean{}, numAPs, radioMap)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(sys.Plan, fdb, numAPs, sys.MDB, sys.Config.Motion)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	for _, route := range []string{"batch", "tick"} {
		id := createSession(t, ts)
		req := walkBatch(stats.NewRNG(1), 0, srv.numAPs)
		var resp *http.Response
		var body []byte
		if route == "tick" {
			if resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/imu", imuReq{Samples: req.Samples}); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("imu: status %d body %s", resp.StatusCode, body)
			}
			for _, sc := range req.Scans {
				if resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/scan", sc); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("scan: status %d body %s", resp.StatusCode, body)
				}
			}
			resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/tick", tickReq{T: req.T})
		} else {
			resp, body = postJSON(t, ts, "/v1/sessions/"+id+"/batch", req)
		}
		var e struct{ Error string }
		if resp.StatusCode != http.StatusInternalServerError || json.Unmarshal(body, &e) != nil ||
			!strings.Contains(e.Error, "non-finite") {
			t.Errorf("%s: status %d body %q, want 500 naming the non-finite fix", route, resp.StatusCode, body)
		}
	}
}
