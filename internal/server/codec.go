// The data plane's JSON codec: a schema-specific decoder for the
// client-paced bodies (/imu, /scan, /tick, /batch) and the observation
// body, and an append-based encoder for fixes. It is what the routes
// cost per request — the Eq. 4–7 localization step behind a /batch is
// a few microseconds, a reflective encoding/json decode of the same
// upload more than ten times that.
//
// The decoder's fast path accepts only the plain shape the bodies'
// writers emit: objects with exact lowercase keys, each at most once;
// plain JSON numbers; arrays of the expected element. On anything else
// — unknown or case-folded keys, string escapes, null, strings or
// booleans, numbers out of range, duplicate keys, trailing bytes — it
// gives up and restarts on a zeroed value through encoding/json, called
// the way the route always has. So every accepted input, decoded value
// (floats go through the same strconv.ParseFloat) and error is
// encoding/json's; FuzzBatchDecode and FuzzObsDecode check exactly that.
// The encoder writes the bytes encoding/json's Encoder writes, trailing
// newline included (FuzzFixEncode); a fix holding a non-finite float,
// which encoding/json refuses, answers an explicit 500.
package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/tracker"
)

// codecScratch is the data plane's pooled per-request state: the raw
// body, the decoded request, the fixes it produced, and the encoded
// response or WAL payload. Every slice reuses its capacity across
// requests — except each scan's RSS readings, which the tracker
// buffers past the request and which are therefore allocated per scan.
type codecScratch struct {
	body []byte
	// req holds every client-paced body: /imu fills Samples, /scan one
	// Scans entry, /tick T.
	req batchReq
	obs []motiondb.Observation
	// fixes is serveClient's dst, cleared after each response.
	//
	//moloc:reuse
	fixes []tracker.Fix
	// rss is the parse buffer an RSS array is read into before its
	// exact-size copy.
	rss []float64
	// out is the encoded response, or the observation batch's WAL
	// payload.
	out []byte
}

var codecPool = sync.Pool{
	New: func() interface{} { return new(codecScratch) },
}

// clientRoute names a client-paced route's body schema.
type clientRoute uint8

const (
	routeIMU   clientRoute = iota // {"samples":[…]}
	routeScan                     // {"t":…,"rss":[…]}
	routeTick                     // {"t":…}
	routeBatch                    // {"samples":[…],"scans":[…],"t":…}
)

// decodeClient decodes sc.body, a body of route's schema, into sc.req.
// The fallback is the json.Decoder the routes have always read with,
// which accepts trailing data after the first value.
func (sc *codecScratch) decodeClient(route clientRoute) error {
	d := jsonScan{b: sc.body}
	if d.client(route, sc) && d.end() {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(sc.body))
	var err error
	switch route {
	case routeIMU:
		var v imuReq
		err = dec.Decode(&v)
		sc.req = batchReq{Samples: v.Samples}
	case routeScan:
		var v scanReq
		err = dec.Decode(&v)
		sc.req = batchReq{Scans: []scanReq{v}}
	case routeTick:
		var v tickReq
		err = dec.Decode(&v)
		sc.req = batchReq{T: v.T}
	default:
		sc.req = batchReq{}
		err = dec.Decode(&sc.req)
	}
	return err
}

// decodeObservations decodes sc.body, an observation batch, into
// sc.obs. The fallback is the json.Unmarshal the route has always
// used, which refuses trailing data.
func (sc *codecScratch) decodeObservations() error {
	d := jsonScan{b: sc.body}
	if d.observations(sc) && d.end() {
		return nil
	}
	var v obsReq
	err := json.Unmarshal(sc.body, &v)
	sc.obs = v.Observations
	return err
}

// jsonScan is the fast path's cursor over one body. Every method
// reports false, and the whole decode falls back, on input outside the
// plain subset. Each element is zeroed before its fields are read, so a
// field a body omits decodes as 0 whatever the scratch held.
type jsonScan struct {
	b []byte
	i int
}

func (d *jsonScan) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c, after any whitespace, when it is the next byte.
func (d *jsonScan) eat(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *jsonScan) end() bool {
	d.ws()
	return d.i == len(d.b)
}

// object reads one object. field decodes the value of key and returns
// the key's bit, or 0 for an unknown key or a bad value; a key seen
// twice declines too.
func (d *jsonScan) object(field func(key []byte) uint) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.key()
		if !ok {
			return false
		}
		bit := field(key)
		if bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// key reads a quoted key and its colon. Callers compare it byte for
// byte with the schema's plain ASCII names, so an escaped, case-folded
// or non-ASCII spelling encoding/json would match is unknown here, and
// declines.
func (d *jsonScan) key() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	end := bytes.IndexByte(d.b[d.i:], '"')
	if end < 0 {
		return nil, false
	}
	key := d.b[d.i : d.i+end]
	d.i += end + 1
	return key, d.eat(':')
}

// array reads one array, calling elem for each element.
func (d *jsonScan) array(elem func() bool) bool {
	if !d.eat('[') {
		return false
	}
	if d.eat(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.eat(',') {
			return d.eat(']')
		}
	}
}

// number returns the JSON number literal at the cursor (RFC 8259's
// grammar, which is narrower than strconv's), or nil.
func (d *jsonScan) number() []byte {
	d.ws()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil
		}
		i = j
	}
	lit := b[d.i:i]
	d.i = i
	return lit
}

func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// float reads a number into a float64 exactly as encoding/json does;
// one out of range declines, and encoding/json then reports it.
func (d *jsonScan) float(dst *float64) bool {
	lit := d.number()
	if lit == nil {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// integer reads an integer into an int; fractions, exponents and
// overflow decline.
func (d *jsonScan) integer(dst *int) bool {
	lit := d.number()
	if lit == nil {
		return false
	}
	n, err := strconv.Atoi(string(lit))
	*dst = n
	return err == nil
}

// client reads one client-paced body of route's schema into sc.req.
func (d *jsonScan) client(route clientRoute, sc *codecScratch) bool {
	req := &sc.req
	req.Samples, req.Scans, req.T = req.Samples[:0], req.Scans[:0], 0
	if route == routeScan {
		req.Scans = append(req.Scans, scanReq{})
		return d.scan(&req.Scans[0], sc)
	}
	return d.object(func(key []byte) uint {
		switch {
		case string(key) == "samples" && (route == routeIMU || route == routeBatch):
			return bitIf(1, d.samples(&req.Samples))
		case string(key) == "scans" && route == routeBatch:
			return bitIf(2, d.array(func() bool {
				req.Scans = append(req.Scans, scanReq{})
				return d.scan(&req.Scans[len(req.Scans)-1], sc)
			}))
		case string(key) == "t" && (route == routeTick || route == routeBatch):
			return bitIf(4, d.float(&req.T))
		}
		return 0
	})
}

func (d *jsonScan) samples(dst *[]sensors.Sample) bool {
	return d.array(func() bool {
		*dst = append(*dst, sensors.Sample{})
		smp := &(*dst)[len(*dst)-1]
		return d.object(func(key []byte) uint {
			switch string(key) {
			case "t":
				return bitIf(1, d.float(&smp.T))
			case "accel":
				return bitIf(2, d.float(&smp.Accel))
			case "compass":
				return bitIf(4, d.float(&smp.Compass))
			case "gyro":
				return bitIf(8, d.float(&smp.Gyro))
			}
			return 0
		})
	})
}

// scan reads one scan object; its readings land in a fresh slice the
// tracker may keep.
func (d *jsonScan) scan(dst *scanReq, sc *codecScratch) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "t":
			return bitIf(1, d.float(&dst.T))
		case "rss":
			sc.rss = sc.rss[:0]
			ok := d.array(func() bool {
				sc.rss = append(sc.rss, 0)
				return d.float(&sc.rss[len(sc.rss)-1])
			})
			dst.RSS = append(make([]float64, 0, len(sc.rss)), sc.rss...)
			return bitIf(2, ok)
		}
		return 0
	})
}

// observations reads an observation batch into sc.obs.
func (d *jsonScan) observations(sc *codecScratch) bool {
	sc.obs = sc.obs[:0]
	return d.object(func(key []byte) uint {
		if string(key) != "observations" {
			return 0
		}
		return bitIf(1, d.array(func() bool {
			sc.obs = append(sc.obs, motiondb.Observation{})
			o := &sc.obs[len(sc.obs)-1]
			return d.object(func(key []byte) uint {
				switch string(key) {
				case "from":
					return bitIf(1, d.integer(&o.From))
				case "to":
					return bitIf(2, d.integer(&o.To))
				case "rlm":
					return bitIf(4, d.object(func(key []byte) uint {
						switch string(key) {
						case "dir":
							return bitIf(1, d.float(&o.RLM.Dir))
						case "off":
							return bitIf(2, d.float(&o.RLM.Off))
						}
						return 0
					}))
				}
				return 0
			})
		}))
	})
}

func bitIf(bit uint, ok bool) uint {
	if ok {
		return bit
	}
	return 0
}

// fixEncoder appends the JSON encoding/json's Encoder writes for a
// fixResp or batchResp. bad records a non-finite float, which
// encoding/json refuses.
type fixEncoder struct {
	b   []byte
	bad bool
}

// float appends f in encoding/json's float64 form: shortest
// round-trip digits, exponent notation below 1e-6 and from 1e21, and
// no zero padding in a negative exponent.
func (e *fixEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

// fix appends one fixResp object. Mode is one of Mode.String's two
// plain words, so it needs no escaping.
func (e *fixEncoder) fix(f *fixResp) {
	e.b = append(e.b, `{"t":`...)
	e.float(f.T)
	e.b = append(e.b, `,"loc":`...)
	e.b = strconv.AppendInt(e.b, int64(f.Loc), 10)
	e.b = append(e.b, `,"x":`...)
	e.float(f.X)
	e.b = append(e.b, `,"y":`...)
	e.float(f.Y)
	e.b = append(e.b, `,"moved":`...)
	e.b = strconv.AppendBool(e.b, f.Moved)
	e.b = append(e.b, `,"mode":"`...)
	e.b = append(e.b, f.Mode...)
	e.b = append(e.b, `","candidates":`...)
	if f.Candidates == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, c := range f.Candidates {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.b = append(e.b, `{"loc":`...)
			e.b = strconv.AppendInt(e.b, int64(c.Loc), 10)
			e.b = append(e.b, `,"dissim":`...)
			e.float(c.Dissim)
			e.b = append(e.b, `,"prob":`...)
			e.float(c.Prob)
			e.b = append(e.b, '}')
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

// appendFixes appends the JSON the route answers with: the whole
// batchResp, or for /tick (batch false) the newest fix alone. ok is
// false when a float is non-finite.
func (s *Server) appendFixes(b []byte, fixes []tracker.Fix, batch bool) ([]byte, bool) {
	e := fixEncoder{b: b}
	if batch {
		e.b = append(e.b, `{"fixes":[`...)
		for i := range fixes {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			f := s.toResp(fixes[i])
			e.fix(&f)
		}
		e.b = append(e.b, "]}\n"...)
	} else {
		f := s.toResp(fixes[len(fixes)-1])
		e.fix(&f)
		e.b = append(e.b, '\n')
	}
	return e.b, !e.bad
}

// writeFixes answers 200 with appendFixes' JSON. A fix holding a
// non-finite float has no JSON form; it answers 500 naming that, where
// encoding/json's Encoder, refusing the value, wrote an empty 200.
func (s *Server) writeFixes(w http.ResponseWriter, sc *codecScratch, fixes []tracker.Fix, batch bool) {
	var ok bool
	if sc.out, ok = s.appendFixes(sc.out[:0], fixes, batch); !ok {
		httpError(w, http.StatusInternalServerError, "a fix holds a non-finite value, which JSON cannot carry")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	//lint:ignore errdrop the status header is already written, so the error cannot change the response
	_, _ = w.Write(sc.out)
}

// BatchCodec is the /batch route's JSON codec outside a request: Decode
// is the route's body decode into reused scratch, and Encode its
// response encoding. Benchmarks outside this package use it to time
// exactly the code the route runs.
type BatchCodec struct {
	s  *Server
	sc codecScratch
}

// BatchCodec returns a /batch codec over s's floor plan, which gives
// each encoded fix its position.
func (s *Server) BatchCodec() *BatchCodec { return &BatchCodec{s: s} }

// Decode decodes a /batch body as the route does and reports the
// sample and scan counts; body is read, never kept.
func (c *BatchCodec) Decode(body []byte) (samples, scans int, err error) {
	c.sc.body = body
	err = c.sc.decodeClient(routeBatch)
	c.sc.body = nil
	return len(c.sc.req.Samples), len(c.sc.req.Scans), err
}

// Encode returns the /batch response body for fixes, valid until the
// next call; ok is false for a fix encoding/json would refuse.
func (c *BatchCodec) Encode(fixes []tracker.Fix) (body []byte, ok bool) {
	c.sc.out, ok = c.s.appendFixes(c.sc.out[:0], fixes, true)
	return c.sc.out, ok
}
