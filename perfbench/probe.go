package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"moloc/internal/sensors"
)

// The host this benchmark was tuned on is a shared 2-vCPU VM whose speed
// drifts by a fifth and more over tens of seconds as its neighbours'
// load changes: ten consecutive walk-http runs read raw closed-loop
// rates from 3 700 to 6 500 fixes/s. A closed-loop phase then measures
// the neighbours as much as the server. Capacity is therefore measured
// in slices interleaved with slices of a fixed reference workload, the
// probe, and reported scaled to the probe's reference speed:
// raw rate x probeRefRate / measured probe rate.
//
// The probe is an RPC shaped like a /batch request without net/http or
// any repository code: over two loopback TCP connections, each with one
// client and one server goroutine, the client sends a fixed /batch-sized
// JSON body behind a length prefix; the server decodes it into the
// benchmark's own batchBody, matches each scan against a fixed 1024-row
// table (probeNearest) and answers with one encoded fix, which the client
// decodes. It thus mixes syscalls, JSON and float loops, the three kinds
// of work the workloads spend their time on. Probe slices run while the
// generator is idle, so they measure the host rather than the server
// (background work the server does on its own, such as city-paced's
// wheel sweep or ingest-replicated's retrains, still runs beside them).

// probeRefRate is the reference probe speed, round trips per second over
// both connections: about the median on the 2-vCPU Xeon the benchmark was
// tuned on. Scaled capacities read as work/s on a host of that speed.
const probeRefRate = 9500.0

// probeSlice is one probe measurement's length; capSlice is the closed-
// loop slice between two probe slices.
const (
	probeSlice = 100 * time.Millisecond
	capSlice   = time.Second
)

type probe struct {
	ln    net.Listener
	cl    [2]net.Conn
	rd    [2]*bufio.Reader
	req   []byte
	wg    sync.WaitGroup
	trips int64         // round trips completed by measure
	busy  time.Duration // time measure ran
}

// startProbe opens the probe's listener and both connections.
func startProbe() (*probe, error) {
	req, err := json.Marshal(probeBody())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &probe{ln: ln, req: req}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				probeServe(c)
			}()
		}
	}()
	for i := range p.cl {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			p.close()
			return nil, err
		}
		p.cl[i], p.rd[i] = c, bufio.NewReader(c)
	}
	// Warm up (first-use JSON type caches, socket buffers) untimed.
	if err := p.measure(probeSlice); err != nil {
		p.close()
		return nil, err
	}
	p.trips, p.busy = 0, 0
	return p, nil
}

// close shuts both connections and the listener and waits for every
// probe goroutine to return.
func (p *probe) close() {
	for _, c := range p.cl {
		if c != nil {
			//lint:ignore errdrop teardown; the serving side sees EOF either way
			_ = c.Close()
		}
	}
	//lint:ignore errdrop teardown; Accept's error ends the accept loop
	_ = p.ln.Close()
	p.wg.Wait()
}

// measure runs round trips on both connections for d and adds them to
// the probe's totals.
func (p *probe) measure(d time.Duration) error {
	var n [2]int64
	var errs [2]error
	start := time.Now()
	both(func(i int) {
		var resp []byte
		for time.Since(start) < d {
			if errs[i] = writeFrame(p.cl[i], p.req); errs[i] != nil {
				return
			}
			if resp, errs[i] = readFrame(p.rd[i], resp); errs[i] != nil {
				return
			}
			var f fix
			if errs[i] = json.Unmarshal(resp, &f); errs[i] != nil {
				return
			}
			n[i]++
		}
	})
	p.busy += time.Since(start)
	p.trips += n[0] + n[1]
	return errors.Join(errs[0], errs[1])
}

// rate is the probe's round trips per second over every measure so far.
func (p *probe) rate() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(p.trips) / p.busy.Seconds()
}

// probeServe answers one connection's frames until it closes.
func probeServe(c net.Conn) {
	defer func() { _ = c.Close() }()
	rd := bufio.NewReader(c)
	var req []byte
	for {
		var err error
		if req, err = readFrame(rd, req); err != nil {
			return
		}
		var b batchBody
		if json.Unmarshal(req, &b) != nil {
			return
		}
		resp, err := json.Marshal(fix{T: b.T, Loc: probeNearest(b.Scans), Moved: len(b.Samples) > 0})
		if err != nil || writeFrame(c, resp) != nil {
			return
		}
	}
}

func writeFrame(w io.Writer, body []byte) error {
	buf := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	copy(buf[4:], body)
	_, err := w.Write(buf)
	return err
}

func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// probeTable is the probe's fixed radio map: probeLocs fingerprints of
// 6 APs, so each probe request also does a nearest-neighbour scan like
// the localizer's, in the benchmark's own code.
const probeLocs = 1024

var probeTable = func() [][6]float64 {
	t := make([][6]float64, probeLocs)
	for l := range t {
		for a := range t[l] {
			t[l][a] = -40 - float64((l*7+a*13)%50)
		}
	}
	return t
}()

// probeNearest is the index of the table row nearest (squared Euclidean)
// to each scan, summed over the scans.
func probeNearest(scans []scan) int {
	sum := 0
	for _, sc := range scans {
		best, bestD := 0, math.Inf(1)
		for l := range probeTable {
			d := 0.0
			for a, v := range probeTable[l] {
				if a < len(sc.RSS) {
					e := sc.RSS[a] - v
					d += e * e
				}
			}
			if d < bestD {
				best, bestD = l, d
			}
		}
		sum += best
	}
	return sum
}

// probeBody is the probe's fixed request: one 3-s interval of 10 Hz IMU
// samples and 2 Hz scans of 6 APs, like an office-hall /batch body. It
// depends on nothing but these constants.
func probeBody() batchBody {
	var b batchBody
	for i := 0; i < 30; i++ {
		t := 100 + 0.1*float64(i)
		b.Samples = append(b.Samples, sensors.Sample{
			T:       t,
			Accel:   9.81 + 3.5*math.Sin(float64(i)*1.3),
			Compass: float64((875+110*i)%3600) / 10,
			Gyro:    0.4 * math.Cos(float64(i)),
		})
		if i%5 == 0 {
			rss := make([]float64, 6)
			for a := range rss {
				rss[a] = -40 - 7.5*float64((i+a)%9)
			}
			b.Scans = append(b.Scans, scan{T: t, RSS: rss})
		}
	}
	b.T = 103
	return b
}
