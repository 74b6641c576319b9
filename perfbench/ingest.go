package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"moloc/internal/fault"
	"moloc/internal/floorplan"
	"moloc/internal/geom"
	"moloc/internal/motion"
	"moloc/internal/motiondb"
	"moloc/internal/obs"
	"moloc/internal/server"
	"moloc/internal/stats"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// ingest-replicated: writes beside reads. The leader is durable (WAL
// with fsync always, group commit, checkpoints, a short retrain period
// so snapshots publish during the run) and one in-process follower
// replicates it over loopback. Connection 1 is a binary stream bound to
// one tracking session: the phone's walk frames (IMU, scans, Tick) at a
// fixed interval rate interleaved with jittered observation batches,
// open loop, then a closed-loop ingest capacity phase. Connection 2 is
// HTTP: JSON observation posts at a fixed rate interleaved with /batch
// fix requests.
const (
	ingestSessions  = 600   // HTTP /batch sessions, one request per 3-s interval each
	ingestObsRate   = 300.0 // stream observation batches per second
	ingestObsBatch  = 8     // observations per batch, stream and JSON
	ingestPhoneRate = 40.0  // stream phone intervals per second (the walk replays faster than real time)
	ingestJSONRate  = 20.0  // JSON observation posts per second
	ingestSetups    = 5
	ingestRetrain   = statWindow // one retrain and checkpoint per statistics window
	ingestSegment   = 256 << 20
	// modeledSync is the fsync cost of the durable path's modeled disk.
	modeledSync = 200 * time.Microsecond
	// ingestReplWindow bounds how many batches the capacity phase may
	// run ahead of the follower's applied position.
	ingestReplWindow = 256
)

type ingestRig struct {
	w      *world
	h      *host
	fol    *server.Server
	dir    string
	ln     *lane
	sc     *streamClient
	phone  *sess
	ss     []*sess
	spans  *spanRec
	jsonOK int // JSON observation batches accepted (202)
	// jsonBodies are accepted JSON bodies kept for the codec replay.
	jsonBodies [][]byte
}

func (r *ingestRig) close() {
	if r.sc != nil {
		r.sc.close()
	}
	r.ln.close()
	r.h.close()
	if r.fol != nil {
		r.fol.Close()
	}
	//lint:ignore errdrop scratch state under the work directory; a leftover only costs disk
	_ = os.RemoveAll(r.dir)
}

func runIngest(cfg runCfg) (*outcome, error) {
	out := &outcome{e2e: map[string]float64{}}
	total := secs(cfg.seconds)
	openDur := total * 7 / 10
	capDur := total - openDur
	rec := &httpRec{traced: cfg.trace}

	var (
		walks []*walk
		phone []*walk
		rig   *ingestRig
	)
	for r := 0; r < ingestSetups; r++ {
		settle()
		t0 := time.Now()
		w, err := officeWorld()
		if err != nil {
			return nil, err
		}
		build := time.Since(t0)
		if walks == nil {
			if walks, err = genWalks(w, ingestSessions, 2+int(openDur/secs(intervalSec)), cfg.seed, "ingest-http"); err != nil {
				return nil, err
			}
			if phone, err = genWalks(w, 1, 2+int(openDur.Seconds()*ingestPhoneRate), cfg.seed, "ingest-phone"); err != nil {
				return nil, err
			}
		}
		t1 := time.Now()
		rg, err := bootIngest(cfg, r, w, walks, phone[0], rec)
		if err != nil {
			return nil, err
		}
		out.setupRun = append(out.setupRun, (build + time.Since(t1)).Seconds())
		if r < ingestSetups-1 {
			rg.close()
		} else {
			rig = rg
		}
	}
	defer rig.close()
	rec.fixLat, rec.writeLat = samples{}, samples{}
	out.e2e["setup_s"] = median(out.setupRun)
	sc := rig.sc
	sc.reset()

	settle()
	var tracedSrv *server.Server
	if cfg.trace {
		tracedSrv = rig.h.srv
	}
	samp := startSampler(tracedSrv)
	rt0 := readRuntime()
	m0, err := rig.ln.metricsz()
	if err != nil {
		return nil, err
	}
	folApplied := rig.fol.Metrics().Counter("repl_applied_records")
	fa0 := folApplied.Value()
	watch := startReplWatch(rig.h.srv, rig.fol)
	sc.setOnAck(watch.ack)

	// Open loop.
	open := out.phase("open-loop")
	rng := stats.NewRNG(cfg.seed).Fork("ingest-obs")
	pairs := rig.w.sys.MDB.Pairs()
	var streamOps, httpOps []op
	for n := 0; ; n++ {
		due := secs(math.Max(0, float64(n)+rng.Uniform(-0.45, 0.45)) / ingestObsRate)
		if due >= openDur {
			break
		}
		batch := obsBatch(rig.w, pairs, rng)
		streamOps = append(streamOps, op{due, func(d time.Time) bool { return sc.sendObs(batch, d, true) == nil }})
	}
	for k := 1; k < len(rig.phone.wk.ivs); k++ {
		due := secs(float64(k-1) / ingestPhoneRate)
		if due >= openDur {
			break
		}
		iv := &rig.phone.wk.ivs[k]
		streamOps = append(streamOps, op{due, func(d time.Time) bool { return sc.sendInterval(iv, d) == nil }})
	}
	for n := 0; ; n++ {
		due := secs((float64(n) + 0.5) / ingestJSONRate)
		if due >= openDur {
			break
		}
		body, err := json.Marshal(map[string]interface{}{"observations": obsBatch(rig.w, pairs, rng)})
		if err != nil {
			return nil, err
		}
		httpOps = append(httpOps, op{due, func(d time.Time) bool { return rig.postObs(body, d, rec, true) }})
	}
	for i, s := range rig.ss {
		s := s
		off := secs(intervalSec * (float64(i) + 0.5) / float64(len(rig.ss)))
		for k := 1; k < len(s.wk.ivs); k++ {
			due := off + secs(intervalSec*float64(k-1))
			if due >= openDur {
				break
			}
			httpOps = append(httpOps, op{due, func(d time.Time) bool {
				_, ok := s.sendBatch(rig.ln, rec, d, true)
				return ok
			}})
		}
	}
	start := time.Now().Add(20 * time.Millisecond)
	both(func(li int) {
		if li == 0 {
			openLoop(start, streamOps, open)
		} else {
			openLoop(start, httpOps, open)
		}
	})
	open.elapsed = time.Since(start)
	out.e2e["rss_peak_mb"] = samp.finish()
	open.note += fmt.Sprintf("; process CPU %.0f%% of %d CPUs", 100*samp.cpuShare, runtime.NumCPU())
	// Replication lag is an open-loop figure: let the last acks' targets
	// resolve, then stop timing before the capacity phase floods the
	// follower.
	watch.drain(5 * time.Second)
	sc.setOnAck(nil)
	watch.finish()

	// Closed loop: the stream pipelines observation batches as fast as
	// the server's credit window allows while the follower stays within
	// ingestReplWindow batches (the stream is the only writer now, so
	// batch q is WAL record wal0+q-seq0); the HTTP connection is idle.
	// The capacity is what the replicated pair sustains, not the leader
	// alone running away from its follower.
	// The phase runs in probe-interleaved slices (see probe.go); a slice
	// ends once its last batch is acked and applied by the follower, so
	// no replication runs beside a probe slice.
	pr, err := startProbe()
	if err != nil {
		return nil, err
	}
	defer pr.close()
	capPh := out.phase("closed-loop capacity")
	settle()
	seq0 := sc.sentSeq()
	wal0 := uint64(rig.h.srv.Metrics().Counter("wal_appends").Value())
	cstart := time.Now()
	var drainErr error
	cr, err := sliced(capDur, pr, func(d time.Duration) (int, bool) {
		a0 := sc.ackedSeq()
		t0 := time.Now()
		for q := sc.sentSeq() + 1; time.Since(t0) < d; q++ {
			for q-seq0 > rig.fol.ReplicationStatus().Applied-wal0+ingestReplWindow {
				time.Sleep(200 * time.Microsecond)
			}
			capPh.add(sc.sendObs(obsBatch(rig.w, pairs, rng), time.Time{}, false) == nil)
		}
		if drainErr = sc.waitAcked(15 * time.Second); drainErr != nil {
			return 0, true
		}
		deadline := time.Now().Add(15 * time.Second)
		for rig.fol.ReplicationStatus().Applied-wal0 < sc.sentSeq()-seq0 {
			if time.Now().After(deadline) {
				drainErr = errors.New("follower did not catch up after a capacity slice")
				return 0, true
			}
			time.Sleep(200 * time.Microsecond)
		}
		return int(sc.ackedSeq()-a0) * ingestObsBatch, false
	})
	capPh.elapsed = time.Since(cstart)
	capPh.note = cr.String() + " (acked observations)"
	if err = errors.Join(err, drainErr); err != nil {
		return nil, err
	}

	// Drain: every acknowledged observation must be counted in by the
	// leader and applied by the follower.
	acked := int64(sc.ackedSeq()+uint64(rig.jsonOK)) * ingestObsBatch
	leaderIn := rig.h.srv.Metrics().Counter("observations_in").Value()
	folObs := rig.fol.Metrics().Counter("repl_applied_observations")
	deadline := time.Now().Add(20 * time.Second)
	for folObs.Value() < acked && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	m1, err := rig.ln.metricsz()
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	lost := acked - folObs.Value()
	if lost < 0 {
		lost = 0
	}
	out.check("acked = leader observations_in", leaderIn == acked, "acked %d, observations_in %d", acked, leaderIn)
	out.check("acked = follower applied", folObs.Value() == acked, "follower repl_applied_observations %d", folObs.Value())
	out.check("acked-but-lost = 0", lost == 0, "%d", lost)
	st := rig.fol.ReplicationStatus()
	fmt.Fprintf(os.Stderr, "follower: applied seq %d, leader wal_appends %d, snapshots installed %d, resumes %d, last error %v\n",
		st.Applied, rig.h.srv.Metrics().Counter("wal_appends").Value(),
		rig.fol.Metrics().Counter("repl_snapshots_installed").Value(), st.Resumes, st.LastErr)
	out.check("stream errors = 0", sc.failure() == nil, "%v", sc.failure())

	// Stream Tick replies queue behind the connection's fsync waits, so
	// they are timed per layer (server.stream.tick_ms_p95); the fix
	// metrics are the /batch reads beside the writes.
	latencies(out, []*samples{&rec.fixLat}, []*samples{&rec.writeLat, &sc.ackLat}, start, windowedQ)
	out.capacity = cr
	out.e2e["capacity_per_s"] = cr.scaled()
	// The stream phone's fixes come from one walk on one device, so only
	// the /batch phones' fixes are sampled for the error.
	out.e2e["fix_error_p50_m"] = median(fixErrors(rig.w, rig.ss))
	open.note = fmt.Sprintf("%d /batch fix latencies, %d stream ticks, %d write latencies (%d stream acks); %d JSON batches accepted",
		rec.fixLat.len(), sc.tickLat.len(), rec.writeLat.len()+sc.ackLat.len(), sc.ackLat.len(), rig.jsonOK) + open.note

	if cfg.trace {
		lay := newLayers()
		lay.http(rig.spans, rec)
		lay.codecJSON(rec, rig.jsonBodies)
		lay.codecWire(sc.frames)
		tm := &trackerTiming{}
		if _, err := referenceFixes(rig.w, rig.ss, rig.h.srv.CompiledSnapshot(), false, tm); err != nil {
			return nil, err
		}
		lay.trackerReplay(tm)
		lay.motionLocalizer(rig.w, rig.ss, rig.h.srv.CompiledSnapshot(), false)
		lay.serverCounters(m0, m1, samp)
		lay.m["replica.applied_records"] = float64(folApplied.Value() - fa0)
		lay.m["replica.lag_records_max"] = float64(watch.maxRecords)
		lay.m["replica.lag_ms_p99"] = quantile(watch.lags, 0.99)
		lay.m["server.stream.tick_ms_p95"] = quantile(sc.tickLat.all(), 0.95)
		if err := lay.durableReplays(rig.w, filepath.Join(rig.dir, "replay"), sc.frames); err != nil {
			return nil, err
		}
		runtimeLayers(rt0, rt1, lay.m)
		out.layers = lay.m
	}
	return out, nil
}

// modeledDisk is the durable path's filesystem: the real disk for every
// operation except fsync, which instead takes a fixed modeledSync on the
// calling thread. The shared virtual disk's fsync latency swung two- to
// fourfold between runs and set every durable figure; a fixed cost keeps
// the WAL, group commit, checkpoint and replication logic under test
// while runs stay comparable. wal.fsync_us_* replays the real disk.
type modeledDisk struct{ fault.Disk }

func (modeledDisk) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := fault.Disk{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return modeledFile{f}, nil
}

func (modeledDisk) SyncDir(string) error {
	modeledFsync()
	return nil
}

type modeledFile struct{ fault.File }

func (modeledFile) Sync() error {
	modeledFsync()
	return nil
}

func modeledFsync() {
	ts := syscall.NsecToTimespec(int64(modeledSync))
	//lint:ignore errdrop an interrupted sleep only shortens one modeled fsync
	_ = syscall.Nanosleep(&ts, nil)
}

// obsBatch draws one batch of crowdsourced observations on trained
// pairs: map-true RLMs with a few degrees and decimeters of jitter.
func obsBatch(w *world, pairs [][2]int, rng *stats.RNG) []motiondb.Observation {
	b := make([]motiondb.Observation, ingestObsBatch)
	for i := range b {
		p := pairs[rng.Intn(len(pairs))]
		dir, off := floorplan.GroundTruthRLM(w.sys.Plan, p[0], p[1])
		b[i] = motiondb.Observation{From: p[0], To: p[1], RLM: motion.RLM{
			Dir: geom.NormalizeDeg(dir + rng.Uniform(-3, 3)),
			Off: off * (1 + rng.Uniform(-0.05, 0.05)),
		}}
	}
	return b
}

// postObs sends one JSON observation batch; the 202 comes only after the
// batch is durable in the leader's WAL.
func (r *ingestRig) postObs(body []byte, due time.Time, rec *httpRec, timed bool) bool {
	st, _, err := r.ln.do(http.MethodPost, "/v1/observations", body)
	if err != nil || st != http.StatusAccepted {
		return false
	}
	if timed {
		rec.writeLat.add(due, ms(time.Since(due)))
	}
	r.jsonOK++
	if rec.traced && len(r.jsonBodies) < keepBodies {
		r.jsonBodies = append(r.jsonBodies, body)
	}
	return true
}

// bootIngest boots the durable leader and its follower, creates the
// sessions, dials the stream, and warms every path once.
func bootIngest(cfg runCfg, r int, w *world, walks []*walk, phoneWalk *walk, rec *httpRec) (*ingestRig, error) {
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("ingest-%d-%d", os.Getpid(), r))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	leader, err := w.newServer(server.Options{
		DataDir:         filepath.Join(dir, "leader"),
		FsyncPolicy:     wal.SyncAlways,
		RetrainInterval: ingestRetrain,
		TrainGraph:      w.sys.Graph,
		FS:              modeledDisk{},
		// One segment holds the whole run, so checkpoints never truncate
		// records the follower has yet to read: a follower that needs a
		// mid-run checkpoint bootstrap after applying tail records is
		// refused by the server ("RestoreState on a builder with
		// accumulated samples"), which would fail the run.
		WALSegmentBytes: ingestSegment,
	})
	if err != nil {
		return nil, err
	}
	var spans *spanRec
	if cfg.trace {
		spans = newSpanRec()
	}
	h, err := serve(leader, spans, true)
	if err != nil {
		return nil, err
	}
	rig := &ingestRig{w: w, h: h, dir: dir, spans: spans, ln: newLane(h.base)}
	fol, err := w.newServer(server.Options{
		DataDir:         filepath.Join(dir, "follower"),
		FsyncPolicy:     wal.SyncAlways,
		RetrainInterval: ingestRetrain,
		TrainGraph:      w.sys.Graph,
		FS:              modeledDisk{},
		FollowAddr:      h.streamAddr,
	})
	if err != nil {
		rig.close()
		return nil, err
	}
	rig.fol = fol
	fol.Start()

	rig.phone = &sess{wk: phoneWalk}
	rig.ss = make([]*sess, len(walks))
	for i, wk := range walks {
		rig.ss[i] = &sess{wk: wk}
	}
	for _, s := range append([]*sess{rig.phone}, rig.ss...) {
		if s.id, err = rig.ln.createSession(s.wk.user.HeightM, s.wk.user.WeightKg); err != nil {
			rig.close()
			return nil, err
		}
	}
	if rig.sc, err = dialStream(h.streamAddr, fmt.Sprintf("phone-%d", r), rig.phone.id, cfg.trace); err != nil {
		rig.close()
		return nil, err
	}
	rng := stats.NewRNG(cfg.seed).Fork("ingest-warm")
	pairs := w.sys.MDB.Pairs()
	for i := 0; i < 16; i++ {
		if err := rig.sc.sendObs(obsBatch(w, pairs, rng), time.Now(), false); err != nil {
			rig.close()
			return nil, err
		}
	}
	body, err := json.Marshal(map[string]interface{}{"observations": obsBatch(w, pairs, rng)})
	if err != nil {
		rig.close()
		return nil, err
	}
	warmOK := rig.postObs(body, time.Now(), rec, false)
	if err := rig.sc.sendInterval(&rig.phone.wk.ivs[0], time.Now()); err != nil {
		rig.close()
		return nil, err
	}
	for _, s := range rig.ss {
		if _, ok := s.sendBatch(rig.ln, rec, time.Now(), false); !ok {
			warmOK = false
		}
	}
	if err := rig.sc.waitAcked(10 * time.Second); err != nil || !warmOK {
		rig.close()
		return nil, fmt.Errorf("ingest warm-up failed: %v", err)
	}
	// The follower is caught up once it has applied every record.
	walAppends := leader.Metrics().Counter("wal_appends")
	deadline := time.Now().Add(15 * time.Second)
	for fol.ReplicationStatus().Applied < uint64(walAppends.Value()) {
		if time.Now().After(deadline) {
			rig.close()
			return nil, errors.New("follower did not catch up during set-up")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return rig, nil
}

// streamClient is the benchmark's side of the binary stream protocol
// (internal/wire), written against wire's frame codec so every ack and
// tick reply is timestamped the moment it arrives: one sender goroutine
// writes, one reader goroutine records.
type streamClient struct {
	conn   net.Conn
	wr     *wire.Writer
	buf    []byte
	traced bool
	wg     sync.WaitGroup // the reader goroutine

	mu      sync.Mutex
	cond    *sync.Cond
	window  uint32
	acked   uint64
	nextSeq uint64
	obsDue  map[uint64]time.Time // timed observation batches awaiting ack
	ticks   map[uint64]time.Time // tick seq -> due
	tickSeq uint64
	err     error
	onAck   func(time.Time)

	ackLat, tickLat samples  // ms from due
	frames          [][]byte // encoded observation frames kept for the codec replay
}

func dialStream(addr, streamID, sessionID string, traced bool) (*streamClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &streamClient{conn: conn, wr: wire.NewWriter(conn), traced: traced, nextSeq: 1,
		obsDue: map[uint64]time.Time{}, ticks: map[uint64]time.Time{}}
	c.cond = sync.NewCond(&c.mu)
	rd := wire.NewReader(conn, wire.DefaultMaxPayload)
	c.wr.WriteFrame(wire.FrameHello, 0, wire.AppendHello(nil, streamID, sessionID))
	if err := c.wr.Flush(); err != nil {
		//lint:ignore errdrop the handshake already failed; the close error cannot add anything
		_ = conn.Close()
		return nil, err
	}
	fr, err := rd.ReadFrame()
	if err != nil || fr.Type != wire.FrameHelloAck {
		//lint:ignore errdrop the handshake already failed; the close error cannot add anything
		_ = conn.Close()
		return nil, fmt.Errorf("stream hello: frame %d, %v", fr.Type, err)
	}
	if c.window, err = wire.DecodeWindow(fr.Payload); err != nil {
		//lint:ignore errdrop the handshake already failed; the close error cannot add anything
		_ = conn.Close()
		return nil, err
	}
	c.wg.Add(1)
	go c.readLoop(rd)
	return c, nil
}

func (c *streamClient) readLoop(rd *wire.Reader) {
	defer c.wg.Done()
	for {
		fr, err := rd.ReadFrame()
		now := time.Now()
		c.mu.Lock()
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		switch fr.Type {
		case wire.FrameAck:
			if w, werr := wire.DecodeWindow(fr.Payload); werr == nil {
				c.window = w
			}
			for s := c.acked + 1; s <= fr.Seq; s++ {
				if due, ok := c.obsDue[s]; ok {
					c.ackLat.add(due, ms(now.Sub(due)))
					delete(c.obsDue, s)
				}
			}
			if fr.Seq > c.acked {
				c.acked = fr.Seq
			}
			c.cond.Broadcast()
			if c.onAck != nil {
				c.onAck(now)
			}
		case wire.FrameFix, wire.FrameNoFix:
			if due, ok := c.ticks[fr.Seq]; ok {
				delete(c.ticks, fr.Seq)
				if !due.IsZero() {
					c.tickLat.add(due, ms(now.Sub(due)))
				}
				if fr.Type == wire.FrameFix {
					if _, _, _, derr := wire.DecodeFix(fr.Payload); derr != nil && c.err == nil {
						c.err = derr
					}
				}
				c.cond.Broadcast()
			}
		case wire.FrameError:
			c.err = fmt.Errorf("stream error frame: %s", fr.Payload)
			c.cond.Broadcast()
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// sendObs pipelines one observation batch under the credit window,
// blocking while the window is full. timed batches get their ack
// latency recorded from due.
func (c *streamClient) sendObs(batch []motiondb.Observation, due time.Time, timed bool) error {
	c.mu.Lock()
	for c.err == nil && (c.window == 0 || c.nextSeq-1-c.acked >= uint64(c.window)) {
		c.cond.Wait()
	}
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	seq := c.nextSeq
	c.nextSeq++
	if timed {
		c.obsDue[seq] = due
	}
	c.mu.Unlock()
	c.buf = wire.AppendObservations(c.buf[:0], batch)
	if c.traced && len(c.frames) < keepBodies {
		c.frames = append(c.frames, wire.AppendFrame(nil, wire.FrameObsBatch, seq, c.buf))
	}
	c.wr.WriteFrame(wire.FrameObsBatch, seq, c.buf)
	return c.wr.Flush()
}

// sendInterval streams one walk interval of the bound session: its IMU
// batch, every scan, and a Tick whose reply is timed from due (due is
// zero for untimed warm-up).
func (c *streamClient) sendInterval(iv *interval, due time.Time) error {
	c.wr.WriteFrame(wire.FrameIMUBatch, 0, wire.AppendIMU(nil, iv.samples))
	for _, sc := range iv.scans {
		c.wr.WriteFrame(wire.FrameScan, 0, wire.AppendScan(nil, sc.T, sc.RSS))
	}
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return c.err
	}
	c.tickSeq++
	seq := c.tickSeq
	c.ticks[seq] = due
	c.mu.Unlock()
	c.wr.WriteFrame(wire.FrameTick, seq, wire.AppendTick(nil, iv.end))
	return c.wr.Flush()
}

// waitAcked blocks until every sent batch is acked and every tick
// answered, or the timeout passes.
func (c *streamClient) waitAcked(timeout time.Duration) error {
	timer := time.AfterFunc(timeout, func() {
		c.mu.Lock()
		if c.err == nil {
			c.err = errors.New("stream: timed out waiting for acks")
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.err == nil && (c.acked < c.nextSeq-1 || len(c.ticks) > 0) {
		c.cond.Wait()
	}
	return c.err
}

// reset drops the latencies recorded during set-up.
func (c *streamClient) reset() {
	c.mu.Lock()
	c.ackLat, c.tickLat = samples{}, samples{}
	c.mu.Unlock()
}

func (c *streamClient) setOnAck(fn func(time.Time)) {
	c.mu.Lock()
	c.onAck = fn
	c.mu.Unlock()
}

func (c *streamClient) sentSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextSeq - 1
}

func (c *streamClient) ackedSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

func (c *streamClient) failure() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// close hangs up and waits for the reader goroutine to exit.
func (c *streamClient) close() {
	//lint:ignore errdrop the benchmark is done with the stream; unacked frames no longer matter
	_ = c.conn.Close()
	c.wg.Wait()
}

// replWatch measures replication lag: for every leader ack, the time
// until the follower's applied sequence covers the leader's WAL tail as
// of that ack.
type replWatch struct {
	fol        *server.Server
	walAppends *obs.Counter
	stop, done chan struct{}

	mu         sync.Mutex
	pending    []lagTarget
	lags       []float64
	maxRecords uint64
}

type lagTarget struct {
	seq uint64
	at  time.Time
}

func startReplWatch(leader, fol *server.Server) *replWatch {
	r := &replWatch{fol: fol, walAppends: leader.Metrics().Counter("wal_appends"),
		stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r
}

func (r *replWatch) ack(at time.Time) {
	seq := uint64(r.walAppends.Value())
	r.mu.Lock()
	r.pending = append(r.pending, lagTarget{seq, at})
	r.mu.Unlock()
}

func (r *replWatch) loop() {
	defer close(r.done)
	for {
		applied := r.fol.ReplicationStatus().Applied
		now := time.Now()
		r.mu.Lock()
		if tail := uint64(r.walAppends.Value()); tail > applied && tail-applied > r.maxRecords {
			r.maxRecords = tail - applied
		}
		keep := r.pending[:0]
		for _, t := range r.pending {
			if t.seq <= applied {
				r.lags = append(r.lags, ms(now.Sub(t.at)))
			} else {
				keep = append(keep, t)
			}
		}
		r.pending = keep
		idle := len(r.pending) == 0
		r.mu.Unlock()
		wait := 200 * time.Microsecond
		if idle {
			wait = time.Millisecond
		}
		select {
		case <-r.stop:
			return
		case <-time.After(wait):
		}
	}
}

// drain waits until every ack's target is covered or the timeout passes.
func (r *replWatch) drain(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		r.mu.Lock()
		n := len(r.pending)
		r.mu.Unlock()
		if n == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func (r *replWatch) finish() {
	close(r.stop)
	<-r.done
}
