// Binary streaming ingest: the server side of internal/wire. A phone
// (or fleet pipeline) opens one persistent connection to the dedicated
// stream listener (molocd -stream-addr), hellos a resumable stream ID,
// and pipelines observation batches — each one appended to the WAL
// without its own fsync (wal.AppendNoSync) and acknowledged only after
// the group committer's covering fsync. The handler drains every frame
// already buffered on the connection before committing, so one fsync —
// and one ack frame — covers an entire burst; across connections the
// group committer amortizes further. Backpressure is credit-based: each
// ack advertises how many frames the server is willing to buffer,
// derived from the retrain queue's headroom, instead of the HTTP path's
// 429 shedding.
//
// Durability contract (same //moloc:durable invariant as the HTTP
// path): an acked frame's batch is in the WAL with a completed covering
// fsync under -fsync always, so kill -9 after an ack can never lose it.
// Within a live stream session frames are deduplicated by sequence
// number (exactly-once into the queue); after a server restart the
// stream registry is empty and the client resends its unacked tail
// (at-least-once into the database, never a loss).
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"moloc/internal/motiondb"
	"moloc/internal/sensors"
	"moloc/internal/tracker"
	"moloc/internal/wire"
)

// streamSession is the server-side resume state of one stream ID: the
// highest frame sequence acknowledged durable, for dedup and the
// hello-ack resume point. It outlives connections (reconnects resume
// it) and is pruned by the session sweeper once idle.
type streamSession struct {
	id string

	mu         sync.Mutex
	lastAcked  uint64
	lastActive time.Time
	conns      int
}

func (st *streamSession) acked() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastAcked
}

func (st *streamSession) setAcked(seq uint64, now time.Time) {
	st.mu.Lock()
	if seq > st.lastAcked {
		st.lastAcked = seq
	}
	st.lastActive = now
	st.mu.Unlock()
}

// idle reports whether the stream has no live connection and has been
// inactive past ttl.
func (st *streamSession) idle(ttl time.Duration, now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.conns == 0 && now.Sub(st.lastActive) >= ttl
}

// streamPlane is the streaming plane's registry: listeners and
// connections tracked for shutdown, plus the resumable per-stream ack
// state. It lives inside Server as a value with its own mutex so the
// serving path's s.mu never contends with accept/teardown traffic.
type streamPlane struct {
	mu       sync.Mutex
	closed   bool
	lns      map[net.Listener]struct{}
	conns    map[net.Conn]struct{}
	sessions map[string]*streamSession
	wg       sync.WaitGroup
}

func (sp *streamPlane) init() {
	sp.mu.Lock()
	sp.lns = make(map[net.Listener]struct{})
	sp.conns = make(map[net.Conn]struct{})
	sp.sessions = make(map[string]*streamSession)
	sp.mu.Unlock()
}

// sessionFor resolves (or creates) the stream session for id, attaching
// this connection. resumed reports whether the ID was already known —
// i.e. the client is reconnecting with resume.
func (sp *streamPlane) sessionFor(id string, now time.Time) (st *streamSession, resumed bool) {
	sp.mu.Lock()
	st, resumed = sp.sessions[id]
	if st == nil {
		st = &streamSession{id: id, lastActive: now}
		sp.sessions[id] = st
	}
	sp.mu.Unlock()
	st.mu.Lock()
	st.conns++
	st.lastActive = now
	st.mu.Unlock()
	return st, resumed
}

// release detaches a connection from its stream session.
func (sp *streamPlane) release(st *streamSession) {
	st.mu.Lock()
	st.conns--
	st.mu.Unlock()
}

// sweep drops stream sessions idle beyond ttl (their resume state is
// only worth keeping while a client might come back). Called from the
// server's sweepOnce.
func (sp *streamPlane) sweep(ttl time.Duration, now time.Time) int {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	pruned := 0
	for id, st := range sp.sessions {
		if st.idle(ttl, now) {
			delete(sp.sessions, id)
			pruned++
		}
	}
	return pruned
}

// register adds an accept listener, refusing when the plane is already
// shut down.
func (sp *streamPlane) register(ln net.Listener) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return false
	}
	sp.lns[ln] = struct{}{}
	return true
}

func (sp *streamPlane) unregister(ln net.Listener) {
	sp.mu.Lock()
	delete(sp.lns, ln)
	sp.mu.Unlock()
}

// track admits one accepted connection into the shutdown set and
// reserves its handler in the waitgroup; false means the plane closed
// while the accept was in flight and the caller must drop the conn.
func (sp *streamPlane) track(conn net.Conn) bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.closed {
		return false
	}
	sp.conns[conn] = struct{}{}
	sp.wg.Add(1)
	return true
}

// done removes a finished connection from the shutdown set and retires
// its handler's waitgroup slot.
func (sp *streamPlane) done(conn net.Conn) {
	sp.mu.Lock()
	delete(sp.conns, conn)
	sp.mu.Unlock()
	sp.wg.Done()
}

// isClosed reports whether the plane has begun shutdown.
func (sp *streamPlane) isClosed() bool {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.closed
}

// closeAll tears down the streaming plane: stop accepting, close every
// live connection, and join the handlers.
func (sp *streamPlane) closeAll() {
	sp.mu.Lock()
	sp.closed = true
	for ln := range sp.lns {
		//lint:ignore errdrop the listener is being torn down; nothing can act on the error
		_ = ln.Close()
	}
	for conn := range sp.conns {
		//lint:ignore errdrop the handler sees the reset and exits; the close error is moot
		_ = conn.Close()
	}
	sp.mu.Unlock()
	sp.wg.Wait()
}

// streamWindow derives the credit window from the retrain queue's
// headroom: full batches the queue can still absorb, capped by
// Options.StreamWindow and floored at 1 so a loaded server slows
// clients down rather than wedging them (a stalled enqueue blocks in
// acceptStreamBatch, which is what the window is trying to prevent
// getting deep).
func (s *Server) streamWindow() uint32 {
	w := (s.opts.ObsQueueCap - s.retrain.pendingLen()) / maxObsBatch
	if w < 1 {
		w = 1
	}
	if w > s.opts.StreamWindow {
		w = s.opts.StreamWindow
	}
	return uint32(w)
}

// ServeStreams accepts stream connections on ln until the listener
// closes (Close closes every registered listener). It blocks like
// http.Serve; run it on its own goroutine.
func (s *Server) ServeStreams(ln net.Listener) error {
	if !s.stream.register(ln) {
		//lint:ignore errdrop refusing a post-shutdown listener; its close error changes nothing
		_ = ln.Close()
		return errors.New("server: shutting down")
	}
	defer s.stream.unregister(ln)
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.stream.isClosed() {
				return nil
			}
			return err
		}
		if !s.stream.track(conn) {
			//lint:ignore errdrop shutdown raced the accept; the conn is abandoned either way
			_ = conn.Close()
			return nil
		}
		go s.handleStreamConn(conn)
	}
}

// closeStreams tears down the streaming plane. Called by Close before
// the WAL is closed so no handler can append to a closed log.
func (s *Server) closeStreams() {
	s.stream.closeAll()
}

// handleStreamConn owns one connection: hello handshake, then the
// drain-and-commit frame loop.
func (s *Server) handleStreamConn(conn net.Conn) {
	defer s.stream.done(conn)
	defer conn.Close()
	s.met.streamConns.Inc()

	// This goroutine is the connection's only writer: every frame the
	// server sends on it answers a frame read here.
	rd := wire.NewReader(conn, wire.DefaultMaxPayload)
	wr := wire.NewWriter(conn)

	fr, err := rd.ReadFrame()
	if err != nil {
		s.met.streamErrors.Inc()
		return
	}
	if fr.Type == wire.FrameReplHello {
		// A follower is attaching: hand the connection to the replication
		// service (replication.go) — same listener, different protocol.
		s.serveRepl(conn, rd, wr, fr)
		return
	}
	if fr.Type != wire.FrameHello {
		s.streamFail(wr, fr.Seq, "expected hello frame")
		return
	}
	streamID, sessionID, err := wire.DecodeHello(fr.Payload)
	if err != nil || streamID == "" {
		s.streamFail(wr, fr.Seq, "bad hello: missing stream id")
		return
	}
	var ss *session
	if sessionID != "" {
		ss, _ = s.reg.get(sessionID)
		if ss == nil {
			s.streamFail(wr, fr.Seq, "unknown session "+sessionID)
			return
		}
	}
	now := s.opts.Now()
	st, resumed := s.stream.sessionFor(streamID, now)
	defer s.stream.release(st)
	if resumed {
		s.met.streamResumes.Inc()
	}
	// The hello-ack's sequence is the resume point: the client drops
	// every pending frame at or below it and resends the rest.
	wr.WriteFrame(wire.FrameHelloAck, st.acked(), wire.AppendWindow(nil, s.streamWindow()))
	if err := wr.Flush(); err != nil {
		s.met.streamErrors.Inc()
		return
	}
	if err := s.serveStreamFrames(rd, wr, st, ss); err != nil {
		s.met.streamErrors.Inc()
	}
}

// streamFail answers a failed frame — a protocol violation, a refused
// request, or a shed — with an error frame and gives up on the
// connection.
func (s *Server) streamFail(wr *wire.Writer, seq uint64, msg string) {
	s.met.streamErrors.Inc()
	wr.WriteError(seq, msg)
	//lint:ignore errdrop the connection is being abandoned either way
	_ = wr.Flush()
}

// streamScratch is the per-connection reused decode state: observation,
// IMU, and scan slices frames decode into, and the tick's fix buffer.
// One connection serves one frame at a time, so a single set suffices
// and steady-state decodes allocate nothing.
type streamScratch struct {
	//moloc:reuse
	obs []motiondb.Observation
	//moloc:reuse
	imu []sensors.Sample
	//moloc:reuse
	rss []float64
	//moloc:reuse
	fixes []tracker.Fix
	scan  [1]scanReq
}

// serveStreamFrames is the connection's frame loop, and the streaming
// twin of handleObservations' durability contract: acks are released
// (wire.Writer.WriteAck) only after the batches they cover were
// appended to the WAL (acceptStreamBatch → ingest) and the covering
// fsync completed (waitDurable). This is the only place stream acks are
// written. The
// drain-then-commit shape — accept every fully buffered frame, then
// commit once — is what batches a burst under a single fsync.
//
//moloc:durable
func (s *Server) serveStreamFrames(rd *wire.Reader, wr *wire.Writer, st *streamSession, ss *session) error {
	var (
		scratch    streamScratch
		ackSeq     uint64 // highest frame sequence to acknowledge at the next commit
		ackWALSeq  uint64 // WAL sequence whose durability must cover that ack
		connExpect uint64 // next expected obs frame sequence on this connection
	)
	for {
		fr, err := rd.ReadFrame()
		if err != nil {
			// EOF and reset are how clients hang up; only mid-frame
			// garbage is a protocol error, and either way the connection
			// is done. Unacked-but-appended batches are not lost: they
			// replay from the WAL, and the client resends them on resume
			// (dedup via st.lastAcked).
			return nil
		}
		s.met.streamFrames.Inc()
		switch fr.Type {
		case wire.FrameObsBatch:
			var accepted uint64
			if accepted, err = s.acceptStreamBatch(st, fr, &scratch, &connExpect); err == nil {
				ackWALSeq = max(ackWALSeq, accepted)
				// A duplicate of an already-acked frame re-acks.
				ackSeq = max(ackSeq, fr.Seq, st.acked())
			}
		case wire.FrameIMUBatch, wire.FrameScan, wire.FrameTick:
			err = s.streamClient(ss, wr, fr, &scratch)
		default:
			err = fmt.Errorf("unexpected frame type %d", fr.Type)
		}
		// Drain-then-commit: only when no complete frame is already
		// buffered does the covering fsync run and the cumulative ack go
		// out — one ack (and at most one fsync wait) per burst. A failed
		// frame (a shed, say) commits the batches appended ahead of it
		// first, so a resume does not resend and ingest them again.
		if ackSeq > 0 && (err != nil || !rd.FrameBuffered()) {
			if err := s.waitDurable(ackWALSeq); err != nil {
				return err // the covering fsync failed: the frames must not be acked
			}
			st.setAcked(ackSeq, s.opts.Now())
			s.met.streamAcks.Inc()
			wr.WriteAck(ackSeq, s.streamWindow())
			if err := wr.Flush(); err != nil {
				return err
			}
			ackSeq, ackWALSeq = 0, 0
		}
		if err != nil {
			s.streamFail(wr, fr.Seq, err.Error())
			return err
		}
	}
}

// acceptStreamBatch decodes, validates, and durably enqueues one
// observation-batch frame. The frame's payload bytes become the WAL
// record payload unchanged (no re-encode); the frame loop waits for
// the returned WAL sequence to be durable before acking (0 for
// duplicates or with durability off). Invalid observations inside a
// batch are dropped and counted (keepValid). A full queue blocks here
// (backpressure), shedding only at server shutdown.
func (s *Server) acceptStreamBatch(st *streamSession, fr wire.Frame, scratch *streamScratch, connExpect *uint64) (uint64, error) {
	// Same write fence as the HTTP 409: a replica's WAL only ever holds
	// what the leader shipped.
	if s.role.Load() == roleFollower {
		return 0, errors.New("read replica: send observation frames to the leader at " + s.opts.FollowAddr)
	}
	if fr.Seq <= st.acked() {
		return 0, nil // duplicate of an acknowledged frame; caller re-acks
	}
	if *connExpect != 0 && fr.Seq != *connExpect {
		return 0, fmt.Errorf("frame sequence gap: got %d, expected %d", fr.Seq, *connExpect)
	}
	obs, err := wire.DecodeObservations(fr.Payload, scratch.obs)
	if err != nil {
		return 0, fmt.Errorf("observation batch %d: %w", fr.Seq, err)
	}
	scratch.obs = obs
	if len(obs) > maxObsBatch {
		return 0, fmt.Errorf("batch of %d observations exceeds the %d cap", len(obs), maxObsBatch)
	}
	valid, dropped := keepValid(obs, s.plan.NumLocs())
	s.met.observationsDropped.Add(dropped)
	seq, err := s.ingest(fr.Payload, valid, true)
	if err != nil {
		return 0, err
	}
	*connExpect = fr.Seq + 1
	return seq, nil
}

// streamClient is the stream codec over serveClient (server.go): it
// decodes an IMU, Scan or Tick frame into the transport-neutral request
// and answers a Tick with FrameFix (the newest fix) or FrameNoFix,
// echoing the frame's sequence.
func (s *Server) streamClient(ss *session, wr *wire.Writer, fr wire.Frame, scratch *streamScratch) error {
	if ss == nil {
		return errors.New("data frame on a stream with no tracking session")
	}
	var req clientReq
	switch fr.Type {
	case wire.FrameIMUBatch:
		samples, err := wire.DecodeIMU(fr.Payload, scratch.imu)
		if err != nil {
			return fmt.Errorf("imu frame %d: %w", fr.Seq, err)
		}
		scratch.imu, req.samples = samples, samples
	case wire.FrameScan:
		t, rss, err := wire.DecodeScan(fr.Payload, scratch.rss)
		if err != nil {
			return fmt.Errorf("scan frame %d: %w", fr.Seq, err)
		}
		scratch.rss = rss
		// The tracker buffers a scan until its interval closes, so the
		// readings must outlive this frame's decode buffer.
		scratch.scan[0] = scanReq{T: t, RSS: append([]float64(nil), rss...)}
		req.scans = scratch.scan[:]
	default:
		t, err := wire.DecodeTick(fr.Payload)
		if err != nil {
			return err
		}
		req.tick, req.t = true, t
	}
	fixes, err := s.serveClient(ss, req, scratch.fixes[:0])
	scratch.fixes = fixes
	if errors.Is(err, errShed) {
		s.countShed(s.met.shedStream) // answered by the loop's Error frame
	}
	if err != nil || !req.tick {
		return err
	}
	if len(fixes) == 0 {
		wr.WriteFrame(wire.FrameNoFix, fr.Seq, nil)
	} else {
		fix := fixes[len(fixes)-1]
		wr.WriteFrame(wire.FrameFix, fr.Seq, wire.AppendFix(nil, fix.T, fix.Loc, fix.Moved))
	}
	return wr.Flush()
}
