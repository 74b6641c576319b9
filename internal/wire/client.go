// Client is the phone side of the streaming protocol: it pipelines
// observation batches under the server's credit window, retains every
// unacknowledged frame, and on reconnect resumes from the server's
// last-acked sequence — resending exactly the frames whose durability
// was never confirmed. Delivery is therefore at-least-once: a crash
// between append and ack may hand the server a duplicate, never a loss.
package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"moloc/internal/motiondb"
	"moloc/internal/sensors"
)

// ClientOptions tune dialing and resilience; the zero value is usable.
type ClientOptions struct {
	// SessionID scopes IMU/scan/tick frames to a tracking session
	// created over the HTTP API. Empty for observation-only streams.
	SessionID string
	// RedialAttempts bounds reconnection tries per send (0 = 1: one
	// redial, then fail).
	RedialAttempts int
	// RedialWait is the pause between reconnection tries.
	RedialWait time.Duration
	// MaxPending bounds the retransmit buffer: the most sent-but-unacked
	// observation frames the client retains for resend-on-resume, even
	// when the server advertises a larger credit window (0 =
	// DefaultMaxPending). Senders block at the bound, so per-stream
	// memory stays capped no matter what window the server offers.
	MaxPending int
	// Dial overrides net.Dial, e.g. for in-process benchmarks.
	Dial func() (net.Conn, error)
}

// pendingFrame is one sent-but-unacked observation batch. The payload
// buffer is owned by the client and recycled once the frame is acked.
type pendingFrame struct {
	seq     uint64
	payload []byte
}

// tickReply is the server's answer to one tick frame.
type tickReply struct {
	ok    bool // false = NoFix
	t     float64
	loc   int
	moved bool
	err   error
}

// Client streams frames to one molocd stream listener. Safe for use
// from one goroutine; the internal reader goroutine is coordinated
// through the mutex.
type Client struct {
	addr     string
	streamID string
	opts     ClientOptions

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on ack progress, window change, conn death
	conn    net.Conn
	wr      *Writer
	connGen int   // increments per successful dial; stale readers exit quietly
	dead    bool  // current conn is known broken; redial before next send
	lastErr error // why the current conn died (diagnostics only)
	refused error // a server error frame no waiting tick heard; the next session frame reports it
	closed  bool

	nextSeq uint64 // next observation frame sequence to assign
	acked   uint64 // highest cumulative ack received
	window  uint32 // server's advertised credit window
	pending []pendingFrame
	free    [][]byte // recycled payload buffers

	ticks   map[uint64]chan tickReply
	tickSeq uint64

	resumes int // completed reconnect-with-resume handshakes
	wg      sync.WaitGroup
}

// errClosed reports use after Close.
var errClosed = errors.New("wire: client is closed")

// DefaultMaxPending caps the retransmit buffer when
// ClientOptions.MaxPending is zero.
const DefaultMaxPending = 1024

// ErrResumeGap reports a reconnect whose hello-ack resume point went
// backwards past frames the client has already released: the server's
// acked sequence is below what this client saw acknowledged (its
// durable state regressed — a wiped data dir, a different instance
// behind the same address), or above what this client ever sent (a
// stream-ID collision). Either way the retransmit buffer cannot close
// the gap, so the stream cannot safely resume under this identity.
var ErrResumeGap = errors.New("wire: resume gap: server ack state does not match this stream")

// DialStream connects, performs the hello handshake, and returns a
// ready client. streamID is the resumable stream identity: reconnects
// under the same ID resume from the server's last acknowledged frame.
func DialStream(addr, streamID string, opts ClientOptions) (*Client, error) {
	c := &Client{
		addr:     addr,
		streamID: streamID,
		opts:     opts,
		nextSeq:  1,
		ticks:    make(map[uint64]chan tickReply),
	}
	c.cond = sync.NewCond(&c.mu)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.redialLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// redialLocked (re)establishes the connection: dial, hello, helloAck,
// drop pending frames the server already has, queue the rest for
// resend. Called with c.mu held.
func (c *Client) redialLocked() error {
	if c.conn != nil {
		//lint:ignore errdrop the old connection is already considered dead
		_ = c.conn.Close()
		c.conn = nil
	}
	var conn net.Conn
	var err error
	if c.opts.Dial != nil {
		conn, err = c.opts.Dial()
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return err
	}
	wr := NewWriter(conn)
	rd := NewReader(conn, DefaultMaxPayload)
	wr.WriteFrame(FrameHello, 0, AppendHello(nil, c.streamID, c.opts.SessionID))
	if err := wr.Flush(); err != nil {
		//lint:ignore errdrop the dial already failed; the close error cannot add anything
		_ = conn.Close()
		return err
	}
	fr, err := rd.ReadFrame()
	if err != nil {
		//lint:ignore errdrop the handshake already failed; the close error cannot add anything
		_ = conn.Close()
		return err
	}
	switch fr.Type {
	case FrameHelloAck:
	case FrameError:
		//lint:ignore errdrop the server refused the hello; the close error cannot add anything
		_ = conn.Close()
		return fmt.Errorf("wire: server refused hello: %s", fr.Payload)
	default:
		//lint:ignore errdrop the handshake already failed; the close error cannot add anything
		_ = conn.Close()
		return fmt.Errorf("wire: expected hello-ack, got frame type %d", fr.Type)
	}
	window, err := DecodeWindow(fr.Payload)
	if err != nil {
		//lint:ignore errdrop the handshake already failed; the close error cannot add anything
		_ = conn.Close()
		return err
	}
	serverAcked := fr.Seq

	resumed := c.connGen > 0 // any dial after the first resumes the stream
	if resumed && serverAcked >= c.nextSeq {
		// The server claims acks for frames this client never sent: a
		// stream-identity collision (two clients sharing an ID, or a
		// stale address answering for another deployment). Refuse rather
		// than resume into someone else's history. A resume point *below*
		// c.acked is not a gap — a restarted server's registry starts
		// empty and the unacked tail simply resends (at-least-once).
		//lint:ignore errdrop the resume is being refused; the close error cannot add anything
		_ = conn.Close()
		return fmt.Errorf("wire: server resume point %d vs client acked %d, next seq %d: %w",
			serverAcked, c.acked, c.nextSeq, ErrResumeGap)
	}
	c.conn = conn
	c.wr = wr
	c.window = window
	c.dead = false
	c.connGen++
	if serverAcked > c.acked {
		c.acked = serverAcked
		if serverAcked >= c.nextSeq {
			// First dial against a stream that already has durable
			// history (a restarted sender reusing its identity): adopt
			// the server's position so new frames extend it.
			c.nextSeq = serverAcked + 1
		}
	}
	c.releaseAckedLocked()
	// Resend every frame the server has not confirmed, in order.
	for i := range c.pending {
		c.wr.WriteFrame(FrameObsBatch, c.pending[i].seq, c.pending[i].payload)
	}
	if len(c.pending) > 0 {
		if err := c.wr.Flush(); err != nil {
			c.markDeadLocked(err)
			return err
		}
	}
	if resumed {
		c.resumes++
	}

	c.wg.Add(1)
	go c.readLoop(conn, rd, c.connGen)
	return nil
}

// readLoop drains server frames for one connection generation: acks
// advance the window and recycle pending buffers; fix/no-fix frames
// answer waiting ticks, and one whose sequence matches no waiting tick
// is ignored. It exits when its connection dies or the client
// closes, and is joined by Close through the WaitGroup.
func (c *Client) readLoop(conn net.Conn, rd *Reader, gen int) {
	defer c.wg.Done()
	for {
		fr, err := rd.ReadFrame()
		c.mu.Lock()
		if c.closed || gen != c.connGen {
			c.mu.Unlock()
			return
		}
		if err != nil {
			c.markDeadLocked(err)
			c.mu.Unlock()
			return
		}
		switch fr.Type {
		case FrameAck:
			if w, werr := DecodeWindow(fr.Payload); werr == nil {
				c.window = w
			}
			if fr.Seq > c.acked {
				c.acked = fr.Seq
			}
			c.releaseAckedLocked()
			c.cond.Broadcast()
		case FrameFix:
			if ch, ok := c.ticks[fr.Seq]; ok {
				delete(c.ticks, fr.Seq)
				t, loc, moved, derr := DecodeFix(fr.Payload)
				ch <- tickReply{ok: true, t: t, loc: loc, moved: moved, err: derr}
			}
		case FrameNoFix:
			if ch, ok := c.ticks[fr.Seq]; ok {
				delete(c.ticks, fr.Seq)
				ch <- tickReply{ok: false}
			}
		case FrameError:
			// The server drops the refused frame and every frame
			// pipelined behind it. Fire-and-forget IMU and scan frames
			// carry sequence 0, so when no tick is waiting to hear such
			// an error, the next session frame reports it instead.
			err := fmt.Errorf("wire: server error: %s", fr.Payload)
			if ch, ok := c.ticks[fr.Seq]; ok {
				delete(c.ticks, fr.Seq)
				ch <- tickReply{err: err}
			} else if fr.Seq == 0 && len(c.ticks) == 0 {
				c.refused = err
			}
			c.markDeadLocked(err)
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
	}
}

// markDeadLocked records a broken connection, fails every tick still
// waiting on it (its reply can no longer come), and wakes every waiter
// so blocked senders can trigger a redial.
func (c *Client) markDeadLocked(err error) {
	c.lastErr = err
	c.dead = true
	if c.conn != nil {
		//lint:ignore errdrop the connection is being declared dead because of err; err is what matters
		_ = c.conn.Close()
	}
	for seq, ch := range c.ticks {
		ch <- tickReply{err: fmt.Errorf("wire: connection lost before tick reply: %w", err)}
		delete(c.ticks, seq)
	}
	c.cond.Broadcast()
}

// releaseAckedLocked recycles the payload buffers of every pending
// frame now covered by the cumulative ack.
func (c *Client) releaseAckedLocked() {
	n := 0
	for n < len(c.pending) && c.pending[n].seq <= c.acked {
		c.free = append(c.free, c.pending[n].payload[:0])
		n++
	}
	if n > 0 {
		c.pending = c.pending[:copy(c.pending, c.pending[n:])]
	}
}

// ensureConnLocked redials (with the configured retry budget) when the
// connection is known broken.
func (c *Client) ensureConnLocked() error {
	if c.closed {
		return errClosed
	}
	if c.conn != nil && !c.dead {
		return nil
	}
	attempts := c.opts.RedialAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 && c.opts.RedialWait > 0 {
			c.mu.Unlock()
			time.Sleep(c.opts.RedialWait)
			c.mu.Lock()
			if c.closed {
				return errClosed
			}
		}
		if err = c.redialLocked(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("wire: redial failed after %d attempts: %w", attempts, err)
}

// sendLimitLocked is the effective credit: the server's advertised
// window clamped to the client's retransmit-buffer bound.
func (c *Client) sendLimitLocked() int {
	limit := int(c.window)
	bound := c.opts.MaxPending
	if bound <= 0 {
		bound = DefaultMaxPending
	}
	if limit > bound {
		limit = bound
	}
	return limit
}

// SendObservations encodes one batch, waits for credit, and pipelines
// the frame. It blocks while the number of unacked frames meets the
// server's advertised window, and transparently reconnects (resuming
// from the last ack) when the connection has died. The batch is copied
// into a client-owned buffer, so the caller may reuse obs immediately.
func (c *Client) SendObservations(obs []motiondb.Observation) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureConnLocked(); err != nil {
		return err
	}
	// Credit gate: window counts unacked frames the server will buffer,
	// clamped by MaxPending so the retransmit buffer stays bounded even
	// under an extravagant server window.
	for !c.dead && !c.closed && c.window > 0 && len(c.pending) >= c.sendLimitLocked() {
		c.cond.Wait()
	}
	if c.window == 0 && !c.dead {
		// A zero window is the server telling us to back off entirely;
		// poll by waiting for the next ack (which re-advertises credit).
		for !c.dead && !c.closed && c.window == 0 {
			c.cond.Wait()
		}
	}
	if c.closed {
		return errClosed
	}
	if c.dead {
		if err := c.ensureConnLocked(); err != nil {
			return err
		}
	}

	var buf []byte
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	buf = AppendObservations(buf, obs)
	seq := c.nextSeq
	c.nextSeq++
	c.pending = append(c.pending, pendingFrame{seq: seq, payload: buf})
	c.wr.WriteFrame(FrameObsBatch, seq, buf)
	if err := c.wr.Flush(); err != nil {
		c.markDeadLocked(err)
		// The frame is pending; the next send's redial will resend it.
		return nil
	}
	return nil
}

// SendIMU streams an IMU batch for the scoped tracking session.
// Fire-and-forget: no ack, no durability. If the server refuses it (a
// shed, say), the next SendIMU, SendScan or Tick returns that error.
func (c *Client) SendIMU(samples []sensors.Sample) error {
	return c.sendSessionFrame(FrameIMUBatch, 0, func(buf []byte) []byte {
		return AppendIMU(buf, samples)
	})
}

// SendScan streams one WiFi scan for the scoped tracking session.
func (c *Client) SendScan(t float64, rss []float64) error {
	return c.sendSessionFrame(FrameScan, 0, func(buf []byte) []byte {
		return AppendScan(buf, t, rss)
	})
}

func (c *Client) sendSessionFrame(typ uint8, seq uint64, enc func([]byte) []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureSessionConnLocked(); err != nil {
		return err
	}
	var buf []byte
	if n := len(c.free); n > 0 {
		buf, c.free = c.free[n-1], c.free[:n-1]
	}
	buf = enc(buf)
	c.wr.WriteFrame(typ, seq, buf)
	c.free = append(c.free, buf[:0])
	err := c.wr.Flush()
	if err != nil {
		c.markDeadLocked(err)
	}
	return err
}

// ensureSessionConnLocked is ensureConnLocked for IMU, scan and tick
// frames: it first reports, once, a server error that refused an
// earlier session frame unheard, since the frames sent behind it were
// dropped. The call after it redials.
func (c *Client) ensureSessionConnLocked() error {
	if err := c.refused; err != nil {
		c.refused = nil
		return err
	}
	return c.ensureConnLocked()
}

// Tick advances the scoped session's clock and waits for the server's
// fix (ok=false when the interval produced none).
func (c *Client) Tick(t float64) (loc int, moved, ok bool, err error) {
	c.mu.Lock()
	if cerr := c.ensureSessionConnLocked(); cerr != nil {
		c.mu.Unlock()
		return 0, false, false, cerr
	}
	c.tickSeq++
	seq := c.tickSeq
	ch := make(chan tickReply, 1)
	c.ticks[seq] = ch
	c.wr.WriteFrame(FrameTick, seq, AppendTick(nil, t))
	if err := c.wr.Flush(); err != nil {
		delete(c.ticks, seq)
		c.markDeadLocked(err)
		c.mu.Unlock()
		return 0, false, false, err
	}
	c.mu.Unlock()
	rep := <-ch
	return rep.loc, rep.moved, rep.ok, rep.err
}

// WaitAcked blocks until every sent observation frame has been
// acknowledged durable, reconnecting and resending as needed.
func (c *Client) WaitAcked() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.pending) > 0 {
		if c.closed {
			return errClosed
		}
		if c.dead {
			if err := c.ensureConnLocked(); err != nil {
				return err
			}
		}
		c.cond.Wait()
	}
	return nil
}

// Acked returns the highest frame sequence the server has confirmed
// durable.
func (c *Client) Acked() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

// Resumes reports how many reconnect-with-resume handshakes have
// completed (0 on a connection that never dropped).
func (c *Client) Resumes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resumes
}

// Pending reports the number of sent-but-unacked observation frames.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Close tears the connection down and joins the reader goroutine.
// Unacked frames are dropped — call WaitAcked first when delivery
// matters.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	if c.conn != nil {
		//lint:ignore errdrop Close drops unacked frames by contract; a close error adds nothing
		_ = c.conn.Close()
	}
	for seq, ch := range c.ticks {
		ch <- tickReply{err: errClosed}
		delete(c.ticks, seq)
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	return nil
}
