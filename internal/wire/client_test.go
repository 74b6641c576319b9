package wire

import (
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"moloc/internal/motion"
	"moloc/internal/motiondb"
)

var clientTestObs = []motiondb.Observation{{From: 1, To: 2, RLM: motion.RLM{Dir: 90, Off: 3}}}

// scriptedAckServer accepts connections and answers each hello with a
// scripted hello-ack sequence (one entry per connection; the last entry
// repeats). Data frames are acked per the ack function, which returns
// the ack sequence to send (0 = stay silent) and whether to then drop
// the connection.
func scriptedAckServer(t *testing.T, helloAcks []uint64, window uint32,
	ack func(conn int, fr Frame) (uint64, bool)) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for conn := 0; ; conn++ {
			cn, err := ln.Accept()
			if err != nil {
				return
			}
			resume := helloAcks[len(helloAcks)-1]
			if conn < len(helloAcks) {
				resume = helloAcks[conn]
			}
			go func(cn net.Conn, conn int, resume uint64) {
				defer cn.Close()
				rd := NewReader(cn, 0)
				wr := NewWriter(cn)
				if fr, err := rd.ReadFrame(); err != nil || fr.Type != FrameHello {
					return
				}
				wr.WriteFrame(FrameHelloAck, resume, AppendWindow(nil, window))
				wr.Flush()
				for {
					fr, err := rd.ReadFrame()
					if err != nil {
						return
					}
					if ack == nil {
						continue
					}
					seq, drop := ack(conn, fr)
					if seq > 0 {
						wr.WriteAck(seq, window)
						wr.Flush()
					}
					if drop {
						return
					}
				}
			}(cn, conn, resume)
		}
	}()
	return ln
}

// TestClientResumeGap tables the resume handshake's accept/reject
// paths: a server whose hello-ack names frames this client never sent
// is a different stream's history (typed ErrResumeGap), while a server
// that lost its registry (ack regressed below the client's) resumes
// fine — the unacked tail resends, at-least-once.
func TestClientResumeGap(t *testing.T) {
	cases := []struct {
		name string
		// hello-ack per connection: conn 0, then every resume conn.
		helloAcks []uint64
		wantGap   bool
	}{
		// Resume point past everything the client ever sent: refuse.
		{name: "server ahead of client", helloAcks: []uint64{0, 100}, wantGap: true},
		// Restarted server forgot its acks: resend, don't refuse.
		{name: "server regressed", helloAcks: []uint64{0, 0}, wantGap: false},
		// Same position on both sides: plain resume.
		{name: "server matches", helloAcks: []uint64{0, 1}, wantGap: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln := scriptedAckServer(t, tc.helloAcks, 8, func(conn int, fr Frame) (uint64, bool) {
				if conn == 0 {
					// Ack the first frame, then drop to force a resume.
					return 1, fr.Seq >= 1
				}
				return fr.Seq, false
			})
			defer ln.Close()

			c, err := DialStream(ln.Addr().String(), "gap-"+tc.name, ClientOptions{
				RedialAttempts: 3, RedialWait: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var sendErr error
			for i := 0; i < 3 && sendErr == nil; i++ {
				sendErr = c.SendObservations(clientTestObs)
			}
			if sendErr == nil {
				// A send that hit the dying connection returns nil and
				// defers the redial; WaitAcked drives it and surfaces
				// the resume verdict either way.
				sendErr = c.WaitAcked()
			}
			if tc.wantGap {
				if !errors.Is(sendErr, ErrResumeGap) {
					t.Fatalf("err = %v, want ErrResumeGap", sendErr)
				}
				return
			}
			if sendErr != nil {
				t.Fatalf("err = %v, want clean resume", sendErr)
			}
			if c.Acked() != 3 {
				t.Fatalf("acked = %d, want 3", c.Acked())
			}
			if c.Resumes() != 1 {
				t.Fatalf("resumes = %d, want 1", c.Resumes())
			}
		})
	}
}

// TestClientFreshDialAdoptsServerPosition covers stream-ID reuse by a
// restarted sender: the first dial of a fresh client against a stream
// with durable history adopts the server's ack position instead of
// refusing, and new frames extend it.
func TestClientFreshDialAdoptsServerPosition(t *testing.T) {
	ln := scriptedAckServer(t, []uint64{7}, 8, func(_ int, fr Frame) (uint64, bool) {
		return fr.Seq, false
	})
	defer ln.Close()

	c, err := DialStream(ln.Addr().String(), "adopt", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendObservations(clientTestObs); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
	// The new frame went out as seq 8, extending the adopted history.
	if got := c.Acked(); got != 8 {
		t.Fatalf("acked = %d, want 8 (server position 7 + 1 new frame)", got)
	}
}

// TestClientMaxPendingBoundsRetransmitBuffer pins the client-side cap:
// a server advertising an enormous credit window must not make the
// client buffer unbounded retransmit state — sends past MaxPending
// block until acks drain the buffer.
func TestClientMaxPendingBoundsRetransmitBuffer(t *testing.T) {
	// A server that advertises a huge window but withholds acks until
	// told: received frames pile up in the client's retransmit buffer.
	var maxSeq atomic.Uint64
	ackNow := make(chan struct{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		cn, err := ln.Accept()
		if err != nil {
			return
		}
		defer cn.Close()
		rd := NewReader(cn, 0)
		wr := NewWriter(cn)
		if fr, err := rd.ReadFrame(); err != nil || fr.Type != FrameHello {
			return
		}
		wr.WriteFrame(FrameHelloAck, 0, AppendWindow(nil, 1<<20))
		wr.Flush()
		got := make(chan struct{}, 16)
		go func() {
			for {
				fr, err := rd.ReadFrame()
				if err != nil {
					return
				}
				maxSeq.Store(fr.Seq)
				got <- struct{}{}
			}
		}()
		<-ackNow
		// Cumulative ack for everything seen so far, then ack each frame
		// that trickles in afterwards (the sender unblocking).
		for {
			wr.WriteAck(maxSeq.Load(), 1<<20)
			if wr.Flush() != nil {
				return
			}
			select {
			case <-got:
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()

	c, err := DialStream(ln.Addr().String(), "maxpending", ClientOptions{MaxPending: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 2; i++ {
		if err := c.SendObservations(clientTestObs); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}

	// The third send must block on the retransmit cap, not the window.
	sent := make(chan error, 1)
	go func() { sent <- c.SendObservations(clientTestObs) }()
	select {
	case err := <-sent:
		t.Fatalf("third send returned (%v) with 2 frames pending and MaxPending=2", err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := c.Pending(); got != 2 {
		t.Fatalf("pending = %d while a send is blocked, want 2", got)
	}

	// Acks drain the buffer: the blocked send completes, delivery
	// finishes, and the buffer never exceeded the cap.
	close(ackNow)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("blocked send failed after acks: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("send still blocked 2s after acks started flowing")
	}
	if err := c.WaitAcked(); err != nil {
		t.Fatal(err)
	}
	if got := c.Acked(); got != 3 {
		t.Fatalf("acked = %d, want 3", got)
	}
}

// refusingServer answers the hello, reads `read` frames, then sends one
// error frame with sequence 0 (the reply to a refused fire-and-forget
// frame) and holds the connection open until the test ends.
func refusingServer(t *testing.T, read int) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		cn, err := ln.Accept()
		if err != nil {
			return
		}
		defer cn.Close()
		rd := NewReader(cn, 0)
		wr := NewWriter(cn)
		if fr, err := rd.ReadFrame(); err != nil || fr.Type != FrameHello {
			return
		}
		wr.WriteFrame(FrameHelloAck, 0, AppendWindow(nil, 1<<20))
		wr.Flush()
		for i := 0; i < read; i++ {
			if _, err := rd.ReadFrame(); err != nil {
				return
			}
		}
		wr.WriteFrame(FrameError, 0, []byte("worker queue full (shed)"))
		wr.Flush()
		for {
			if _, err := rd.ReadFrame(); err != nil {
				return
			}
		}
	}()
	return ln
}

// TestClientTickFailsWhenPipelinedFrameRefused: the server refuses an
// IMU frame that a tick was pipelined behind. The tick's own reply never
// comes, so the tick must fail with the server's error, not wait forever.
func TestClientTickFailsWhenPipelinedFrameRefused(t *testing.T) {
	ln := refusingServer(t, 2) // the IMU frame and the tick
	defer ln.Close()
	c, err := DialStream(ln.Addr().String(), "pipelined", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendIMU(nil); err != nil {
		t.Fatal(err)
	}
	ticked := make(chan error, 1)
	go func() {
		_, _, _, err := c.Tick(1)
		ticked <- err
	}()
	select {
	case err := <-ticked:
		if err == nil || !strings.Contains(err.Error(), "shed") {
			t.Fatalf("tick behind a refused frame: err = %v, want the server's shed error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tick behind a refused frame still waiting after 5s")
	}
}

// TestClientReportsRefusedSessionFrame: with no tick waiting, a refused
// IMU frame is reported by the next session-frame call, once.
func TestClientReportsRefusedSessionFrame(t *testing.T) {
	ln := refusingServer(t, 1)
	defer ln.Close()
	c, err := DialStream(ln.Addr().String(), "refused", ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Sends keep succeeding until the reader has seen the error frame;
	// the first failing send must carry it.
	deadline := time.Now().Add(5 * time.Second)
	for err = c.SendIMU(nil); err == nil; err = c.SendIMU(nil) {
		if time.Now().After(deadline) {
			t.Fatal("the refused frame was never reported")
		}
		time.Sleep(time.Millisecond)
	}
	if !strings.Contains(err.Error(), "shed") {
		t.Fatalf("send after a refused frame: err = %v, want the server's shed error", err)
	}
}

// TestReplFrameCodecs round-trips the replication payload codecs and
// rejects truncation.
func TestReplFrameCodecs(t *testing.T) {
	lastSeq, window, err := DecodeReplHello(AppendReplHello(nil, 42, 7))
	if err != nil || lastSeq != 42 || window != 7 {
		t.Fatalf("repl hello round trip = (%d, %d, %v)", lastSeq, window, err)
	}
	if _, _, err := DecodeReplHello([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated repl hello decoded")
	}

	ckptSeq, last, chunk, err := DecodeCheckpointChunk(AppendCheckpointChunk(nil, 9, true, []byte("abc")))
	if err != nil || ckptSeq != 9 || !last || string(chunk) != "abc" {
		t.Fatalf("chunk round trip = (%d, %v, %q, %v)", ckptSeq, last, chunk, err)
	}
	if _, _, _, err := DecodeCheckpointChunk([]byte{0}); err == nil {
		t.Fatal("truncated chunk decoded")
	}
	bad := AppendCheckpointChunk(nil, 9, true, nil)
	bad[8] = 7 // corrupt the last-chunk flag
	if _, _, _, err := DecodeCheckpointChunk(bad); err == nil {
		t.Fatal("corrupt last flag decoded")
	}

	tail, ckpt, err := DecodePublish(AppendPublish(nil, 100, 90))
	if err != nil || tail != 100 || ckpt != 90 {
		t.Fatalf("publish round trip = (%d, %d, %v)", tail, ckpt, err)
	}
	if _, _, err := DecodePublish([]byte{1}); err == nil {
		t.Fatal("truncated publish decoded")
	}
}
