// Package replica is WAL-shipping replication: a leader streams its
// write-ahead log to followers over the binary frame protocol
// (internal/wire), bootstrapping blank or lagging followers from the
// newest valid checkpoint first. The composition closes the loop the
// ROADMAP names: PR 5 made one molocd crash-safe, PR 8 made the ingest
// path a resumable framed stream — shipping the same WAL records over
// the same frames makes the *service* crash-safe, because any follower
// holds everything the leader ever acknowledged.
//
// Protocol (one replication connection, opened on the leader's stream
// listener): the follower sends ReplHello{lastSeq, window} naming the
// highest WAL sequence it holds. The leader replies with a stream of
//
//   - CheckpointChunk frames when the follower's cursor (lastSeq+1) has
//     been truncated out of the leader's WAL — the follower assembles
//     and durably installs the checkpoint, then acks its coverage;
//   - WALSegment frames (Seq = WAL record sequence, payload = record
//     payload verbatim) from the cursor, at most `window` beyond the
//     follower's cumulative ReplAck;
//   - Publish frames naming the leader's WAL tail and newest checkpoint
//     — the heartbeat from which followers compute lag.
//
// Invariants: WALSegment sequences are strictly increasing and
// contiguous per connection (a follower that observes a jump must drop
// the connection and re-hello); the wire is at-least-once (a redial
// re-ships everything past the follower's last ack) while the
// follower's WAL is exactly-once (duplicates land below its NextSeq and
// are dropped before append); acks follow the follower's own covering
// fsync, so an acked record survives follower kill -9 — which is
// precisely what lets the leader forget it.
package replica

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"moloc/internal/wal"
	"moloc/internal/wire"
)

// Source is the leader's durable state as the replication service needs
// it: checkpoint access for bootstrap, WAL access for tailing. The
// server implements it over its durableStore.
type Source interface {
	// Snapshot returns the newest valid checkpoint's payload and the
	// WAL sequence it covers; checkpoint.ErrNoCheckpoint when none
	// exists.
	Snapshot() (payload []byte, lastSeq uint64, err error)
	// FirstSeq is the oldest WAL sequence still materialized.
	FirstSeq() uint64
	// NextSeq is the sequence the next local append will use.
	NextSeq() uint64
	// CkptSeq is the coverage of the newest checkpoint (0 when none).
	CkptSeq() uint64
	// NewWALReader opens an incremental cursor over the WAL for one
	// connection; the leader closes it when the connection ends. Its
	// wal.ErrTruncated demands a checkpoint bootstrap.
	NewWALReader() *wal.Reader
}

// Fixed limits of a replication connection.
const (
	bootstrapChunkBytes = 64 << 10 // checkpoint bootstrap chunk size
	defaultWindow       = 256      // unacked records in flight when the hello advertises no window
)

// LeaderOptions tune one replication connection; the zero value works.
type LeaderOptions struct {
	// Heartbeat is the Publish cadence when idle (default 1s).
	Heartbeat time.Duration
	// Poll is the WAL tail re-check interval when caught up (default
	// 25ms).
	Poll time.Duration
	// Now is the clock seam; nil selects time.Now.
	Now func() time.Time
	// chunkBytes overrides bootstrapChunkBytes for in-package tests that
	// tear a bootstrap at every chunk boundary.
	chunkBytes int
}

func (o LeaderOptions) withDefaults() LeaderOptions {
	if o.chunkBytes <= 0 {
		o.chunkBytes = bootstrapChunkBytes
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ErrFollowerAhead reports a hello whose lastSeq is at or past the
// leader's own tail: replicating would run history backwards (the
// follower has records this leader never wrote — a split deployment or
// a stale address).
var ErrFollowerAhead = errors.New("replica: follower is ahead of the leader")

// Leader serves replication connections from one Source.
type Leader struct {
	src Source
	o   LeaderOptions
}

// NewLeader builds a leader service over src.
func NewLeader(src Source, o LeaderOptions) *Leader {
	return &Leader{src: src, o: o.withDefaults()}
}

// ackState is the per-connection view of the follower's progress,
// shared between the serve loop (writer) and the ack reader goroutine.
type ackState struct {
	mu     sync.Mutex
	cond   *sync.Cond
	acked  uint64
	window int
	dead   bool
	err    error
}

func newAckState(acked uint64, window int) *ackState {
	st := &ackState{acked: acked, window: window}
	st.cond = sync.NewCond(&st.mu)
	return st
}

func (st *ackState) update(acked uint64, window int) {
	st.mu.Lock()
	if acked > st.acked {
		st.acked = acked
	}
	if window > 0 {
		st.window = window
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

func (st *ackState) markDead(err error) {
	st.mu.Lock()
	if !st.dead {
		st.dead = true
		st.err = err
	}
	st.cond.Broadcast()
	st.mu.Unlock()
}

// waitCredit blocks until at least one more record fits under the
// window beyond cursor-1, returning how many fit (0 = connection dead).
func (st *ackState) waitCredit(cursor uint64) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.dead && cursor-1-st.acked >= uint64(st.window) {
		st.cond.Wait()
	}
	if st.dead {
		return 0
	}
	return st.window - int(cursor-1-st.acked)
}

func (st *ackState) snapshot() (acked uint64, dead bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.acked, st.dead, st.err
}

// Serve runs the replication protocol for one follower connection whose
// ReplHello carried lastSeq and window. rd is the connection's frame
// reader (positioned just past the hello); done aborts the serve. Serve
// owns conn's lifetime from here: it closes it on exit and joins its
// internal goroutines.
func (ld *Leader) Serve(conn net.Conn, rd *wire.Reader, lastSeq uint64, window uint32, done <-chan struct{}) error {
	wr := wire.NewWriter(conn)
	if lastSeq >= ld.src.NextSeq() {
		wr.WriteError(0, "follower ahead of leader")
		//lint:ignore errdrop the connection is being refused; the flush error cannot add anything
		_ = wr.Flush()
		//lint:ignore errdrop closing a refused connection
		_ = conn.Close()
		return fmt.Errorf("replica: hello lastSeq %d >= leader next %d: %w", lastSeq, ld.src.NextSeq(), ErrFollowerAhead)
	}

	st := newAckState(lastSeq, defaultWindow)
	if window > 0 {
		st.window = int(window)
	}

	// The ack reader drains follower frames; the done watcher severs the
	// conn on shutdown. Both are joined before Serve returns: closing
	// conn unblocks the reader, closing stop releases the watcher.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ld.readAcks(rd, st)
	}()
	go func() {
		defer wg.Done()
		select {
		case <-done:
			st.markDead(errors.New("replica: leader shutting down"))
			//lint:ignore errdrop shutdown path; the serve loop reports its own exit
			_ = conn.Close()
		case <-stop:
		}
	}()
	defer func() {
		_ = conn.Close()
		close(stop)
		wg.Wait()
	}()

	err := ld.stream(wr, st, lastSeq+1)
	if err == nil {
		if _, _, derr := st.snapshot(); derr != nil {
			err = derr
		}
	}
	return err
}

// readAcks drains the follower's frames for one connection: ReplAcks
// advance the shared ack state, anything else is a protocol violation.
func (ld *Leader) readAcks(rd *wire.Reader, st *ackState) {
	for {
		fr, err := rd.ReadFrame()
		if err != nil {
			st.markDead(err)
			return
		}
		switch fr.Type {
		case wire.FrameReplAck:
			w, werr := wire.DecodeWindow(fr.Payload)
			if werr != nil {
				st.markDead(werr)
				return
			}
			st.update(fr.Seq, int(w))
		default:
			st.markDead(fmt.Errorf("replica: unexpected frame type %d on replication stream", fr.Type))
			return
		}
	}
}

// stream is the serve loop: bootstrap when the cursor is truncated,
// otherwise tail the WAL under the follower's credit window, publishing
// position on the heartbeat cadence. The connection owns one WAL
// reader, so followers never share a cursor.
func (ld *Leader) stream(wr *wire.Writer, st *ackState, cursor uint64) error {
	tail := ld.src.NewWALReader()
	defer tail.Close()
	var poll *time.Timer
	var lastPublish time.Time
	publish := func() error {
		wr.WriteFrame(wire.FramePublish, 0, wire.AppendPublish(nil, ld.src.NextSeq()-1, ld.src.CkptSeq()))
		if err := wr.Flush(); err != nil {
			return err
		}
		lastPublish = ld.o.Now()
		return nil
	}
	// An immediate Publish tells the follower the leader's tail before
	// the first batch, so lag is observable from the first heartbeat.
	if err := publish(); err != nil {
		return err
	}

	for {
		if _, dead, derr := st.snapshot(); dead {
			return derr
		}
		if cursor < ld.src.FirstSeq() {
			next, err := ld.bootstrap(wr, cursor)
			if err != nil {
				return err
			}
			cursor = next
			continue
		}

		credit := st.waitCredit(cursor)
		if credit == 0 {
			_, _, derr := st.snapshot()
			return derr
		}
		wrote := 0
		next, err := tail.ReadFrom(cursor, credit, func(seq uint64, payload []byte) error {
			wr.WriteFrame(wire.FrameWALSegment, seq, payload)
			wrote++
			// Bound the write buffer: flush every few frames so a slow
			// reader exerts TCP backpressure instead of growing memory.
			if wr.Buffered() > 256<<10 {
				return wr.Flush()
			}
			return nil
		})
		if errors.Is(err, wal.ErrTruncated) {
			// A checkpoint truncated the range out from under the cursor
			// (or the cursor fell in a sequence jump); the checkpoint
			// covers it, so re-bootstrap on the same connection.
			cursor = next
			continue
		}
		if err != nil {
			return err
		}
		if wrote > 0 {
			if err := wr.Flush(); err != nil {
				return err
			}
		}
		cursor = next

		now := ld.o.Now()
		if now.Sub(lastPublish) >= ld.o.Heartbeat {
			if err := publish(); err != nil {
				return err
			}
		}
		if wrote == 0 {
			// Caught up: poll the tail. The done watcher severs the conn
			// on shutdown, so a bounded sleep (not a wakeup channel) is
			// enough to stay responsive. The timer always fires before
			// the next Reset, so one serves the whole connection.
			if poll == nil {
				poll = time.NewTimer(ld.o.Poll)
			} else {
				poll.Reset(ld.o.Poll)
			}
			<-poll.C
		}
	}
}

// bootstrap ships the newest checkpoint in chunks and returns the
// cursor to stream from afterwards (ckptSeq+1). The follower acks the
// checkpoint's coverage once installed; bootstrap does not wait for
// that ack — WAL frames pipeline behind the chunks and the follower
// applies them in order.
func (ld *Leader) bootstrap(wr *wire.Writer, cursor uint64) (uint64, error) {
	payload, ckptSeq, err := ld.src.Snapshot()
	if err != nil {
		wr.WriteError(0, "leader has no checkpoint covering the requested sequence")
		//lint:ignore errdrop the bootstrap already failed; the flush error cannot add anything
		_ = wr.Flush()
		return cursor, fmt.Errorf("replica: bootstrap needs a checkpoint covering seq %d: %w", cursor, err)
	}
	if ckptSeq+1 < cursor {
		// The checkpoint predates what the follower already holds; with
		// cursor < FirstSeq this means the WAL lost records no checkpoint
		// covers — refuse loudly rather than ship a regression.
		wr.WriteError(0, "leader checkpoint behind follower state")
		//lint:ignore errdrop the bootstrap already failed; the flush error cannot add anything
		_ = wr.Flush()
		return cursor, fmt.Errorf("replica: newest checkpoint covers %d, follower already at %d", ckptSeq, cursor-1)
	}
	// An empty checkpoint still ships one (empty, last) chunk, so the
	// follower always sees a terminator.
	for idx := uint64(0); ; idx++ {
		chunk := payload[:min(ld.o.chunkBytes, len(payload))]
		payload = payload[len(chunk):]
		last := len(payload) == 0
		wr.WriteFrame(wire.FrameCheckpointChunk, idx, wire.AppendCheckpointChunk(nil, ckptSeq, last, chunk))
		if err := wr.Flush(); err != nil {
			return cursor, err
		}
		if last {
			return ckptSeq + 1, nil
		}
	}
}
