// Follower: the client side of WAL-shipping replication. It dials the
// leader's stream listener, announces its position with ReplHello, and
// applies what comes back — checkpoint chunks install durably before
// anything is acked, WAL segments append exactly-once into the local
// WAL (duplicates from at-least-once redelivery land below the local
// NextSeq and are dropped), and every ReplAck follows the local
// covering fsync. Redial-with-resume is the only recovery mechanism:
// any defect (torn frame, gap, apply error) drops the connection and
// the next hello names exactly what survived.
package replica

import (
	"fmt"
	"net"
	"sync"
	"time"

	"moloc/internal/wire"
)

// Applier is the follower server's apply surface. Implementations own
// all durability: InstallSnapshot must not expose a partially written
// checkpoint, Apply must deduplicate below its own WAL tail, and Commit
// must not return a sequence whose covering fsync did not complete.
type Applier interface {
	// LastApplied is the highest WAL sequence present locally — the
	// resume point named in the next hello.
	LastApplied() uint64
	// InstallSnapshot durably saves and installs a checkpoint covering
	// ckptSeq. Only called with ckptSeq > LastApplied().
	InstallSnapshot(ckptSeq uint64, payload []byte) error
	// Apply appends one replicated record. seq < local NextSeq is a
	// duplicate (no-op, nil); seq > local NextSeq is a gap (error — the
	// connection is dropped and re-helloed).
	Apply(seq uint64, payload []byte) error
	// Commit makes every applied record durable and returns the highest
	// durable sequence — the value the follower acks.
	Commit() (uint64, error)
}

// FollowerOptions tune the replication client; Addr or Dial is
// required.
type FollowerOptions struct {
	// Addr is the leader's stream listener address.
	Addr string
	// Dial overrides net.Dial for tests and in-process wiring.
	Dial func() (net.Conn, error)
	// Window is the credit window advertised to the leader (default 64).
	Window uint32
	// RedialWait paces reconnection attempts (default 500ms).
	RedialWait time.Duration
	// Now is the clock seam; nil selects time.Now.
	Now func() time.Time
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.Window == 0 {
		o.Window = 64
	}
	if o.RedialWait <= 0 {
		o.RedialWait = 500 * time.Millisecond
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Status is the follower's replication position, for healthz and the
// staleness monitor.
type Status struct {
	// Connected reports a live replication connection.
	Connected bool
	// Applied is the highest locally durable replicated sequence.
	Applied uint64
	// LeaderLast is the leader's WAL tail from its latest Publish (0
	// before first contact).
	LeaderLast uint64
	// LeaderCkpt is the leader's newest checkpoint coverage.
	LeaderCkpt uint64
	// LastContact is when a frame last arrived from the leader.
	LastContact time.Time
	// LastCaughtUp is the last instant Applied covered LeaderLast on a
	// live connection — the reference point for staleness.
	LastCaughtUp time.Time
	// Resumes counts completed reconnect handshakes.
	Resumes int
	// SnapshotsInstalled counts checkpoint bootstraps applied.
	SnapshotsInstalled int
	// LastErr is why the previous connection died (nil on a clean run).
	LastErr error
}

// Follower replicates one leader into one Applier. Run is the only
// long-running method; Status may be called from any goroutine.
type Follower struct {
	o  FollowerOptions
	ap Applier

	mu sync.Mutex
	st Status
}

// NewFollower builds a replication client over ap.
func NewFollower(ap Applier, o FollowerOptions) *Follower {
	return &Follower{o: o.withDefaults(), ap: ap}
}

// Status snapshots the replication position.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

func (f *Follower) setStatus(mut func(*Status)) {
	f.mu.Lock()
	mut(&f.st)
	f.mu.Unlock()
}

// Run dials and replicates until done closes, redialing with resume on
// every failure. It returns only when done is closed.
func (f *Follower) Run(done <-chan struct{}) {
	dials := 0
	for {
		select {
		case <-done:
			return
		default:
		}
		if dials > 0 && !sleepOrDone(f.o.RedialWait, done) {
			return
		}
		dials++
		conn, err := f.dial()
		if err != nil {
			f.setStatus(func(st *Status) { st.LastErr = err })
			continue
		}
		err = f.serveConn(conn, done, dials > 1)
		f.setStatus(func(st *Status) {
			st.Connected = false
			st.LastErr = err
		})
	}
}

func (f *Follower) dial() (net.Conn, error) {
	if f.o.Dial != nil {
		return f.o.Dial()
	}
	return net.Dial("tcp", f.o.Addr)
}

// sleepOrDone pauses for d, returning false if done closed first.
func sleepOrDone(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}

// serveConn speaks one replication connection: hello, then apply frames
// until a defect or shutdown. Returns why the connection ended.
func (f *Follower) serveConn(conn net.Conn, done <-chan struct{}, resumed bool) error {
	// The done watcher severs the conn so a blocked read wakes promptly
	// on shutdown; stop releases it when the conn dies on its own.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-done:
			//lint:ignore errdrop shutdown path; serveConn reports its own exit
			_ = conn.Close()
		case <-stop:
		}
	}()
	defer func() {
		_ = conn.Close()
		close(stop)
		wg.Wait()
	}()

	wr := wire.NewWriter(conn)
	rd := wire.NewReader(conn, wire.DefaultMaxPayload)
	last := f.ap.LastApplied()
	wr.WriteFrame(wire.FrameReplHello, 0, wire.AppendReplHello(nil, last, f.o.Window))
	if err := wr.Flush(); err != nil {
		return err
	}
	f.setStatus(func(st *Status) {
		st.Connected = true
		st.Applied = last
		st.LastContact = f.o.Now()
		if resumed {
			st.Resumes++
		}
	})

	// ack sends the cumulative durable ack, refreshing the credit
	// window.
	//
	//moloc:ack
	ack := func(seq uint64) error {
		wr.WriteFrame(wire.FrameReplAck, seq, wire.AppendWindow(nil, f.o.Window))
		return wr.Flush()
	}

	// Checkpoint assembly state for an in-flight bootstrap.
	var (
		ckptBuf    []byte
		ckptSeq    uint64
		nextChunk  uint64
		assembling bool
	)

	// dirty marks records applied since the last commit+ack. The
	// commit runs at the bottom of the loop, for ANY frame type, once
	// no further frame is buffered: acking only from the WALSegment arm
	// deadlocks when the burst that exhausts the leader's credit window
	// is flushed together with a Publish heartbeat — the follower sees
	// a buffered frame after the last segment, defers the ack, handles
	// the Publish, and then blocks reading while the leader blocks
	// waiting for the ack that will never come.
	dirty := false

	for {
		fr, err := rd.ReadFrame()
		if err != nil {
			return err
		}
		now := f.o.Now()
		f.setStatus(func(st *Status) { st.LastContact = now })

		switch fr.Type {
		case wire.FrameCheckpointChunk:
			seq, lastChunk, chunk, derr := wire.DecodeCheckpointChunk(fr.Payload)
			if derr != nil {
				return derr
			}
			if !assembling {
				if fr.Seq != 0 {
					return fmt.Errorf("replica: checkpoint transfer began at chunk %d", fr.Seq)
				}
				assembling, ckptSeq, nextChunk = true, seq, 0
				ckptBuf = ckptBuf[:0]
			}
			if fr.Seq != nextChunk || seq != ckptSeq {
				return fmt.Errorf("replica: interleaved checkpoint transfer (chunk %d/%d, seq %d/%d)",
					fr.Seq, nextChunk, seq, ckptSeq)
			}
			nextChunk++
			ckptBuf = append(ckptBuf, chunk...)
			if !lastChunk {
				continue
			}
			assembling = false
			if ckptSeq > f.ap.LastApplied() {
				if err := f.ap.InstallSnapshot(ckptSeq, ckptBuf); err != nil {
					// Not installed, nothing acked; the redial re-requests
					// the checkpoint from scratch.
					return err
				}
				f.setStatus(func(st *Status) { st.SnapshotsInstalled++ })
			}
			applied := f.ap.LastApplied()
			if err := ack(applied); err != nil {
				return err
			}
			f.updateApplied(applied)
			// The installed checkpoint durably covers everything acked;
			// records applied before the re-bootstrap need no further
			// fsync of their own.
			dirty = false

		case wire.FrameWALSegment:
			if err := f.ap.Apply(fr.Seq, fr.Payload); err != nil {
				return err
			}
			dirty = true

		case wire.FramePublish:
			leaderLast, leaderCkpt, derr := wire.DecodePublish(fr.Payload)
			if derr != nil {
				return derr
			}
			f.setStatus(func(st *Status) {
				st.LeaderLast = leaderLast
				st.LeaderCkpt = leaderCkpt
				if st.Applied >= leaderLast {
					st.LastCaughtUp = now
				}
			})

		case wire.FrameError:
			return fmt.Errorf("replica: leader error: %s", fr.Payload)

		default:
			return fmt.Errorf("replica: unexpected frame type %d on replication stream", fr.Type)
		}

		// Drain-then-commit, the group-commit idiom from the ingest
		// path: only pay the covering fsync once no further frame is
		// already buffered, so one fsync covers the whole burst.
		if !dirty || rd.FrameBuffered() {
			continue
		}
		applied, err := f.ap.Commit()
		if err != nil {
			return err
		}
		if err := ack(applied); err != nil {
			return err
		}
		f.updateApplied(applied)
		dirty = false
	}
}

// updateApplied advances the applied position and the caught-up stamp.
func (f *Follower) updateApplied(applied uint64) {
	now := f.o.Now()
	f.setStatus(func(st *Status) {
		if applied > st.Applied {
			st.Applied = applied
		}
		if st.LeaderLast > 0 && st.Applied >= st.LeaderLast {
			st.LastCaughtUp = now
		}
	})
}
