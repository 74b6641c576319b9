// Group commit: the committer that turns "every ack needs an fsync"
// into "every fsync releases every ack that raced in". Streams append
// records with AppendNoSync (cheap: one short critical section, no
// I/O barrier) and then block in WaitDurable; a single committer
// goroutine issues one fsync covering everything appended since the
// previous sync and wakes every covered waiter at once. Under 32
// concurrent streams one fsync routinely covers dozens of batches —
// the difference between ingest throughput scaling with fsync latency
// and scaling with disk bandwidth.
//
// Correctness leans on two Log invariants: records are assigned
// strictly increasing sequence numbers under l.mu, and rotateLocked
// fsyncs a segment before sealing it — so one Sync() of the active
// segment makes every previously appended record durable, whichever
// segment it landed in.
package wal

import "sync"

// GroupCommitter amortizes fsyncs across concurrent appenders. Safe
// for concurrent use. Create with NewGroupCommitter; Close joins the
// committer goroutine.
type GroupCommitter struct {
	log *Log

	mu       sync.Mutex
	kick     *sync.Cond // wakes the committer: appended > durable
	done     *sync.Cond // wakes waiters: durable or failSeq advanced
	appended uint64     // highest sequence appended and awaiting a sync
	durable  uint64     // highest sequence covered by a completed fsync
	failSeq  uint64     // sequences <= failSeq saw failErr from their covering sync attempt
	failErr  error
	syncs    uint64 // fsyncs issued by the committer
	batches  uint64 // WaitDurable calls released successfully
	closed   bool

	wg sync.WaitGroup
}

// GroupStats is a snapshot of the committer's amortization counters.
type GroupStats struct {
	// Syncs is how many fsyncs the committer has issued.
	Syncs uint64
	// Batches is how many appends those fsyncs released. Batches/Syncs
	// is the amortization factor the streaming path exists for.
	Batches uint64
}

// NewGroupCommitter starts a committer over l. Only the SyncAlways
// policy needs the goroutine (interval and none release acks without
// waiting on an fsync), so under other policies no goroutine runs and
// WaitDurable degenerates to the policy's inline behavior.
func NewGroupCommitter(l *Log) *GroupCommitter {
	g := &GroupCommitter{log: l}
	g.kick = sync.NewCond(&g.mu)
	g.done = sync.NewCond(&g.mu)
	if l.Policy() == SyncAlways {
		g.wg.Add(1)
		go g.commitLoop()
	}
	return g
}

// WaitDurable blocks until the record with the given sequence number is
// durable per the log's policy, then returns nil — the caller may ack.
// A non-nil error means the covering fsync failed and the record must
// not be acknowledged (it may still replay: at-least-once, never silent
// loss). Under SyncInterval the cadence sync is given a chance to fire
// and the call returns immediately — durability lags acks by at most
// SyncEvery. Under SyncNone it returns immediately.
//
// Failure is sticky per sequence: once a covering sync attempt fails
// for sequences <= failSeq, those sequences report that failure even if
// a later fsync succeeds. After a failed fsync the kernel may drop the
// dirty pages while marking them clean, so a subsequent success proves
// nothing about writes that preceded the failure — releasing them as
// durable would be an ack the disk never earned. Sequences appended
// after the failure (> failSeq) dirtied their pages afresh and are
// genuinely covered by the next completed fsync.
func (g *GroupCommitter) WaitDurable(seq uint64) error {
	if g.log.Policy() != SyncAlways {
		return g.log.SyncIfDue()
	}
	if seq == 0 {
		return nil // no record to cover
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq > g.appended {
		g.appended = seq
		g.kick.Signal()
	}
	for g.durable < seq && g.failSeq < seq && !g.closed {
		g.done.Wait()
	}
	// Failure takes precedence over success on overlap: a sequence both
	// below a failed attempt's target and below a later durable horizon
	// is still poisoned.
	if g.failSeq >= seq {
		return g.failErr
	}
	if g.durable >= seq {
		g.batches++
		return nil
	}
	return ErrClosed
}

// commitLoop is the committer: wait for appends to pass the durable
// horizon, snapshot the target, fsync once, publish the new horizon.
// Appends that arrive during the fsync are covered by the next pass —
// that self-clocking is what batches concurrent streams together.
func (g *GroupCommitter) commitLoop() {
	defer g.wg.Done()
	for {
		g.mu.Lock()
		// Poisoned sequences (<= failSeq) never become ackable, so only
		// appends past both horizons warrant another fsync — a persistent
		// EIO parks the loop instead of spinning on a dead disk.
		covered := g.durable
		if g.failSeq > covered {
			covered = g.failSeq
		}
		for g.appended <= covered && !g.closed {
			g.kick.Wait()
			covered = g.durable
			if g.failSeq > covered {
				covered = g.failSeq
			}
		}
		if g.closed {
			g.mu.Unlock()
			return
		}
		target := g.appended
		g.mu.Unlock()

		err := g.log.Sync() // one fsync for every append <= target

		g.mu.Lock()
		g.syncs++
		if err != nil {
			// The failure horizon only ratchets forward and the error is
			// never cleared by a later success: see WaitDurable.
			if target > g.failSeq {
				g.failSeq = target
			}
			g.failErr = err
		} else if target > g.durable {
			g.durable = target
		}
		g.done.Broadcast()
		g.mu.Unlock()
	}
}

// Stats snapshots the amortization counters.
func (g *GroupCommitter) Stats() GroupStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupStats{Syncs: g.syncs, Batches: g.batches}
}

// Close wakes every waiter with ErrClosed and joins the committer.
// Callers close the GroupCommitter before the Log so no fsync races a
// closed file.
func (g *GroupCommitter) Close() {
	g.mu.Lock()
	g.closed = true
	g.kick.Signal()
	g.done.Broadcast()
	g.mu.Unlock()
	g.wg.Wait()
}
