// Replication benchmark (PR 10): the follower-side apply path end to
// end — WAL tail shipping over the wire, verbatim local appends through
// the group committer, and the retrainer enqueue — measured as the time
// for a blank follower to replicate a leader's b.N-record WAL. Pinned
// in BENCH_PR10.json; `make bench-diff` gates it against later PRs.
package moloc_test

import (
	"net"
	"runtime"
	"testing"
	"time"

	"moloc/internal/server"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// BenchmarkReplApply preloads a leader's WAL with b.N observation
// batches off the clock, then measures a follower replicating all of
// them: ns/op is the per-record cost of the whole follower apply chain
// (frame decode, dedup/gap check, WAL append, amortized covering fsync,
// retrain enqueue, cumulative ack). The leader never checkpoints, so
// its WAL is never truncated and the follower exercises pure tail
// streaming — the steady-state replication path, not checkpoint
// bootstrap.
func BenchmarkReplApply(b *testing.B) {
	sys, src := streamBenchSys(b)
	// The leader never retrains (Start is not called and the queue cap
	// absorbs the whole preload), so nothing checkpoints, nothing
	// truncates, FirstSeq stays 1, and the blank follower always takes
	// the tail path. The 64 KiB segments only keep this benchmark
	// comparable with its pinned history: the leader's per-connection
	// WAL reader reads each record once whatever the segment size.
	leader, err := server.NewWithOptions(sys.Plan, src, sys.Model.NumAPs(), sys.MDB, sys.Config.Motion,
		server.Options{
			DataDir:         b.TempDir(),
			FsyncPolicy:     wal.SyncAlways,
			WALSegmentBytes: 64 << 10,
			ObsQueueCap:     1 << 22,
		})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- leader.ServeStreams(ln) }()
	defer func() {
		leader.Close()
		if err := <-errc; err != nil {
			b.Fatal(err)
		}
	}()
	addr := ln.Addr().String()

	c, err := wire.DialStream(addr, "bench-repl", wire.ClientOptions{})
	if err != nil {
		b.Fatal(err)
	}
	batch := streamBenchBatch(b, sys)
	for i := 0; i < b.N; i++ {
		if err := c.SendObservations(batch); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.WaitAcked(); err != nil {
		b.Fatal(err)
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}

	// The follower retrains on a short period: replicated observations
	// fold on another core while the apply loop streams, exactly the
	// steady state a real read replica runs in — and the queue never
	// backpressures the stream.
	fol, err := server.NewWithOptions(sys.Plan, src, sys.Model.NumAPs(), sys.MDB, sys.Config.Motion,
		server.Options{
			DataDir:         b.TempDir(),
			FsyncPolicy:     wal.SyncAlways,
			ObsQueueCap:     1 << 22,
			RetrainInterval: 100 * time.Millisecond,
			FollowAddr:      "bench-leader",
			ReplDial:        func() (net.Conn, error) { return net.Dial("tcp", addr) },
		})
	if err != nil {
		b.Fatal(err)
	}
	defer fol.Close()

	b.ReportAllocs()
	b.ResetTimer()
	fol.Start()
	var lastApplied uint64
	stall := time.Now()
	for {
		applied := fol.ReplicationStatus().Applied
		if applied >= uint64(b.N) {
			break
		}
		if applied != lastApplied {
			lastApplied, stall = applied, time.Now()
		} else if time.Since(stall) > 30*time.Second {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			b.Fatalf("replication stalled at %d/%d records: %+v\n%s", applied, b.N, fol.ReplicationStatus(), buf)
		}
		time.Sleep(200 * time.Microsecond)
	}
	b.StopTimer()
}
