package replica

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moloc/internal/checkpoint"
	"moloc/internal/fault"
	"moloc/internal/wal"
	"moloc/internal/wire"
)

// testSource implements Source over a real WAL and checkpoint dir — the
// same composition the server's replSource uses.
type testSource struct {
	fs      fault.FS
	log     *wal.Log
	ckptDir string
}

func (s *testSource) Snapshot() ([]byte, uint64, error) {
	payload, seq, _, err := checkpoint.Latest(s.fs, s.ckptDir)
	return payload, seq, err
}
func (s *testSource) FirstSeq() uint64 { return s.log.FirstSeq() }
func (s *testSource) NextSeq() uint64  { return s.log.NextSeq() }
func (s *testSource) CkptSeq() uint64 {
	if _, seq, _, err := checkpoint.Latest(s.fs, s.ckptDir); err == nil {
		return seq
	}
	return 0
}
func (s *testSource) NewWALReader() *wal.Reader { return s.log.NewReader() }

// testApplier implements Applier over its own WAL, recording every
// InstallSnapshot payload so tests can assert no partial checkpoint is
// ever installed.
type testApplier struct {
	fs      fault.FS
	log     *wal.Log
	ckptDir string

	mu       sync.Mutex
	installs [][]byte
	dups     int
}

func (a *testApplier) LastApplied() uint64 { return a.log.NextSeq() - 1 }

func (a *testApplier) InstallSnapshot(ckptSeq uint64, payload []byte) error {
	a.mu.Lock()
	a.installs = append(a.installs, append([]byte(nil), payload...))
	a.mu.Unlock()
	if err := checkpoint.Save(a.fs, a.ckptDir, ckptSeq, payload); err != nil {
		return err
	}
	a.log.EnsureSeqAtLeast(ckptSeq)
	return nil
}

func (a *testApplier) Apply(seq uint64, payload []byte) error {
	next := a.log.NextSeq()
	if seq < next {
		a.mu.Lock()
		a.dups++
		a.mu.Unlock()
		return nil
	}
	if seq > next {
		return fmt.Errorf("testApplier: gap: got seq %d, want %d", seq, next)
	}
	_, err := a.log.AppendNoSync(payload)
	return err
}

func (a *testApplier) Commit() (uint64, error) {
	if err := a.log.Sync(); err != nil {
		return 0, err
	}
	return a.log.NextSeq() - 1, nil
}

func (a *testApplier) installedPayloads() [][]byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([][]byte(nil), a.installs...)
}

// newLeaderWorld builds a leader-side WAL (+ checkpoint dir) with n
// records "rec-<seq>".
func newLeaderWorld(t *testing.T, n int, segmentBytes int64) *testSource {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{SegmentBytes: segmentBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	for i := 1; i <= n; i++ {
		if _, err := log.AppendNoSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return &testSource{fs: fault.Disk{}, log: log, ckptDir: t.TempDir()}
}

func newTestApplier(t *testing.T) *testApplier {
	t.Helper()
	log, err := wal.Open(t.TempDir(), wal.Options{Policy: wal.SyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return &testApplier{fs: fault.Disk{}, log: log, ckptDir: t.TempDir()}
}

// startLeader serves replication connections for src on a loopback
// listener, mirroring the server's dispatch: read the hello, hand the
// connection to Leader.Serve.
func startLeader(t *testing.T, src Source, o LeaderOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	ld := NewLeader(src, o)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				rd := wire.NewReader(conn, 0)
				fr, err := rd.ReadFrame()
				if err != nil || fr.Type != wire.FrameReplHello {
					conn.Close()
					return
				}
				lastSeq, window, derr := wire.DecodeReplHello(fr.Payload)
				if derr != nil {
					conn.Close()
					return
				}
				ld.Serve(conn, rd, lastSeq, window, done)
			}(conn)
		}
	}()
	t.Cleanup(func() { close(done); ln.Close() })
	return ln.Addr().String()
}

// fastLeaderOpts keeps test wall-clock low.
func fastLeaderOpts() LeaderOptions {
	return LeaderOptions{Poll: 2 * time.Millisecond, Heartbeat: 20 * time.Millisecond}
}

// runFollower starts f.Run and returns a stop func that is also
// registered as cleanup.
func runFollower(t *testing.T, f *Follower) func() {
	t.Helper()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() { defer close(finished); f.Run(done) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			close(done)
			select {
			case <-finished:
			case <-time.After(5 * time.Second):
				t.Error("follower Run did not return after done closed")
			}
		})
	}
	t.Cleanup(stop)
	return stop
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, format string, args ...interface{}) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf(format, args...)
}

// walRecords reads every record still materialized in l, failing on a
// record delivered twice.
func walRecords(t *testing.T, l *wal.Log) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	from := l.FirstSeq()
	for {
		next, err := l.ReadFrom(from, 1024, func(seq uint64, p []byte) error {
			if _, dup := out[seq]; dup {
				t.Fatalf("record %d read twice", seq)
			}
			out[seq] = string(p)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if next == from {
			return out
		}
		from = next
	}
}

// TestFollowerTailsLeader: a blank follower against an untruncated
// leader replicates the whole WAL byte-identically, with no bootstrap.
func TestFollowerTailsLeader(t *testing.T) {
	src := newLeaderWorld(t, 20, 0)
	addr := startLeader(t, src, fastLeaderOpts())

	ap := newTestApplier(t)
	f := NewFollower(ap, FollowerOptions{Addr: addr, RedialWait: 2 * time.Millisecond})
	runFollower(t, f)

	waitFor(t, 5*time.Second, func() bool {
		st := f.Status()
		return st.Applied == 20 && st.LeaderLast == 20
	}, "follower applied %d of 20 (status %+v)", f.Status().Applied, f.Status())

	st := f.Status()
	if !st.Connected || st.SnapshotsInstalled != 0 || st.LastCaughtUp.IsZero() {
		t.Fatalf("status after catch-up: %+v", st)
	}
	want := walRecords(t, src.log)
	got := walRecords(t, ap.log)
	if len(got) != 20 {
		t.Fatalf("follower holds %d records, want 20", len(got))
	}
	for seq, rec := range want {
		if got[seq] != rec {
			t.Fatalf("record %d: follower %q, leader %q", seq, got[seq], rec)
		}
	}
	if ap.dups != 0 {
		t.Fatalf("clean run applied %d duplicates", ap.dups)
	}
}

// TestTwoFollowersTailWhileLeaderRotates: two followers at different
// cursors and windows tail one leader while it appends across many
// small segments. Each connection owns its WAL reader, so both end
// byte-identical to the leader; under -race this also pins that the
// readers share no state with each other or with the appender.
func TestTwoFollowersTailWhileLeaderRotates(t *testing.T) {
	const total = 300
	src := newLeaderWorld(t, 10, 96)
	addr := startLeader(t, src, fastLeaderOpts())

	apA, apB := newTestApplier(t), newTestApplier(t)
	fA := NewFollower(apA, FollowerOptions{Addr: addr, Window: 4, RedialWait: 2 * time.Millisecond})
	runFollower(t, fA)

	appended := make(chan error, 1)
	go func() {
		for i := 11; i <= total; i++ {
			if _, err := src.log.AppendNoSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
				appended <- err
				return
			}
			if i%16 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
		appended <- nil
	}()
	// B joins mid-stream, from scratch, while A is already tailing.
	waitFor(t, 5*time.Second, func() bool { return fA.Status().Applied >= 40 },
		"follower A applied %d", fA.Status().Applied)
	fB := NewFollower(apB, FollowerOptions{Addr: addr, Window: 64, RedialWait: 2 * time.Millisecond})
	runFollower(t, fB)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if segs := src.log.Segments(); segs < 10 {
		t.Fatalf("leader has %d segments; rotation never exercised", segs)
	}

	for _, f := range []*Follower{fA, fB} {
		waitFor(t, 10*time.Second, func() bool { return f.Status().Applied == total },
			"follower applied %d of %d", f.Status().Applied, total)
	}
	want := walRecords(t, src.log)
	for name, ap := range map[string]*testApplier{"A": apA, "B": apB} {
		got := walRecords(t, ap.log)
		if len(got) != total {
			t.Fatalf("follower %s holds %d records, want %d", name, len(got), total)
		}
		for seq, rec := range want {
			if got[seq] != rec {
				t.Fatalf("follower %s record %d: %q, leader %q", name, seq, got[seq], rec)
			}
		}
	}
}

// TestFollowerBootstrapsFromCheckpoint: when the follower's cursor has
// been truncated out of the leader's WAL, the leader ships its newest
// checkpoint first; the follower installs it whole, then tails the
// remaining records.
func TestFollowerBootstrapsFromCheckpoint(t *testing.T) {
	src := newLeaderWorld(t, 12, 48)
	payload := bytes.Repeat([]byte("motion-db-state."), 16) // 256 bytes
	if err := checkpoint.Save(src.fs, src.ckptDir, 8, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := src.log.TruncateThrough(8); err != nil {
		t.Fatal(err)
	}
	if src.log.FirstSeq() <= 1 {
		t.Fatalf("FirstSeq = %d; nothing truncated, bootstrap untested", src.log.FirstSeq())
	}
	addr := startLeader(t, src, fastLeaderOpts())

	ap := newTestApplier(t)
	f := NewFollower(ap, FollowerOptions{Addr: addr, RedialWait: 2 * time.Millisecond})
	runFollower(t, f)

	waitFor(t, 5*time.Second, func() bool { return f.Status().Applied == 12 },
		"follower applied %d, want 12 (status %+v)", f.Status().Applied, f.Status())

	installs := ap.installedPayloads()
	if len(installs) != 1 || !bytes.Equal(installs[0], payload) {
		t.Fatalf("installs = %d payloads (first %d bytes), want exactly the full checkpoint",
			len(installs), len(installs[0]))
	}
	if st := f.Status(); st.SnapshotsInstalled != 1 {
		t.Fatalf("SnapshotsInstalled = %d, want 1", st.SnapshotsInstalled)
	}

	// The tailed records are the leader's, bit-identical.
	want := walRecords(t, src.log)
	got := walRecords(t, ap.log)
	for seq := uint64(9); seq <= 12; seq++ {
		if got[seq] != want[seq] {
			t.Fatalf("record %d: follower %q, leader %q", seq, got[seq], want[seq])
		}
	}
	// The installed checkpoint round-trips from the follower's own dir.
	reread, seq, _, err := checkpoint.Latest(ap.fs, ap.ckptDir)
	if err != nil || seq != 8 || !bytes.Equal(reread, payload) {
		t.Fatalf("follower checkpoint = (seq %d, %d bytes, %v)", seq, len(reread), err)
	}
}

// TestBootstrapRefusedWithoutCheckpoint: a truncated WAL with no
// checkpoint covering the gap must refuse the follower loudly — never
// stream a history with a hole in it.
func TestBootstrapRefusedWithoutCheckpoint(t *testing.T) {
	src := newLeaderWorld(t, 12, 48)
	if _, err := src.log.TruncateThrough(8); err != nil {
		t.Fatal(err)
	}
	if src.log.FirstSeq() <= 1 {
		t.Fatalf("FirstSeq = %d; nothing truncated, refusal untested", src.log.FirstSeq())
	}
	addr := startLeader(t, src, fastLeaderOpts())

	ap := newTestApplier(t)
	f := NewFollower(ap, FollowerOptions{Addr: addr, RedialWait: 2 * time.Millisecond})
	runFollower(t, f)

	waitFor(t, 5*time.Second, func() bool {
		st := f.Status()
		return st.LastErr != nil && strings.Contains(st.LastErr.Error(), "no checkpoint")
	}, "follower never saw the leader's refusal; status %+v", f.Status())
	if got := ap.LastApplied(); got != 0 {
		t.Fatalf("refused follower applied %d records, want 0", got)
	}
}

// TestTornTransferNeverInstallsPartial is the chunk-boundary fault
// sweep: the follower's first connection is severed after every byte
// budget in turn — covering a tear at and around every checkpoint chunk
// boundary and mid-WAL-segment — and each time the redial must finish
// the job with the checkpoint installed whole. InstallSnapshot must
// never see a byte count other than the full payload.
func TestTornTransferNeverInstallsPartial(t *testing.T) {
	src := newLeaderWorld(t, 10, 48)
	payload := bytes.Repeat([]byte("db!"), 16) // 48 bytes, 6 chunks of 8
	if err := checkpoint.Save(src.fs, src.ckptDir, 8, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := src.log.TruncateThrough(8); err != nil {
		t.Fatal(err)
	}
	if src.log.FirstSeq() <= 1 {
		t.Fatal("nothing truncated; sweep would not exercise bootstrap")
	}
	o := fastLeaderOpts()
	o.chunkBytes = 8
	addr := startLeader(t, src, o)

	// The full transfer prefix (publish + 6 chunk frames + 2 segments)
	// is a few hundred bytes; sweeping every byte of it tears at every
	// chunk boundary along the way.
	for budget := 1; budget <= 320; budget += 1 {
		ap := newTestApplier(t)
		var dials atomic.Int32
		f := NewFollower(ap, FollowerOptions{
			RedialWait: time.Millisecond,
			Dial: func() (net.Conn, error) {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					return nil, err
				}
				if dials.Add(1) == 1 {
					return fault.NewConn(conn, int64(budget), -1, nil), nil
				}
				return conn, nil
			},
		})
		stop := runFollower(t, f)

		waitFor(t, 5*time.Second, func() bool { return f.Status().Applied == 10 },
			"budget %d: follower stuck at %d (status %+v)", budget, f.Status().Applied, f.Status())
		stop()

		for i, inst := range ap.installedPayloads() {
			if !bytes.Equal(inst, payload) {
				t.Fatalf("budget %d: install %d saw %d bytes, want the full %d-byte checkpoint",
					budget, i, len(inst), len(payload))
			}
		}
		want := walRecords(t, src.log)
		got := walRecords(t, ap.log)
		for seq := uint64(9); seq <= 10; seq++ {
			if got[seq] != want[seq] {
				t.Fatalf("budget %d: record %d: follower %q, leader %q", budget, seq, got[seq], want[seq])
			}
		}
	}
}

// TestFollowerRidesOutRepeatedTears: every connection is severed after
// a small read budget; redial-with-resume still converges, each record
// applied exactly once (the walRecords read fails on doubles, and the
// final map matches the leader's).
func TestFollowerRidesOutRepeatedTears(t *testing.T) {
	src := newLeaderWorld(t, 30, 0)
	addr := startLeader(t, src, fastLeaderOpts())

	ap := newTestApplier(t)
	f := NewFollower(ap, FollowerOptions{
		RedialWait: time.Millisecond,
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			// Enough for the publish plus a handful of segments, never the
			// whole stream: forces several mid-stream resumes.
			return fault.NewConn(conn, 300, -1, nil), nil
		},
	})
	runFollower(t, f)

	waitFor(t, 10*time.Second, func() bool { return f.Status().Applied == 30 },
		"follower stuck at %d (status %+v)", f.Status().Applied, f.Status())
	if st := f.Status(); st.Resumes == 0 {
		t.Fatalf("no resumes recorded despite torn connections: %+v", st)
	}

	want := walRecords(t, src.log)
	got := walRecords(t, ap.log)
	if len(got) != 30 {
		t.Fatalf("follower holds %d records, want 30", len(got))
	}
	for seq, rec := range want {
		if got[seq] != rec {
			t.Fatalf("record %d: follower %q, leader %q", seq, got[seq], rec)
		}
	}
}

// TestLeaderRefusesFollowerAhead: a hello claiming records the leader
// never wrote is a split deployment; Serve must refuse with
// ErrFollowerAhead and an error frame, not stream backwards.
func TestLeaderRefusesFollowerAhead(t *testing.T) {
	src := newLeaderWorld(t, 3, 0)
	ld := NewLeader(src, fastLeaderOpts())

	server, client := net.Pipe()
	defer client.Close()
	done := make(chan struct{})
	defer close(done)

	got := make(chan wire.Frame, 1)
	go func() {
		rd := wire.NewReader(client, 0)
		fr, err := rd.ReadFrame()
		if err == nil {
			got <- fr
		}
		close(got)
	}()

	err := ld.Serve(server, wire.NewReader(server, 0), 100, 8, done)
	if err == nil || !strings.Contains(err.Error(), "ahead") {
		t.Fatalf("Serve = %v, want ErrFollowerAhead", err)
	}
	fr, ok := <-got
	if !ok || fr.Type != wire.FrameError {
		t.Fatalf("follower saw frame %+v, want a FrameError refusal", fr)
	}
}

// TestFollowerAcksBurstCoalescedWithPublish: regression for a lost-ack
// deadlock. When the WAL burst that exhausts the leader's credit window
// arrives in the same flush as a Publish heartbeat, the follower sees a
// buffered frame after the last segment and defers its commit+ack;
// handling the Publish must still drain the pending commit — otherwise
// the follower blocks reading while the leader blocks on the ack that
// never comes, freezing replication on a live connection.
func TestFollowerAcksBurstCoalescedWithPublish(t *testing.T) {
	const window = 64
	fc, lc := net.Pipe()
	t.Cleanup(func() { fc.Close(); lc.Close() })
	ap := newTestApplier(t)
	f := NewFollower(ap, FollowerOptions{
		Addr:       "pipe",
		Dial:       func() (net.Conn, error) { return fc, nil },
		Window:     window,
		RedialWait: time.Hour, // the scripted leader serves exactly one connection
	})

	acks := make(chan uint64, 16)
	go func() {
		rd := wire.NewReader(lc, 0)
		fr, err := rd.ReadFrame()
		if err != nil || fr.Type != wire.FrameReplHello {
			return
		}
		// One write: a full window of WAL segments with the heartbeat
		// coalesced behind them, exactly what the leader's writer emits
		// when the heartbeat cadence elapses at the end of a burst.
		var burst []byte
		for seq := uint64(1); seq <= window; seq++ {
			burst = wire.AppendFrame(burst, wire.FrameWALSegment, seq, []byte(fmt.Sprintf("rec-%d", seq)))
		}
		burst = wire.AppendFrame(burst, wire.FramePublish, 0, wire.AppendPublish(nil, window, 0))
		if _, err := lc.Write(burst); err != nil {
			return
		}
		for {
			fr, err := rd.ReadFrame()
			if err != nil {
				return
			}
			if fr.Type == wire.FrameReplAck {
				acks <- fr.Seq
			}
		}
	}()
	runFollower(t, f)

	select {
	case seq := <-acks:
		if seq != window {
			t.Fatalf("cumulative ack = %d, want %d", seq, window)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no ack for the coalesced burst; replication would deadlock (status %+v)", f.Status())
	}
	if got := walRecords(t, ap.log); len(got) != window {
		t.Fatalf("follower holds %d records, want %d", len(got), window)
	}
}
