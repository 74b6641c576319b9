package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"moloc/internal/fault"
)

// collect returns a replay callback that accumulates (seq, payload)
// pairs, plus the slice it fills.
func collect() (func(uint64, []byte) error, *[]string) {
	var got []string
	return func(seq uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", seq, payload))
		return nil
	}, &got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		seq, err := l.AppendNoSync([]byte(fmt.Sprintf("batch-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("append %d: seq = %d, want %d", i, seq, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fn, got := collect()
	l2, err := Open(dir, Options{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(*got) != 5 || (*got)[0] != "1:batch-0" || (*got)[4] != "5:batch-4" {
		t.Fatalf("replay: %v", *got)
	}
	st := l2.OpenStats()
	if st.Records != 5 || st.Truncations != 0 || st.DroppedSegments != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if l2.NextSeq() != 6 {
		t.Fatalf("next seq = %d, want 6", l2.NextSeq())
	}
	// Appending after reopen continues the sequence in the same segment.
	if seq, err := l2.AppendNoSync([]byte("post")); err != nil || seq != 6 {
		t.Fatalf("append after reopen: seq=%d err=%v", seq, err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.AppendNoSync([]byte("0123456789012345678901234567890123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("segments = %d, want several", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fn, got := collect()
	l2, err := Open(dir, Options{SegmentBytes: 64}, fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(*got) != 10 {
		t.Fatalf("replayed %d records across segments, want 10", len(*got))
	}
}

// TestTornTailTruncated simulates a crash mid-append: trailing garbage
// after the last valid record must be cut off, not refuse boot.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.AppendNoSync([]byte("solid")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a partial header that a crash mid-write would leave.
	seg := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	fn, got := collect()
	l2, err := Open(dir, Options{}, fn)
	if err != nil {
		t.Fatalf("torn tail must not refuse boot: %v", err)
	}
	if len(*got) != 3 {
		t.Fatalf("replayed %d, want 3", len(*got))
	}
	st := l2.OpenStats()
	if st.Truncations != 1 || st.TornBytes != 3 {
		t.Fatalf("stats: %+v", st)
	}
	// The log is healthy again: append, close, clean reopen.
	if seq, err := l2.AppendNoSync([]byte("after")); err != nil || seq != 4 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	fn3, got3 := collect()
	l3, err := Open(dir, Options{}, fn3)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(*got3) != 4 || l3.OpenStats().Truncations != 0 {
		t.Fatalf("second reopen: %v stats=%+v", *got3, l3.OpenStats())
	}
}

// TestChecksumFlipDropsTail verifies a bit flip mid-log cuts the log at
// the defect and drops the segments after it, booting with what is
// provably intact.
func TestChecksumFlipDropsTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := l.AppendNoSync([]byte("0123456789012345678901234567890123456789")); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if segs < 3 {
		t.Fatalf("need several segments, have %d", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the first record of the first segment.
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize] ^= 0x40
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	fn, got := collect()
	l2, err := Open(dir, Options{SegmentBytes: 64}, fn)
	if err != nil {
		t.Fatalf("corruption must not refuse boot: %v", err)
	}
	defer l2.Close()
	if len(*got) != 0 {
		t.Fatalf("replayed %d records past a corrupt one", len(*got))
	}
	st := l2.OpenStats()
	if st.Truncations != 1 || st.DroppedSegments != segs-1 {
		t.Fatalf("stats: %+v (had %d segments)", st, segs)
	}
	// The log restarts writable from the truncation point.
	if _, err := l2.AppendNoSync([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var last uint64
	for i := 0; i < 12; i++ {
		last, err = l.AppendNoSync([]byte("0123456789012345678901234567890123456789"))
		if err != nil {
			t.Fatal(err)
		}
	}
	before := l.Segments()
	if before < 3 {
		t.Fatalf("need several segments, have %d", before)
	}
	removed, err := l.TruncateThrough(last)
	if err != nil {
		t.Fatal(err)
	}
	if removed != before-1 || l.Segments() != 1 {
		t.Fatalf("removed=%d segments=%d (before=%d)", removed, l.Segments(), before)
	}
	// Truncating below the remaining segment is a no-op.
	if n, err := l.TruncateThrough(last); err != nil || n != 0 {
		t.Fatalf("idempotent truncate: n=%d err=%v", n, err)
	}
	// Sequence numbering is unaffected.
	if seq, err := l.AppendNoSync([]byte("next")); err != nil || seq != last+1 {
		t.Fatalf("append after truncate: seq=%d err=%v", seq, err)
	}
}

// appendDurable is the server's write shape: AppendNoSync, then wait
// on the group committer for the record's durability.
func appendDurable(l *Log, g *GroupCommitter, payload []byte) (uint64, error) {
	seq, err := l.AppendNoSync(payload)
	if err != nil {
		return 0, err
	}
	return seq, g.WaitDurable(seq)
}

func TestSyncIntervalGroupCommit(t *testing.T) {
	dir := t.TempDir()
	cfs := &countingFS{FS: fault.Disk{}}
	clk := fault.NewManualClock(time.Unix(1000, 0))
	l, err := Open(dir, Options{
		FS:        cfs,
		Policy:    SyncInterval,
		SyncEvery: time.Second,
		Now:       clk.Now,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := NewGroupCommitter(l)
	defer g.Close()
	for i := 0; i < 5; i++ {
		if _, err := appendDurable(l, g, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := cfs.syncs.Load(); got != 0 {
		t.Fatalf("no time passed: %d fsyncs, want 0", got)
	}
	clk.Advance(time.Second)
	if _, err := appendDurable(l, g, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := cfs.syncs.Load(); got != 1 {
		t.Fatalf("after window: %d fsyncs, want 1", got)
	}
	// Window resets: the next immediate append does not sync again.
	if _, err := appendDurable(l, g, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got := cfs.syncs.Load(); got != 1 {
		t.Fatalf("inside new window: %d fsyncs, want 1", got)
	}
}

// TestFsyncEIOThenRecover: a transient EIO on fsync fails that record's
// durability wait, but the log keeps accepting records afterwards and
// everything written replays.
func TestFsyncEIOThenRecover(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Disk{}, fault.Rule{Op: fault.OpSync, PathContains: segPrefix, Err: syscall.EIO})
	l, err := Open(dir, Options{FS: in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGroupCommitter(l)
	if _, err := appendDurable(l, g, []byte("lost-ack")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("want EIO, got %v", err)
	}
	seq, err := appendDurable(l, g, []byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 {
		t.Fatalf("seq = %d, want 2 (unacked record still occupies 1)", seq)
	}
	g.Close()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fn, got := collect()
	l2, err := Open(dir, Options{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// At-least-once: the unacknowledged record replays too.
	if len(*got) != 2 {
		t.Fatalf("replay: %v", *got)
	}
}

// TestTornWriteRepairedInPlace: a short write fails the append, and the
// next append truncates the partial frame before writing.
func TestTornWriteRepairedInPlace(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Disk{},
		fault.Rule{Op: fault.OpWrite, PathContains: segPrefix, After: 1, KeepBytes: 5, Err: syscall.ENOSPC})
	l, err := Open(dir, Options{FS: in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendNoSync([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendNoSync([]byte("torn")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if seq, err := l.AppendNoSync([]byte("healed")); err != nil || seq != 2 {
		t.Fatalf("append after repair: seq=%d err=%v", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fn, got := collect()
	l2, err := Open(dir, Options{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(*got) != 2 || (*got)[1] != "2:healed" || l2.OpenStats().Truncations != 0 {
		t.Fatalf("replay: %v stats=%+v", *got, l2.OpenStats())
	}
}

// TestCrashMidWriteRecovers runs the full kill -9 story: crash partway
// through a write, reopen with a fresh filesystem, lose only the
// unacknowledged record.
func TestCrashMidWriteRecovers(t *testing.T) {
	dir := t.TempDir()
	in := fault.NewInjector(fault.Disk{},
		fault.Rule{Op: fault.OpWrite, PathContains: segPrefix, After: 2, KeepBytes: 9, Crash: true})
	l, err := Open(dir, Options{FS: in}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := l.AppendNoSync([]byte("acked")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.AppendNoSync([]byte("in-flight")); !errors.Is(err, fault.ErrCrashed) {
		t.Fatalf("want ErrCrashed, got %v", err)
	}
	// The process is dead; a new one opens the same directory.
	fn, got := collect()
	l2, err := Open(dir, Options{}, fn)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	if len(*got) != 2 {
		t.Fatalf("replay after crash: %v", *got)
	}
	st := l2.OpenStats()
	if st.Truncations != 1 || st.TornBytes != 9 {
		t.Fatalf("stats: %+v", st)
	}
	if seq, err := l2.AppendNoSync([]byte("reborn")); err != nil || seq != 3 {
		t.Fatalf("append after recovery: seq=%d err=%v", seq, err)
	}
}

func TestEnsureSeqAtLeast(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	l.EnsureSeqAtLeast(100)
	if seq, err := l.AppendNoSync([]byte("high")); err != nil || seq != 101 {
		t.Fatalf("seq=%d err=%v, want 101", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fn, got := collect()
	l2, err := Open(dir, Options{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(*got) != 1 || (*got)[0] != "101:high" {
		t.Fatalf("replay: %v", *got)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"interval", SyncInterval}, {"none", SyncNone}} {
		p, err := ParseSyncPolicy(tc.in)
		if err != nil || p != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Fatalf("String() = %q, want %q", p.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy should error")
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendNoSync([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{MaxRecordBytes: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendNoSync(make([]byte, 9)); err == nil {
		t.Fatal("oversize record should be rejected")
	}
	if seq, err := l.AppendNoSync(make([]byte, 8)); err != nil || seq != 1 {
		t.Fatalf("max-size record: seq=%d err=%v", seq, err)
	}
}

// TestReadFromResumesMidLog walks a replication cursor through the log:
// bounded reads advance next, and a caught-up cursor returns next ==
// from with no error and no callbacks.
func TestReadFromResumesMidLog(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 10; i++ {
		if _, err := l.AppendNoSync([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	fn, got := collect()
	next, err := l.ReadFrom(3, 4, fn)
	if err != nil || next != 7 {
		t.Fatalf("ReadFrom(3, 4) = (%d, %v), want (7, nil)", next, err)
	}
	if len(*got) != 4 || (*got)[0] != "3:rec-3" || (*got)[3] != "6:rec-6" {
		t.Fatalf("records: %v", *got)
	}

	fn, got = collect()
	next, err = l.ReadFrom(next, 100, fn)
	if err != nil || next != 11 {
		t.Fatalf("ReadFrom(7, 100) = (%d, %v), want (11, nil)", next, err)
	}
	if len(*got) != 4 {
		t.Fatalf("records: %v", *got)
	}

	// Caught up: no records, no error, cursor unchanged.
	fn, got = collect()
	next, err = l.ReadFrom(11, 100, fn)
	if err != nil || next != 11 || len(*got) != 0 {
		t.Fatalf("caught-up ReadFrom = (%d, %v) with %d records, want (11, nil, 0)", next, err, len(*got))
	}
}

// TestReadFromTruncatedBehindCheckpoint: a cursor below FirstSeq names
// history that only a checkpoint covers now — the reader must get
// ErrTruncated (bootstrap signal), and a cursor at FirstSeq still works.
func TestReadFromTruncatedBehindCheckpoint(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentBytes: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 10; i++ {
		if _, err := l.AppendNoSync([]byte("0123456789012345678901234567890123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.TruncateThrough(8); err != nil {
		t.Fatal(err)
	}
	first := l.FirstSeq()
	if first <= 1 {
		t.Fatalf("FirstSeq = %d; truncation removed nothing, test moot", first)
	}

	if _, err := l.ReadFrom(1, 100, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(1) below FirstSeq %d: err = %v, want ErrTruncated", first, err)
	}

	fn, got := collect()
	next, err := l.ReadFrom(first, 100, fn)
	if err != nil || next != 11 {
		t.Fatalf("ReadFrom(FirstSeq=%d) = (%d, %v), want (11, nil)", first, next, err)
	}
	if len(*got) != int(11-first) {
		t.Fatalf("records from FirstSeq: %d, want %d", len(*got), 11-first)
	}
}

// TestReadFromSequenceJumpGap: a cursor landing inside an
// EnsureSeqAtLeast jump names sequences no record ever carried; the
// reader must get ErrTruncated, never a silent skip.
func TestReadFromSequenceJumpGap(t *testing.T) {
	l, err := Open(t.TempDir(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 2; i++ {
		if _, err := l.AppendNoSync([]byte("before")); err != nil {
			t.Fatal(err)
		}
	}
	l.EnsureSeqAtLeast(10)
	seq, err := l.AppendNoSync([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("post-jump seq = %d, want 11", seq)
	}

	// Cursor inside the jump: truncated.
	if _, err := l.ReadFrom(5, 100, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(5) inside the jump: err = %v, want ErrTruncated", err)
	}
	// A scan that crosses the jump surfaces it too, after delivering the
	// records before it.
	fn, got := collect()
	next, err := l.ReadFrom(1, 100, fn)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("ReadFrom(1) across the jump: err = %v, want ErrTruncated", err)
	}
	if next != 3 || len(*got) != 2 {
		t.Fatalf("pre-jump delivery: next=%d records=%v", next, *got)
	}
	// Past the jump the cursor reads normally.
	fn, got = collect()
	next, err = l.ReadFrom(11, 100, fn)
	if err != nil || next != 12 || len(*got) != 1 || (*got)[0] != "11:after" {
		t.Fatalf("ReadFrom(11) = (%d, %v) records=%v", next, err, *got)
	}
}

// TestReadFromClosed: a closed log refuses cursors outright.
func TestReadFromClosed(t *testing.T) {
	l, err := Open(t.TempDir(), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendNoSync([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(1, 1, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom after Close: err = %v, want ErrClosed", err)
	}
}
