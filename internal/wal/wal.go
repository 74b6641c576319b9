// Package wal implements the observation write-ahead log: an
// append-only, segment-rotating, CRC32C-checksummed record log through
// which the server makes crowdsourced observation batches durable
// before acknowledging them (paper Sec. IV: the motion database is the
// asset; the WAL is what lets a crash keep none of its acknowledged
// training data).
//
// Durability contract: AppendNoSync writes a record and returns its
// sequence number; the record may be acknowledged once
// GroupCommitter.WaitDurable(seq) returns nil, which makes it durable
// per the configured SyncPolicy. On Open, existing segments are
// replayed in order and a torn tail — a partial header, a short
// payload, or a checksum mismatch at the end of the log — is truncated
// rather than refusing to boot; replay therefore yields exactly the
// records whose append completed (at-least-once: a record written but
// unacknowledged because its fsync failed may still replay).
//
// All I/O goes through the fault.FS seam, so every failure mode (EIO on
// fsync, short write, crash between operations, full disk) is
// reproducible in tests.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"moloc/internal/fault"
)

// SyncPolicy selects when WaitDurable releases an appended record.
type SyncPolicy int

// Fsync policies, in decreasing durability order.
const (
	// SyncAlways releases a record only after an fsync covers it: an
	// acknowledged record survives kill -9 and power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per SyncEvery (group commit):
	// an acknowledged record survives process crashes immediately (it
	// is in the OS page cache) and power loss after at most SyncEvery.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes on its own
	// schedule. Fastest, weakest.
	SyncNone
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or none)", s)
}

// String names the policy as ParseSyncPolicy accepts it.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Defaults for the zero fields of Options.
const (
	DefaultSegmentBytes   = 4 << 20
	DefaultMaxRecordBytes = 8 << 20
	DefaultSyncEvery      = 100 * time.Millisecond
)

// Options configure a Log. The zero value selects the defaults: real
// disk, 4 MiB segments, fsync before every release.
type Options struct {
	// FS is the filesystem seam; nil selects the real disk.
	FS fault.FS
	// SegmentBytes rotates to a fresh segment file once the active one
	// reaches this size.
	SegmentBytes int64
	// MaxRecordBytes bounds a single record's payload, and on replay
	// bounds how much a corrupt length prefix can demand.
	MaxRecordBytes int
	// Policy is the fsync policy.
	Policy SyncPolicy
	// SyncEvery is the group-commit window of SyncInterval.
	SyncEvery time.Duration
	// Now is the clock seam for SyncInterval; nil selects time.Now.
	Now fault.Clock
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = fault.Disk{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = DefaultMaxRecordBytes
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = DefaultSyncEvery
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// ReplayStats describes what Open found and repaired.
type ReplayStats struct {
	// Records is how many valid records replayed.
	Records int
	// TornBytes is how many trailing bytes were truncated away.
	TornBytes int64
	// Truncations counts segments cut back (0 or 1 in practice).
	Truncations int
	// DroppedSegments counts whole segments discarded because they
	// followed a corrupt one.
	DroppedSegments int
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: log is closed")

// segment is one on-disk segment file; first is the sequence number of
// its first record (also encoded in its name).
type segment struct {
	name  string
	first uint64
}

// Log is an open write-ahead log. Methods are safe for concurrent use.
type Log struct {
	dir string
	o   Options
	fs  fault.FS

	mu        sync.Mutex
	segs      []segment // sorted; last is active
	f         fault.File
	size      int64 // durable-consistent size of the active segment; SegmentBytes doubles as a force-rotation sentinel
	tail      int64 // exact valid byte length of the last segment (no sentinel) — the read limit for Readers
	nextSeq   uint64
	lastSync  time.Time
	torn      bool // a failed write may have left a partial record
	closed    bool
	buf       []byte
	openStats ReplayStats
}

const (
	segPrefix = "wal-"
	segSuffix = ".seg"
)

func segName(firstSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix),
		"%016x", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// Open opens (creating if needed) the log in dir, replaying every
// existing record through fn in sequence order. A torn or corrupt tail
// is truncated — and any segments after the defect dropped — so Open
// refuses to boot only on real I/O errors or a replay callback error.
// fn may be nil.
func Open(dir string, o Options, fn func(seq uint64, payload []byte) error) (*Log, error) {
	o = o.withDefaults()
	fs := o.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	ents, err := fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: readdir %s: %w", dir, err)
	}
	l := &Log{dir: dir, o: o, fs: fs}
	for _, e := range ents {
		if first, ok := parseSegName(e.Name()); ok {
			l.segs = append(l.segs, segment{name: e.Name(), first: first})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	l.nextSeq = 1
	if len(l.segs) > 0 {
		l.nextSeq = l.segs[0].first
	}
	sr := segReader{maxRec: o.MaxRecordBytes}
	var lastSize int64
	for i := 0; i < len(l.segs); i++ {
		seg := l.segs[i]
		// Whole segments may have been pruned after a checkpoint, so a
		// forward jump at a segment boundary is legal; going backwards
		// would mean overlapping records and is treated as corruption.
		if seg.first < l.nextSeq {
			l.dropFromLocked(i)
			break
		}
		l.nextSeq = seg.first
		path := filepath.Join(dir, seg.name)
		recs, torn, err := replaySegment(fs, path, seg.first, &sr, fn)
		if err != nil {
			return nil, err
		}
		l.nextSeq += uint64(recs)
		l.openStats.Records += recs
		lastSize = sr.off
		if torn > 0 {
			// Torn tail (or mid-log corruption): cut the segment back to
			// its last valid record and drop anything after it.
			if err := fs.Truncate(path, sr.off); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			l.openStats.TornBytes += torn
			l.openStats.Truncations++
			l.dropFromLocked(i + 1)
			break
		}
	}

	// Reopen the last segment for appending when it has room; otherwise
	// the first append rotates.
	if n := len(l.segs); n > 0 && lastSize < o.SegmentBytes {
		path := filepath.Join(dir, l.segs[n-1].name)
		f, err := fs.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen %s: %w", path, err)
		}
		l.f = f
		l.size = lastSize
	} else {
		l.size = o.SegmentBytes // force rotation on first append
	}
	l.tail = lastSize
	l.lastSync = o.Now()
	return l, nil
}

// dropFromLocked removes the segments at and after index i (they follow
// a defect and their sequence numbers can no longer be trusted), keeping
// the stats honest about the loss. Callers run during Open, before the
// Log is shared, which satisfies the l.mu guard.
func (l *Log) dropFromLocked(i int) {
	for _, seg := range l.segs[i:] {
		//lint:ignore errdrop best-effort cleanup of untrusted segments; replay already excludes them
		_ = l.fs.Remove(filepath.Join(l.dir, seg.name))
		l.openStats.DroppedSegments++
	}
	l.segs = l.segs[:i]
}

// OpenStats reports what Open replayed and repaired.
func (l *Log) OpenStats() ReplayStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.openStats
}

// NextSeq returns the sequence number the next append will use.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// FirstSeq returns the sequence number of the oldest record still
// retained (NextSeq when the log holds no records): reads below it have
// been truncated away behind a checkpoint.
func (l *Log) FirstSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segs) > 0 {
		return l.segs[0].first
	}
	return l.nextSeq
}

// ErrTruncated reports a read whose requested sequence is no longer
// materialized in the log — truncated behind a checkpoint, or falling
// in a sequence jump introduced by EnsureSeqAtLeast. The reader must
// restart from a checkpoint covering at least that sequence.
var ErrTruncated = errors.New("wal: requested sequence truncated away")

// EnsureSeqAtLeast guarantees the next append's sequence number exceeds
// seq. The server calls it after checkpoint recovery so new records can
// never be shadowed by an older checkpoint's coverage (possible only
// when the WAL directory was wiped independently of the checkpoints).
func (l *Log) EnsureSeqAtLeast(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.nextSeq <= seq {
		l.nextSeq = seq + 1
		l.size = l.o.SegmentBytes // rotate so segment naming stays consistent
	}
}

// AppendNoSync writes one record without making it durable: the write
// lands in the active segment (and the OS page cache) but no fsync is
// issued regardless of policy. The record MUST NOT be acknowledged
// until a covering Sync — in practice GroupCommitter.WaitDurable, which
// amortizes one fsync over every AppendNoSync that raced in. This is
// the split that turns N streams × 1 fsync each into 1 fsync total.
func (l *Log) AppendNoSync(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) > l.o.MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte cap", len(payload), l.o.MaxRecordBytes)
	}
	if l.torn {
		// A failed write may have left a partial frame; cut the segment
		// back to the last whole record before writing anything new, so a
		// transient error (EIO, brief disk-full) heals instead of
		// poisoning the tail. l.tail, not l.size: size may hold the
		// force-rotation sentinel, which would grow the file with zeros.
		if err := l.fs.Truncate(l.activePathLocked(), l.tail); err != nil {
			return 0, fmt.Errorf("wal: repair torn tail: %w", err)
		}
		l.torn = false
	}
	if l.f == nil || l.size >= l.o.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	l.buf = appendRecord(l.buf[:0], l.nextSeq, payload)
	n, err := l.f.Write(l.buf)
	if err != nil {
		if n > 0 {
			l.torn = true
		}
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	seq := l.nextSeq
	l.nextSeq++
	l.size += int64(n)
	l.tail = l.size
	return seq, nil
}

// Policy reports the configured fsync policy.
func (l *Log) Policy() SyncPolicy {
	return l.o.Policy
}

// SyncIfDue fsyncs only when the SyncInterval cadence has elapsed since
// the last sync; under other policies it does nothing. It lets the
// streaming path honor the interval policy without a timer goroutine:
// each ack release gives the cadence a chance to fire.
func (l *Log) SyncIfDue() error {
	if l.o.Policy != SyncInterval {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return nil
	}
	if now := l.o.Now(); now.Sub(l.lastSync) >= l.o.SyncEvery {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
		l.lastSync = now
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	l.lastSync = l.o.Now()
	return nil
}

// TruncateThrough removes every segment whose records are all covered
// by seq (a durable checkpoint), never the active segment. Returns how
// many segments were removed.
func (l *Log) TruncateThrough(seq uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segs) > 1 && l.segs[1].first-1 <= seq {
		path := filepath.Join(l.dir, l.segs[0].name)
		if err := l.fs.Remove(path); err != nil {
			return removed, fmt.Errorf("wal: remove %s: %w", path, err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := l.fs.SyncDir(l.dir); err != nil {
			return removed, fmt.Errorf("wal: syncdir: %w", err)
		}
	}
	return removed, nil
}

// Close syncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return fmt.Errorf("wal: close sync: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: close: %w", cerr)
	}
	return nil
}

// activePathLocked names the segment currently accepting appends.
// Callers hold l.mu.
func (l *Log) activePathLocked() string {
	return filepath.Join(l.dir, l.segs[len(l.segs)-1].name)
}

// rotateLocked seals the active segment (fsync + close) and starts a
// fresh one named after the next sequence number, fsyncing the
// directory so the new file survives a crash.
func (l *Log) rotateLocked() error {
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: rotate sync: %w", err)
		}
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: rotate close: %w", err)
		}
		l.f = nil
	}
	name := segName(l.nextSeq)
	path := filepath.Join(l.dir, name)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		//lint:ignore errdrop the segment create failed durability; report that, close is cleanup
		_ = f.Close()
		return fmt.Errorf("wal: syncdir after segment create: %w", err)
	}
	l.segs = append(l.segs, segment{name: name, first: l.nextSeq})
	l.f = f
	l.size = 0
	l.tail = 0
	return nil
}
