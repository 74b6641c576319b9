// Reading: the one path by which records come back out of segment
// files. Open replays every segment through a segReader, and a Reader —
// one per replication connection — keeps a segReader open on the
// segment under its cursor, so tailing the log costs the bytes appended
// since the previous read, not a re-read of the whole segment.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"moloc/internal/fault"
)

// readBufBytes is a segReader's initial buffer; it grows only to fit a
// record larger than itself.
const readBufBytes = 64 << 10

// defectError marks bytes that are not the expected next record: a
// short, oversized, or checksum-failing frame, or a sequence
// discontinuity. Open truncates a segment at one; a Reader reports it.
type defectError struct{ err error }

func (e *defectError) Error() string { return e.err.Error() }

// segReader streams the records of one segment file through a reused
// buffer. It reads only through io.Reader (all a fault.File offers) and
// never past limit, and it decodes in place: a payload aliases buf
// until the next refill, and the buffer is compacted only on refill.
type segReader struct {
	src    io.Reader
	buf    []byte
	pos    int // buf[pos:end] is read but not yet decoded
	end    int
	off    int64  // file offset of buf[pos]: where the next record starts
	limit  int64  // read no further than this file offset; < 0 reads to EOF
	done   bool   // limit or EOF reached on this pass
	seq    uint64 // sequence number the next record must carry
	maxRec int
}

// reset points the reader at the start of a freshly opened segment
// whose first record carries seq first.
func (s *segReader) reset(src io.Reader, first uint64, limit int64) {
	if s.buf == nil {
		s.buf = make([]byte, readBufBytes)
	}
	s.src, s.pos, s.end, s.off, s.limit, s.done, s.seq = src, 0, 0, 0, limit, false, first
}

// next decodes the record at the cursor and moves past it. It returns
// io.EOF once every byte up to the limit is consumed, a *defectError
// when the bytes at the cursor are not the expected next record, or
// the read error.
func (s *segReader) next() (seq uint64, payload []byte, err error) {
	for {
		seq, payload, n, derr := decodeRecord(s.buf[s.pos:s.end], s.maxRec)
		switch {
		case derr == nil && seq != s.seq:
			return 0, nil, &defectError{fmt.Errorf("wal: sequence discontinuity: record %d where %d expected", seq, s.seq)}
		case derr == nil:
			s.pos += n
			s.off += int64(n)
			s.seq++
			return seq, payload, nil
		case derr != errShort:
			return 0, nil, &defectError{derr}
		case s.done && s.pos == s.end:
			return 0, nil, io.EOF
		case s.done:
			return 0, nil, &defectError{derr}
		}
		if err := s.fill(); err != nil {
			return 0, nil, err
		}
	}
}

// fill moves the undecoded bytes to the front of buf, grows buf when the
// record at the cursor cannot fit, and reads once more, up to the limit.
// It sets done when the limit or EOF is reached.
func (s *segReader) fill() error {
	need := headerSize
	if s.end-s.pos >= headerSize {
		// decodeRecord already refused a length above maxRec.
		need += int(binary.LittleEndian.Uint32(s.buf[s.pos:]))
	}
	if s.pos > 0 {
		s.end = copy(s.buf, s.buf[s.pos:s.end])
		s.pos = 0
	}
	if need > len(s.buf) {
		grown := make([]byte, max(need, 2*len(s.buf)))
		copy(grown, s.buf[:s.end])
		s.buf = grown
	}
	room := int64(len(s.buf) - s.end)
	if s.limit >= 0 {
		room = min(room, s.limit-s.off-int64(s.end))
	}
	if room <= 0 {
		s.done = true
		return nil
	}
	n, err := s.src.Read(s.buf[s.end : s.end+int(room)])
	s.end += n
	switch {
	case errors.Is(err, io.EOF):
		s.done = true
		return nil
	case err != nil:
		return err
	case n == 0:
		return io.ErrNoProgress
	}
	return nil
}

// drain reads the segment to EOF and returns how many bytes lie past the
// cursor: Open's measure of a torn tail.
func (s *segReader) drain() (int64, error) {
	n := int64(s.end - s.pos)
	for {
		m, err := s.src.Read(s.buf)
		n += int64(m)
		switch {
		case errors.Is(err, io.EOF):
			return n, nil
		case err != nil:
			return n, err
		case m == 0:
			return n, io.ErrNoProgress
		}
	}
}

// replay streams every record from the cursor to EOF through fn (which
// may be nil). It returns how many valid records it delivered and, when
// a defect stopped it, how many bytes lie from the defect (at s.off) to
// EOF — the torn tail Open cuts away.
func (s *segReader) replay(fn func(seq uint64, payload []byte) error) (records int, torn int64, err error) {
	for {
		seq, payload, nerr := s.next()
		var defect *defectError
		switch {
		case nerr == io.EOF:
			return records, 0, nil
		case errors.As(nerr, &defect):
			torn, err = s.drain()
			return records, torn, err
		case nerr != nil:
			return records, 0, nerr
		}
		if fn != nil {
			if err := fn(seq, payload); err != nil {
				return records, 0, err
			}
		}
		records++
	}
}

// replaySegment runs replay over the whole segment file at path, whose
// first record carries seq first.
func replaySegment(fs fault.FS, path string, first uint64, s *segReader,
	fn func(seq uint64, payload []byte) error) (records int, torn int64, err error) {
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	defer f.Close()
	s.reset(f, first, -1)
	records, torn, err = s.replay(fn)
	if err != nil {
		return records, torn, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	return records, torn, nil
}

// readSeg is one segment as a Reader sees it, snapshotted under l.mu:
// sealed segments are immutable and read to EOF (limit < 0); the active
// segment is read only up to its valid tail at snapshot time, so a
// concurrent append or torn write past it is never observed.
type readSeg struct {
	name  string
	first uint64
	limit int64
}

// Reader is an incremental cursor over a Log: an open handle on the
// segment holding the next record, that record's byte offset and
// sequence number, and one reused buffer. Reading from where the
// previous call stopped touches only the bytes appended since; any other
// from re-opens the segment holding it and skips forward. A Reader is
// for one goroutine — give each replication connection its own — and
// is safe to use concurrently with appends, rotation, and truncation on
// its Log.
type Reader struct {
	l     *Log
	f     fault.File // the segment sr reads; nil when positioned nowhere
	first uint64     // first sequence of that segment
	sr    segReader
	snap  []readSeg // reused segment snapshot
}

// NewReader returns a Reader over l positioned nowhere; its first
// ReadFrom opens the segment holding from. Close releases its handle.
func (l *Log) NewReader() *Reader {
	return &Reader{l: l, sr: segReader{maxRec: l.o.MaxRecordBytes}}
}

// Close releases the reader's segment handle. The Reader stays usable:
// the next ReadFrom re-opens.
func (r *Reader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// drop closes the handle after a failed read so the next ReadFrom
// repositions from scratch.
func (r *Reader) drop() {
	//lint:ignore errdrop the read error is what the caller sees; this is cleanup
	_ = r.Close()
}

// ReadFrom streams up to max records with sequence numbers >= from
// through fn, in order, and returns the next sequence to request.
// next == from with a nil error means the caller is caught up.
// ErrTruncated means from is no longer materialized — below FirstSeq,
// or inside an EnsureSeqAtLeast jump — and the caller must restart from
// a checkpoint. Every delivered record is CRC-checked; a defect in the
// range read is an error. The payload passed to fn aliases the reader's
// buffer and is only valid during the callback.
func (r *Reader) ReadFrom(from uint64, max int, fn func(seq uint64, payload []byte) error) (next uint64, err error) {
	l := r.l
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return from, ErrClosed
	}
	first := l.nextSeq
	if len(l.segs) > 0 {
		first = l.segs[0].first
	}
	if from < first {
		l.mu.Unlock()
		return from, ErrTruncated
	}
	if from >= l.nextSeq || max <= 0 {
		l.mu.Unlock()
		return from, nil
	}
	r.snap = r.snap[:0]
	for i, seg := range l.segs {
		// end overestimates across an EnsureSeqAtLeast jump; that only
		// costs a skippable read, never skips a holding segment.
		end := l.nextSeq
		if i+1 < len(l.segs) {
			end = l.segs[i+1].first
		}
		if end <= from {
			continue
		}
		rs := readSeg{name: seg.name, first: seg.first, limit: -1}
		if i == len(l.segs)-1 {
			rs.limit = l.tail
		}
		r.snap = append(r.snap, rs)
	}
	l.mu.Unlock()

	next = from
	count := 0
	for _, rs := range r.snap {
		if r.f == nil || r.first != rs.first || r.sr.seq > next {
			if err := r.open(rs); err != nil {
				if errors.Is(err, os.ErrNotExist) {
					// Raced a checkpoint truncation; the checkpoint covers it.
					return next, ErrTruncated
				}
				return next, fmt.Errorf("wal: read %s: %w", rs.name, err)
			}
		}
		r.sr.limit, r.sr.done = rs.limit, false
		for count < max {
			seq, payload, nerr := r.sr.next()
			if nerr == io.EOF {
				break
			}
			if nerr != nil {
				r.drop()
				return next, fmt.Errorf("wal: read %s: %w", rs.name, nerr)
			}
			if seq < next {
				continue // below the cursor; repositioning
			}
			if seq > next {
				// A jump at a segment boundary (EnsureSeqAtLeast): the
				// missing range exists only as checkpoint coverage.
				return next, ErrTruncated
			}
			if err := fn(seq, payload); err != nil {
				r.drop()
				return next, err
			}
			next++
			count++
		}
		if count >= max {
			return next, nil
		}
	}
	if count == 0 {
		// from is below NextSeq yet no record carries it: it fell in a
		// sequence jump whose range only a checkpoint covers.
		return next, ErrTruncated
	}
	return next, nil
}

// open switches the reader to the start of segment rs.
func (r *Reader) open(rs readSeg) error {
	r.drop()
	f, err := r.l.fs.OpenFile(filepath.Join(r.l.dir, rs.name), os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	r.sr.reset(f, rs.first, rs.limit)
	r.f, r.first = f, rs.first
	return nil
}

// ReadFrom is a one-shot Reader.ReadFrom: it opens a reader, reads, and
// closes it. Callers that read repeatedly keep a Reader instead.
func (l *Log) ReadFrom(from uint64, max int, fn func(seq uint64, payload []byte) error) (uint64, error) {
	r := l.NewReader()
	defer r.drop()
	return r.ReadFrom(from, max, fn)
}
