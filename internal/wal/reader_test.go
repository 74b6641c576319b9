package wal

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"moloc/internal/fault"
)

// walRec is one delivered record, payload copied out of the callback.
type walRec struct {
	seq     uint64
	payload string
}

// modelRead is ReadFrom's contract evaluated over the set of records
// the log should hold: ErrTruncated below first, inside a sequence jump
// with records after it, or when no record carries from; a clean stop
// at max, at nextSeq, or at a jump nothing follows yet.
func modelRead(model map[uint64]string, first, nextSeq, from uint64, max int) (want []walRec, next uint64, truncated bool) {
	if from < first {
		return nil, from, true
	}
	if from >= nextSeq || max <= 0 {
		return nil, from, false
	}
	next = from
	for len(want) < max && next < nextSeq {
		p, ok := model[next]
		if !ok {
			if _, later := modelNext(model, next); later {
				return want, next, true
			}
			break
		}
		want = append(want, walRec{next, p})
		next++
	}
	return want, next, len(want) == 0
}

// modelNext returns the lowest sequence >= from the model holds.
func modelNext(model map[uint64]string, from uint64) (uint64, bool) {
	best, ok := uint64(0), false
	for seq := range model {
		if seq >= from && (!ok || seq < best) {
			best, ok = seq, true
		}
	}
	return best, ok
}

// modelSince lists the model's records from first on, in order.
func modelSince(model map[uint64]string, first uint64) []walRec {
	var out []walRec
	for seq, p := range model {
		if seq >= first {
			out = append(out, walRec{seq, p})
		}
	}
	slices.SortFunc(out, func(a, b walRec) int { return int(a.seq) - int(b.seq) })
	return out
}

// FuzzReaderVsReplay drives a log with tiny segments through random
// appends, checkpoint truncations, sequence jumps, and one injected torn
// write, while two long-lived Readers and the one-shot Log.ReadFrom read
// at random cursors. Every read must deliver exactly the records the
// model holds and return ErrTruncated exactly where the contract says;
// at the end a fresh Reader walk, the model, and a fresh Open replay
// must agree record for record.
//
// Input: data[0] and data[1] place the torn write and size the segments
// and read buffers; each later byte is one op (low 3 bits) with a 5-bit
// parameter.
func FuzzReaderVsReplay(f *testing.F) {
	f.Add([]byte{3, 10, 0x20, 0x28, 0x30, 0x05, 0x38, 0x40, 0x0d, 0x48, 0x03, 0x0e, 0x50, 0x05, 0x15, 0x1d})
	f.Add([]byte{0, 0, 0x08, 0x10, 0x04, 0x18, 0x05, 0x1d, 0x06, 0x25, 0x20, 0x2d})
	f.Add([]byte{7, 200, 0x40, 0x48, 0x50, 0x58, 0x60, 0x03, 0x0b, 0x25, 0x2d, 0x35, 0x3d, 0x07, 0x0c, 0x05, 0x06})
	f.Add([]byte{1, 23, 0x28, 0x05, 0x28, 0x05, 0x28, 0x0c, 0x05, 0x28, 0x0d, 0x3d, 0x1b, 0x28, 0x05, 0x15})
	// Two appends, the second torn: its partial frame sits past the
	// tail when the final walk reads the active segment.
	f.Add([]byte{0x41, 0x30, 0x30, 0x30})
	f.Add([]byte{31, 99, 0xf8, 0xf0, 0xe8, 0x1d, 0x1e, 0x03, 0xfd, 0xf8, 0x0c, 0x0c, 0xf8, 0x05, 0x0d, 0x15, 0x1d})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 256 {
			t.Skip()
		}
		dir := t.TempDir()
		segBytes := 40 + int64(data[1]%8)*24
		inj := fault.NewInjector(fault.Disk{}, fault.Rule{
			Op: fault.OpWrite, PathContains: ".seg", After: int(data[0] % 32), KeepBytes: 1 + int(data[1]%24),
		})
		l, err := Open(dir, Options{FS: inj, SegmentBytes: segBytes, Policy: SyncNone}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		readers := [2]*Reader{l.NewReader(), l.NewReader()}
		defer readers[0].Close()
		defer readers[1].Close()
		// A tiny buffer drives refill, compaction, and growth on a live
		// segment.
		readers[0].sr.buf = make([]byte, 1+int(data[0]%40))
		cursors := [2]uint64{1, 1}
		model := map[uint64]string{}

		for i, b := range data[2:] {
			p := int(b >> 3)
			switch b % 8 {
			case 0, 1, 2, 7:
				payload := strings.Repeat(string(rune('a'+i%26)), p)
				if seq, err := l.AppendNoSync([]byte(payload)); err == nil {
					model[seq] = payload
				}
			case 3:
				if _, err := l.TruncateThrough(l.FirstSeq() + uint64(p%4)); err != nil {
					t.Fatal(err)
				}
			case 4:
				l.EnsureSeqAtLeast(l.NextSeq() - 1 + uint64(p%4))
			case 5, 6:
				k := p & 1
				first, nextSeq := l.FirstSeq(), l.NextSeq()
				from := cursors[k]
				switch (p >> 1) & 3 {
				case 1:
					from = first - 1
				case 2:
					from = nextSeq
				case 3:
					from = first + (nextSeq-first)/2
				}
				budget := 1 + p>>3
				var got []walRec
				fn := func(seq uint64, payload []byte) error {
					got = append(got, walRec{seq, string(payload)})
					return nil
				}
				var next uint64
				var err error
				if b%8 == 5 {
					next, err = readers[k].ReadFrom(from, budget, fn)
				} else {
					next, err = l.ReadFrom(from, budget, fn)
				}
				want, wantNext, truncated := modelRead(model, first, nextSeq, from, budget)
				if err != nil && !errors.Is(err, ErrTruncated) {
					t.Fatalf("op %d: ReadFrom(%d, %d): %v", i, from, budget, err)
				}
				if errors.Is(err, ErrTruncated) != truncated || next != wantNext || !slices.Equal(got, want) {
					t.Fatalf("op %d: ReadFrom(%d, %d) = (%d, %v) %v; want (%d, truncated=%v) %v",
						i, from, budget, next, err, got, wantNext, truncated, want)
				}
				if b%8 == 5 {
					cursors[k] = next
					if truncated {
						// What a follower does: bootstrap past the hole.
						if seq, ok := modelNext(model, max(next, first)); ok {
							cursors[k] = seq
						}
					}
				}
			}
		}

		first := l.FirstSeq()
		var walked []walRec
		r := l.NewReader()
		defer r.Close()
		for from := first; ; {
			next, err := r.ReadFrom(from, 3, func(seq uint64, payload []byte) error {
				walked = append(walked, walRec{seq, string(payload)})
				return nil
			})
			if errors.Is(err, ErrTruncated) {
				seq, ok := modelNext(model, next)
				if !ok {
					break
				}
				if seq <= from {
					t.Fatalf("ErrTruncated at %d, but the model holds record %d", from, seq)
				}
				from = seq
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if next == from {
				break
			}
			from = next
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		var replayed []walRec
		l2, err := Open(dir, Options{SegmentBytes: segBytes}, func(seq uint64, payload []byte) error {
			replayed = append(replayed, walRec{seq, string(payload)})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		want := modelSince(model, first)
		if !slices.Equal(walked, want) {
			t.Fatalf("reader walk %v\nwant %v", walked, want)
		}
		if !slices.Equal(replayed, want) {
			t.Fatalf("Open replay %v\nwant %v", replayed, want)
		}
	})
}

// TestReaderTailAllocsFlat pins the cost of a steady-state tail read: a
// Reader caught up on the active segment reads one freshly appended
// record with the same allocations whether that segment holds 64 KiB
// or 16 MiB.
func TestReaderTailAllocsFlat(t *testing.T) {
	var allocs []float64
	for _, size := range []int{64 << 10, 16 << 20} {
		l, r, next := tailFixture(t, size)
		payload := make([]byte, 200)
		a := testing.AllocsPerRun(200, func() {
			if _, err := l.AppendNoSync(payload); err != nil {
				t.Fatal(err)
			}
			n, err := r.ReadFrom(next, 1, func(uint64, []byte) error { return nil })
			if err != nil || n != next+1 {
				t.Fatalf("tail read = (%d, %v), want (%d, nil)", n, err, next+1)
			}
			next = n
		})
		allocs = append(allocs, a)
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("allocs per tail read: %v at 64 KiB, %v at 16 MiB; want equal", allocs[0], allocs[1])
	}
}

// tailFixture opens a log whose active segment holds about size bytes
// and a Reader caught up to its tail, returning the next sequence.
func tailFixture(tb testing.TB, size int) (*Log, *Reader, uint64) {
	tb.Helper()
	l, err := Open(tb.TempDir(), Options{SegmentBytes: 1 << 30, Policy: SyncNone}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	rec := make([]byte, 4<<10)
	for written := 0; written < size; written += headerSize + len(rec) {
		if _, err := l.AppendNoSync(rec); err != nil {
			tb.Fatal(err)
		}
	}
	r := l.NewReader()
	tb.Cleanup(func() { r.Close() })
	next := uint64(1)
	for {
		n, err := r.ReadFrom(next, 1024, func(uint64, []byte) error { return nil })
		if err != nil {
			tb.Fatal(err)
		}
		if n == next {
			return l, r, next
		}
		next = n
	}
}

// BenchmarkWALReader is one append plus the tail read that ships it,
// at growing active-segment sizes: ns/op and allocs/op stay flat
// because the reader resumes from its cursor instead of re-reading the
// segment.
func BenchmarkWALReader(b *testing.B) {
	for _, size := range []int{64 << 10, 1 << 20, 16 << 20} {
		b.Run(fmt.Sprintf("seg=%dKiB", size>>10), func(b *testing.B) {
			l, r, next := tailFixture(b, size)
			payload := make([]byte, 200)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.AppendNoSync(payload); err != nil {
					b.Fatal(err)
				}
				n, err := r.ReadFrom(next, 1, func(uint64, []byte) error { return nil })
				if err != nil || n != next+1 {
					b.Fatalf("tail read = (%d, %v)", n, err)
				}
				next = n
			}
		})
	}
}
