// Package server exercises the durableack analyzer's first rule: a
// function annotated //moloc:durable may only write a 2xx status (or
// release a stream ack) after a call that can reach a WAL append and a
// call that can reach a durability wait. The guards are the engine's
// transitive AppendsWAL and WaitsDurable facts, so a wrapper between
// the handler and (*wal.Log).AppendNoSync or
// (*wal.GroupCommitter).WaitDurable still counts.
package server

import (
	"internal/wal"
	"internal/wire"
)

type writer interface {
	WriteHeader(status int)
}

type resp struct {
	Queued int
}

func writeJSON(w writer, status int, v interface{}) {
	w.WriteHeader(status)
}

type store struct {
	log   *wal.Log
	group *wal.GroupCommitter
}

// enqueue reaches the WAL append and the durability wait through one
// level of indirection: the whole durable write in one helper.
func (s *store) enqueue(p []byte) error {
	seq, err := s.log.AppendNoSync(p)
	if err != nil {
		return err
	}
	return s.group.WaitDurable(seq)
}

// The protocol: durable first, then the 202.
//
//moloc:durable
func (s *store) handleGood(w writer, p []byte) {
	if err := s.enqueue(p); err != nil {
		w.WriteHeader(503)
		return
	}
	writeJSON(w, 202, resp{Queued: 1})
}

// Direct WriteHeader after the append is equally fine.
//
//moloc:durable
func (s *store) handleDirect(w writer, p []byte) {
	if err := s.enqueue(p); err != nil {
		return
	}
	w.WriteHeader(202)
}

// Ack before the append: the client can be told "accepted" and the
// batch still die with the process.
//
//moloc:durable
func (s *store) handleAckFirst(w writer, p []byte) {
	writeJSON(w, 202, resp{Queued: 1}) // want `writes a 2xx status in a //moloc:durable handler with no preceding WAL append`
	if err := s.enqueue(p); err != nil {
		return
	}
}

// No append anywhere.
//
//moloc:durable
func (s *store) handleNoAppend(w writer, p []byte) {
	w.WriteHeader(200) // want `writes a 2xx status in a //moloc:durable handler with no preceding WAL append`
}

// Error statuses carry no durability promise.
//
//moloc:durable
func (s *store) handleReject(w writer) {
	w.WriteHeader(429)
}

// Unannotated handlers are out of scope: not every endpoint is an
// ingest path.
func (s *store) handleStatus(w writer) {
	writeJSON(w, 200, resp{})
}

// --- Streaming plane: the ack is a frame, not a status code. ---

// enqueueStream reaches the WAL through the group-commit append.
func (s *store) enqueueStream(p []byte) error {
	_, err := s.log.AppendNoSync(p)
	return err
}

// commitAcks reaches //moloc:ack through one level of indirection, so
// a call to it inherits SendsAck transitively.
func commitAcks(wr *wire.Writer, seq uint64) {
	wr.WriteAck(seq, 1)
}

// waitDurable reaches the group committer's fsync wait through one
// level of indirection.
func (s *store) waitDurable(seq uint64) error {
	return s.group.WaitDurable(seq)
}

// The protocol again: append first, wait for the covering fsync, ack
// the frame after.
//
//moloc:durable
func (s *store) serveGood(wr *wire.Writer, p []byte, seq uint64) {
	if err := s.enqueueStream(p); err != nil {
		return
	}
	if err := s.waitDurable(seq); err != nil {
		return
	}
	commitAcks(wr, seq)
}

// AppendNoSync then ack: the record is only in the page cache, so a
// crash after the ack loses it.
//
//moloc:durable
func (s *store) serveNoWait(wr *wire.Writer, p []byte, seq uint64) {
	if err := s.enqueueStream(p); err != nil {
		return
	}
	commitAcks(wr, seq) // want `releases a stream ack in a //moloc:durable handler with no preceding durability wait`
}

// The HTTP twins: AppendNoSync then 202 is reported, AppendNoSync then
// WaitDurable then 202 passes.
//
//moloc:durable
func (s *store) handleNoWait(w writer, p []byte) {
	if err := s.enqueueStream(p); err != nil {
		return
	}
	writeJSON(w, 202, resp{Queued: 1}) // want `writes a 2xx status in a //moloc:durable handler with no preceding durability wait`
}

//moloc:durable
func (s *store) handleGroupWait(w writer, p []byte) {
	if err := s.enqueueStream(p); err != nil {
		return
	}
	if err := s.group.WaitDurable(1); err != nil {
		w.WriteHeader(503)
		return
	}
	writeJSON(w, 202, resp{Queued: 1})
}

// Ack frame before the append: the stream-side twin of handleAckFirst.
//
//moloc:durable
func (s *store) serveAckFirst(wr *wire.Writer, p []byte, seq uint64) {
	commitAcks(wr, seq) // want `releases a stream ack in a //moloc:durable handler with no preceding WAL append`
	if err := s.enqueueStream(p); err != nil {
		return
	}
}

// Direct WriteAck with no append anywhere.
//
//moloc:durable
func (s *store) serveNoAppend(wr *wire.Writer, seq uint64) {
	wr.WriteAck(seq, 1) // want `releases a stream ack in a //moloc:durable handler with no preceding WAL append`
}

// Unannotated stream functions are out of scope — the hello ack
// promises nothing about data durability.
func serveHello(wr *wire.Writer) {
	wr.WriteAck(0, 1)
}
