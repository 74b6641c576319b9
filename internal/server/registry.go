// Sharded session registry: the session map striped N ways by the same
// FNV-1a hash the worker pool shards work with (pool.go:shardOf). At
// city scale the old single Server.mu in front of a flat map was the
// last global serialization point on the fix path — every create,
// lookup, delete, and sweep contended on it regardless of which session
// they touched. Striping by the pool's own hash means (a) lookups on
// different sessions take different locks, and (b) with the default
// Shards == Workers a registry shard's sessions are owned by exactly
// one worker, so a shard lock is effectively uncontended at steady
// state: the only writers are create/delete/sweep, and the one worker
// that serves the shard's sessions never blocks behind another's.
//
// The live-session count and ID allocator are atomics outside the
// shards, so NumSessions and the MaxSessions admission check never take
// any lock at all: admission is reserve-then-insert (count first, map
// second), and eviction gives the reservation back after the map
// delete, keeping the count an upper bound on map occupancy — the
// conservative direction for an admission limit.
package server

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// sessionShard is one stripe of the registry. Fields after mu are
// guarded by it.
type sessionShard struct {
	mu sync.Mutex
	m  map[string]*session
}

// sessionRegistry stripes live sessions over shards; see the package
// comment above for the locking discipline.
type sessionRegistry struct {
	shards []sessionShard
	count  atomic.Int64 // live sessions (reserved + inserted)
	nextID atomic.Int64 // monotonic session ID allocator
}

// newSessionRegistry builds a registry with n stripes (n < 1 selects 1).
func newSessionRegistry(n int) *sessionRegistry {
	if n < 1 {
		n = 1
	}
	r := &sessionRegistry{shards: make([]sessionShard, n)}
	for i := range r.shards {
		r.shards[i].m = make(map[string]*session)
	}
	return r
}

// numShards reports the stripe count.
func (r *sessionRegistry) numShards() int { return len(r.shards) }

// shard returns the stripe owning id.
func (r *sessionRegistry) shard(id string) *sessionShard {
	return &r.shards[shardOf(id, len(r.shards))]
}

// allocID mints the next session ID ("s1", "s2", ...).
func (r *sessionRegistry) allocID() string {
	return "s" + strconv.FormatInt(r.nextID.Add(1), 10)
}

// reserve claims one session slot against max, reporting false without
// side effects when the registry is full. A successful reserve must be
// followed by insert.
func (r *sessionRegistry) reserve(max int) bool {
	if r.count.Add(1) > int64(max) {
		r.count.Add(-1)
		return false
	}
	return true
}

// insert files a session under its reserved slot.
func (r *sessionRegistry) insert(ss *session) {
	sh := r.shard(ss.id)
	sh.mu.Lock()
	sh.m[ss.id] = ss
	sh.mu.Unlock()
}

// get looks a session up by ID.
func (r *sessionRegistry) get(id string) (*session, bool) {
	sh := r.shard(id)
	sh.mu.Lock()
	ss, ok := sh.m[id]
	sh.mu.Unlock()
	return ss, ok
}

// remove unmaps and returns the session under id, releasing its slot.
func (r *sessionRegistry) remove(id string) (*session, bool) {
	sh := r.shard(id)
	sh.mu.Lock()
	ss, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if ok {
		r.count.Add(-1)
	}
	return ss, ok
}

// removeMatch unmaps id only while it still resolves to ss, releasing
// the slot when it does. It is the sweeper's second phase: between
// marking ss evicted and unmapping it, the ID could in principle have
// been deleted and reused, and a blind delete would then evict an
// innocent newborn.
func (r *sessionRegistry) removeMatch(ss *session) bool {
	sh := r.shard(ss.id)
	sh.mu.Lock()
	cur, ok := sh.m[ss.id]
	if ok = ok && cur == ss; ok {
		delete(sh.m, ss.id)
	}
	sh.mu.Unlock()
	if ok {
		r.count.Add(-1)
	}
	return ok
}

// len reports the number of live sessions (including reservations in
// flight, so it can transiently exceed map occupancy by the number of
// concurrent creates).
func (r *sessionRegistry) len() int { return int(r.count.Load()) }

// appendShard appends shard i's sessions to dst, reusing its capacity —
// the sweeper's per-wake snapshot, taken under one stripe lock instead
// of a whole-registry lock.
//
//moloc:reuse
func (r *sessionRegistry) appendShard(i int, dst []*session) []*session {
	sh := &r.shards[i]
	sh.mu.Lock()
	for _, ss := range sh.m {
		dst = append(dst, ss)
	}
	sh.mu.Unlock()
	return dst
}
