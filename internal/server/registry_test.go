package server

import (
	"fmt"
	"testing"
	"time"
)

func TestRegistryReserveCap(t *testing.T) {
	r := newSessionRegistry(4)
	if !r.reserve(2) || !r.reserve(2) {
		t.Fatal("reservations under the cap refused")
	}
	if r.reserve(2) {
		t.Fatal("reservation beyond the cap admitted")
	}
	r.insert(newSession("s1", nil, time.Now()))
	if _, ok := r.remove("s1"); !ok {
		t.Fatal("remove of an inserted session failed")
	}
	if !r.reserve(2) {
		t.Fatal("removed session's capacity not reusable")
	}
}

func TestRegistryAllocIDSequence(t *testing.T) {
	r := newSessionRegistry(4)
	for i := 1; i <= 3; i++ {
		if id := r.allocID(); id != fmt.Sprintf("s%d", i) {
			t.Fatalf("allocID #%d = %q", i, id)
		}
	}
}

// TestRegistryRemoveMatch pins the identity semantics the two-phase
// sweeper depends on: removeMatch unmaps a session only while the exact
// pointer it holds is still the one mapped, so a delete+recreate racing
// the sweeper can never unmap the newcomer.
func TestRegistryRemoveMatch(t *testing.T) {
	r := newSessionRegistry(4)
	now := time.Now()
	old := newSession("s1", nil, now)
	r.reserve(10)
	r.insert(old)
	if !r.removeMatch(old) {
		t.Fatal("removeMatch refused the mapped session")
	}
	if r.len() != 0 {
		t.Fatalf("len = %d after removeMatch", r.len())
	}
	// Same id, different session: the stale pointer must not unmap it.
	fresh := newSession("s1", nil, now)
	r.reserve(10)
	r.insert(fresh)
	if r.removeMatch(old) {
		t.Fatal("removeMatch unmapped a recreated session via a stale pointer")
	}
	if got, ok := r.get("s1"); !ok || got != fresh {
		t.Fatal("recreated session lost")
	}
}

// TestRegistryStriping checks the shard walk covers exactly the mapped
// sessions: every insert lands in the stripe shardOf names, and
// appendShard over all stripes enumerates the full population once.
func TestRegistryStriping(t *testing.T) {
	const n = 500
	r := newSessionRegistry(8)
	now := time.Now()
	for i := 0; i < n; i++ {
		if !r.reserve(n) {
			t.Fatal("reserve refused under the cap")
		}
		r.insert(newSession(r.allocID(), nil, now))
	}
	if r.len() != n {
		t.Fatalf("len = %d, want %d", r.len(), n)
	}
	seen := make(map[string]bool, n)
	var buf []*session
	for i := 0; i < r.numShards(); i++ {
		buf = r.appendShard(i, buf[:0])
		for _, ss := range buf {
			if seen[ss.id] {
				t.Fatalf("session %s appears in two stripes", ss.id)
			}
			seen[ss.id] = true
			if got := r.shard(ss.id); got != &r.shards[i] {
				t.Fatalf("session %s mapped in stripe %d but shard() points elsewhere", ss.id, i)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("stripe walk found %d sessions, want %d", len(seen), n)
	}
	if _, ok := r.remove("s1"); !ok {
		t.Fatal("remove failed")
	}
	if r.len() != n-1 {
		t.Fatalf("len = %d after remove", r.len())
	}
}
