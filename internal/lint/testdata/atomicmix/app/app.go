// Package app exercises the atomicmix analyzer: every shared cell is a
// typed atomic, so each call to sync/atomic's function API in non-test
// code is reported — whether or not the cell is also touched plainly,
// and wherever the cell is declared.
package app

import (
	"sync/atomic"

	"lib"
)

type counters struct {
	hits  int64
	total atomic.Int64 // the one legal shape
	plain int64        // never touched atomically; free to use plainly
}

func (c *counters) inc() {
	atomic.AddInt64(&c.hits, 1) // want `atomic.AddInt64 on a plain cell`
	c.total.Add(1)
}

// A function-API discipline that never mixes is still the second
// shape: nothing stops the next edit from reading hits plainly.
func (c *counters) loadHits() int64 {
	return atomic.LoadInt64(&c.hits) // want `atomic.LoadInt64 on a plain cell`
}

func (c *counters) claim() bool {
	return atomic.CompareAndSwapInt64(&c.hits, 0, 1) // want `atomic.CompareAndSwapInt64 on a plain cell`
}

// Typed atomics are accessed through their methods and never report.
func (c *counters) snapshot() int64 {
	return c.total.Load()
}

func (c *counters) reset() {
	c.total.Store(0)
}

// Plain-only fields never report.
func (c *counters) bumpPlain() {
	c.plain++
}

// Package-level variables are covered like fields.
var ops int64

func bumpOps() {
	atomic.AddInt64(&ops, 1) // want `atomic.AddInt64 on a plain cell`
}

func drainOps() int64 {
	return atomic.SwapInt64(&ops, 0) // want `atomic.SwapInt64 on a plain cell`
}

// A cell declared in another package: the call is reported where it is
// made, whatever the declaring package does with the cell.
func bumpShared(g *lib.Gauge) {
	atomic.AddInt64(&g.N, 1) // want `atomic.AddInt64 on a plain cell`
}

// The typed atomic of another package is fine too.
func bumpTyped(g *lib.Gauge) {
	g.Hits.Add(1)
}
