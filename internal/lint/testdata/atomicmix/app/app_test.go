// Test files are exempt: a test may probe a cell through the function
// API single-threaded.
package app

import "sync/atomic"

func hitsForTest(c *counters) int64 {
	return atomic.LoadInt64(&c.hits)
}
