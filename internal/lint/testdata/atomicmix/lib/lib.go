// Fixture dependency package: Gauge.N is a plain cell, accessed
// plainly here and through the function API in the importing package
// (app), where the call is reported. Hits is the typed shape.
package lib

import "sync/atomic"

type Gauge struct {
	N    int64
	Hits atomic.Int64
}

func (g *Gauge) Bump() {
	g.N++
}
