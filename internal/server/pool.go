// Worker pool: the data-plane handlers (imu/scan/tick) do not run the
// tracker on the HTTP goroutine; they hand the work to a fixed set of
// workers, sharded by session ID. One session's requests always land on
// the same worker, so per-session work stays serialized (in arrival
// order) without contending for locks, while distinct sessions tick in
// parallel across the pool — bounded CPU fan-out no matter how many
// phones poll at once. submit is the only way in and never blocks: a
// full queue sheds the task (errShed), so an admitted task waits behind
// at most workerQueueDepth others.
package server

import (
	"errors"
	"runtime"
	"sync"
)

// workerQueueDepth bounds each worker's backlog, and with it the wait
// of every admitted task: a submit that finds the queue full is shed.
const workerQueueDepth = 64

// errShed refuses a task because its worker's queue is full;
// errPoolClosed, because the pool is closed.
var (
	errShed       = errors.New("server busy: worker queue full (shed), retry later")
	errPoolClosed = errors.New("worker pool closed")
)

// workerPool runs tasks on a fixed set of goroutines, sharded by key.
type workerPool struct {
	queues []chan func()
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// newWorkerPool starts n workers (n < 1 selects GOMAXPROCS).
func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{queues: make([]chan func(), n)}
	for i := range p.queues {
		q := make(chan func(), workerQueueDepth)
		p.queues[i] = q
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for fn := range q {
				fn()
			}
		}()
	}
	return p
}

// shardOf maps a key to a worker index (FNV-1a, inlined so hashing a
// session ID allocates nothing).
func shardOf(key string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return int(h % uint32(n))
}

// submit queues fn on worker w without waiting for it to run. It
// returns errShed when that worker's queue is full and errPoolClosed
// after close; in both cases fn never runs. fn must not wait on other
// pool work for its own worker (it runs on it).
func (p *workerPool) submit(w int, fn func()) error {
	p.mu.Lock() // held across the send: close never closes a queue under it
	defer p.mu.Unlock()
	if p.closed {
		return errPoolClosed
	}
	select {
	case p.queues[w] <- fn:
		return nil
	default:
		return errShed
	}
}

// queueDepth reports worker w's current backlog, for the per-worker
// queue gauges on /v1/metricsz.
func (p *workerPool) queueDepth(w int) int { return len(p.queues[w]) }

// close rejects new work, lets the workers run every task already
// queued, and waits for them to stop.
func (p *workerPool) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		for _, q := range p.queues {
			close(q)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
}
