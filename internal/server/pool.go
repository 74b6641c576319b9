// Worker pool: the data-plane handlers (imu/scan/tick) do not run the
// tracker on the HTTP goroutine; they hand the work to a fixed set of
// workers, sharded by session ID. One session's requests always land on
// the same worker, so per-session work stays serialized (in arrival
// order) without contending for locks, while distinct sessions tick in
// parallel across the pool — bounded CPU fan-out no matter how many
// phones poll at once.
package server

import (
	"runtime"
	"sync"
)

// workerQueueDepth bounds each worker's backlog; a full queue applies
// backpressure by blocking the submitting handler (which in turn holds
// the HTTP connection, the natural place for the slowdown to surface).
const workerQueueDepth = 64

// poolTask is one unit of sharded work. done is nil for detached tasks
// (tryRunShard): nobody waits on those, so there is no channel to
// signal.
type poolTask struct {
	fn   func()
	done chan struct{}
}

// doneChans recycles the per-request completion channels so submitting
// work allocates nothing at steady state.
var doneChans = sync.Pool{
	New: func() interface{} { return make(chan struct{}, 1) },
}

// workerPool runs tasks on a fixed set of goroutines, sharded by key.
type workerPool struct {
	queues []chan poolTask
	wg     sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup
}

// newWorkerPool starts n workers (n < 1 selects GOMAXPROCS).
func newWorkerPool(n int) *workerPool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &workerPool{queues: make([]chan poolTask, n)}
	for i := range p.queues {
		q := make(chan poolTask, workerQueueDepth)
		p.queues[i] = q
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range q {
				t.fn()
				if t.done != nil {
					t.done <- struct{}{}
				}
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

// run executes fn on the worker owning key and waits for it to finish.
// It reports false — without running fn — when the pool is closed.
func (p *workerPool) run(key string, fn func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.inflight.Add(1)
	p.mu.Unlock()
	defer p.inflight.Done()

	done := doneChans.Get().(chan struct{})
	p.queues[shardOf(key, len(p.queues))] <- poolTask{fn: fn, done: done}
	<-done
	doneChans.Put(done)
	return true
}

// tryRunShard enqueues fn on worker w without waiting for it to run,
// reporting false — without enqueueing — when that worker's queue is
// full or the pool is closed. It queues the paced sweeps (wheel.go):
// an advance must never block behind a busy worker (that would stall
// every other worker's sweep), so an overloaded worker sheds its sweep
// and the next advance ticks the sessions. fn itself must not block on
// pool work for the same worker (it runs on it).
func (p *workerPool) tryRunShard(w int, fn func()) bool {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return false
	}
	p.inflight.Add(1)
	p.mu.Unlock()
	t := poolTask{fn: func() {
		defer p.inflight.Done()
		fn()
	}}
	select {
	case p.queues[w] <- t:
		return true
	default:
		p.inflight.Done()
		return false
	}
}

// queueDepth reports worker w's current backlog, for the per-worker
// queue gauges on /v1/metricsz.
func (p *workerPool) queueDepth(w int) int { return len(p.queues[w]) }

// close rejects new work, waits for submitted work to complete, and
// stops the workers.
func (p *workerPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.inflight.Wait()
	for _, q := range p.queues {
		close(q)
	}
	p.wg.Wait()
}
