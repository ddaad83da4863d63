package device

import "sync"

// Pool is a persistent host-side scoring pool: a fixed set of goroutines
// that execute chunk shards for any device attached via SetPool. A
// long-running server creates one Pool sized to the machine and shares it
// across every loaded model, so concurrent queries contend for a bounded
// set of scoring workers instead of each spawning its own goroutines per
// batch (DESIGN.md decision 8).
type Pool struct {
	tasks chan poolTask
	size  int
	once  sync.Once
}

type poolTask struct {
	fn func()
	wg *sync.WaitGroup
}

// NewPool starts a pool of n workers (n < 1 is treated as 1).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{tasks: make(chan poolTask), size: n}
	for i := 0; i < n; i++ {
		go func() {
			for t := range p.tasks {
				t.fn()
				t.wg.Done()
			}
		}()
	}
	return p
}

// Size reports the worker count.
func (p *Pool) Size() int { return p.size }

// Run executes every fn on the pool and waits for all of them. Concurrent Run
// calls interleave their shards over the same workers — that is the point:
// total scoring concurrency stays bounded by Size regardless of how many
// queries are in flight. Tasks must not call Run on the same pool (the nested
// wait could starve), and must not panic: a panic unwinds a shared worker.
// segment.exec, the device's only task, recovers its rows' panics.
func (p *Pool) Run(fns []func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		p.tasks <- poolTask{fn: fn, wg: &wg}
	}
	wg.Wait()
}

// Close stops the workers once in-flight tasks finish. Run must not be
// called after Close; detach the pool from devices first (SetPool(nil)).
// Safe to call multiple times.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.tasks) })
}
