package device

import "sync"

// Pool is a persistent host-side scoring pool: a fixed set of goroutines
// that execute chunk shards for any device attached via SetPool. A
// long-running server creates one Pool sized to the machine and shares it
// across every loaded model, so concurrent queries contend for a bounded
// set of scoring workers (DESIGN.md decision 8). A Pool's workers are the
// only goroutines besides a dispatch's own that execute device segments.
type Pool struct {
	tasks chan poolTask
	size  int
	once  sync.Once
}

type poolTask struct {
	seg segment
	wg  *sync.WaitGroup
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
				t.seg.exec()
				t.wg.Done()
			}
		}()
	}
	return p
}

// Size reports the worker count. A nil pool has one worker: the dispatching
// goroutine.
func (p *Pool) Size() int {
	if p == nil {
		return 1
	}
	return p.size
}

// run executes every segment on the pool and waits for all of them on wg,
// which the caller keeps (a batch's own). Concurrent run calls interleave
// their shards over the same workers — that is the point: total scoring
// concurrency stays bounded by Size regardless of how many queries are in
// flight. A segment never unwinds a shared worker: exec recovers its rows'
// panics.
func (p *Pool) run(segs []segment, wg *sync.WaitGroup) {
	wg.Add(len(segs))
	for _, sg := range segs {
		p.tasks <- poolTask{seg: sg, wg: wg}
	}
	wg.Wait()
}

// Close stops the workers once in-flight tasks finish. run must not be
// called after Close; detach the pool from devices first (SetPool(nil)).
// Safe to call multiple times.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.tasks) })
}
