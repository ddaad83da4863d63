package device

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/model"
)

// Nothing outlives its dispatch (DESIGN.md decision 12): once a scoring call
// returns, neither route holds anything it computed. The batcher's queue
// links a request only while the request has rows not yet packed into a
// batch.

// dispatchProbes runs op through d and returns, instead of the results, one
// liveness probe per returned row and per decode state whose concrete type is
// a pointer. The results themselves die with this frame.
//
//go:noinline
func dispatchProbes(d *Device, op func(*Device, routeIn) (routeOut, error), in routeIn) []func() bool {
	out := must(op(d, in))
	var probes []func() bool
	row := func(r []float64) {
		w := weak.Make(&r[0])
		probes = append(probes, func() bool { return w.Value() != nil })
	}
	for _, r := range out.rows {
		row(r)
	}
	for _, seq := range out.all {
		for _, r := range seq {
			row(r)
		}
	}
	for _, st := range out.states {
		if v := reflect.ValueOf(st); v.Kind() == reflect.Pointer {
			w := weak.Make((*byte)(v.UnsafePointer()))
			probes = append(probes, func() bool { return w.Value() != nil })
		}
	}
	return probes
}

// TestDispatchReleasesResults: rows and decode states returned by Forward,
// Prefill, ExtendBatch and ScoreAll are collectable once the caller drops
// them, on the inline route and through the fusion queue, over a model that
// memoizes nothing.
func TestDispatchReleasesResults(t *testing.T) {
	for _, op := range routeOps {
		for _, fused := range []bool{false, true} {
			name := op.name + "/inline"
			if fused {
				name = op.name + "/fused"
			}
			t.Run(name, func(t *testing.T) {
				d, lm := newIncrDevice(4)
				var b *Batcher
				if fused {
					b = StartBatcher(d, 100*time.Microsecond)
					t.Cleanup(b.Close)
				}
				probes := dispatchProbes(d, op.run, routeInputs(lm, 10))
				if len(probes) == 0 {
					t.Fatal("no rows to probe")
				}
				if b != nil {
					// One more dispatch, queued after the probed one
					// returned: when it returns, the scheduler has finished
					// with every batch that carried the probed rows.
					must(d.Forward([][]model.Token{{1}}))
				}
				runtime.GC()
				runtime.GC()
				live := 0
				for _, p := range probes {
					if p() {
						live++
					}
				}
				if live > 0 {
					t.Errorf("%d of %d returned rows/states still reachable after the caller dropped them", live, len(probes))
				}
				runtime.KeepAlive(b)
			})
		}
	}
}

// TestDrainedQueueHoldsNoRequests: after 200 requests from 8 concurrent
// callers have returned, the queue links no request and holds no rows.
func TestDrainedQueueHoldsNoRequests(t *testing.T) {
	d := newDevice(8)
	b := StartBatcher(d, 50*time.Microsecond)
	defer b.Close()
	const requests, workers = 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < requests; i += workers {
				must(d.Forward([][]model.Token{{model.Token(i % 7)}, {1, 2}}))
			}
		}()
	}
	wg.Wait()

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head != nil || b.tail != nil || b.rows != 0 {
		t.Errorf("queue links a request (head %p, tail %p) or holds %d rows after every request returned", b.head, b.tail, b.rows)
	}
	if b.requests != requests {
		t.Errorf("%d requests admitted, want %d", b.requests, requests)
	}
}
