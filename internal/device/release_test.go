package device

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"repro/internal/model"
)

// Nothing outlives its dispatch (DESIGN.md decision 12): once a scoring call
// returns, neither route holds anything it computed. The batcher keeps a
// request only while the request has rows not yet packed into a batch, and an
// idle fair-share account is its key and served count — no slice whose
// backing array still points at the last request it served.

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
				probes := dispatchProbes(d.WithQoS(QoS{Query: "q"}), op.run, routeInputs(lm, 10))
				if len(probes) == 0 {
					t.Fatal("no rows to probe")
				}
				if b != nil {
					// One more dispatch through another account: when it
					// returns, the scheduler has finished with every batch
					// that carried q's rows.
					must(d.WithQoS(QoS{Query: "barrier"}).Forward([][]model.Token{{1}}))
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

// TestIdleAccountsHoldNoRequests: after 200 requests from 200 distinct
// QoS.Query accounts, every account without pending work links no request.
func TestIdleAccountsHoldNoRequests(t *testing.T) {
	d := newDevice(8)
	b := StartBatcher(d, 50*time.Microsecond)
	defer b.Close()
	const accounts, workers = 200, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < accounts; i += workers {
				v := d.WithQoS(QoS{Query: fmt.Sprintf("q%d", i)})
				must(v.Forward([][]model.Token{{model.Token(i % 7)}, {1, 2}}))
			}
		}()
	}
	wg.Wait()

	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.queues) != accounts {
		t.Fatalf("%d accounts, want %d", len(b.queues), accounts)
	}
	if len(b.active) != 0 || b.rows != 0 {
		t.Fatalf("%d active queues, %d pending rows after every request returned", len(b.active), b.rows)
	}
	for k, q := range b.queues {
		if q.head != nil || q.tail != nil {
			t.Errorf("idle account %s links a request (head %p, tail %p)", k.query, q.head, q.tail)
		}
	}
}
