package device

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
)

// TestBatcherBreakerDegradeThenRecover drives the fusion circuit breaker
// through its full cycle: consecutive injected dispatch failures trip it
// open, an open breaker sheds new work to the caller's inline route,
// and after the cooldown a successful half-open probe closes it again.
func TestBatcherBreakerDegradeThenRecover(t *testing.T) {
	fault.Enable(fault.New(3).Set(fault.BatcherExecute, fault.Spec{FailN: 3}))
	t.Cleanup(fault.Disable)

	d := newDevice(8)
	b := newBareBatcher(d, BatcherConfig{
		BreakerThreshold: 3,
		BreakerCooldown:  50 * time.Millisecond,
	})
	dispatchOnce := func() *request {
		r := enqueueRows(b, "q", 2, time.Time{})
		r.lm = d.lm // dispatch() would set this; the bare harness must too
		b.mu.Lock()
		fb := b.selectLocked(time.Now(), b.core.maxBatch)
		b.mu.Unlock()
		b.execute(fb)
		<-r.done
		return r
	}

	// Three consecutive failed dispatches: each request gets the fault as its
	// error (returned to its submitting goroutine by dispatch), and the third
	// trips the breaker.
	for i := 1; i <= 3; i++ {
		r := dispatchOnce()
		if _, ok := r.err.(*fault.Fault); !ok || r.panicked {
			t.Fatalf("dispatch %d: error %v (panicked %v), want the injected *fault.Fault", i, r.err, r.panicked)
		}
	}
	st := b.Stats()
	if st.BreakerState != "open" || st.BreakerTrips != 1 {
		t.Fatalf("after 3 failed dispatches: state=%s trips=%d, want open/1", st.BreakerState, st.BreakerTrips)
	}

	// Open: enqueue refuses, so dispatch would run the request inline.
	shed := &request{
		kind:      reqForward,
		key:       "q",
		ctxs:      [][]model.Token{{1}},
		rows:      make([][]float64, 1),
		remaining: 1,
		done:      make(chan struct{}),
	}
	if b.enqueue(shed) {
		t.Fatal("open breaker admitted a request; want shed to the inline route")
	}
	if got := b.Stats().BreakerShed; got != 1 {
		t.Fatalf("shed count = %d, want 1", got)
	}

	// Past the cooldown the next request is the half-open probe. The
	// injector's FailN budget is spent, so the dispatch succeeds and the
	// breaker closes.
	time.Sleep(60 * time.Millisecond)
	r := dispatchOnce()
	if r.err != nil {
		t.Fatalf("half-open probe failed: %v", r.err)
	}
	st = b.Stats()
	if st.BreakerState != "closed" || st.BreakerTrips != 1 || st.BreakerShed != 1 {
		t.Fatalf("after probe: state=%s trips=%d shed=%d, want closed/1/1", st.BreakerState, st.BreakerTrips, st.BreakerShed)
	}

	// A recovered batcher serves normally again.
	if r := dispatchOnce(); r.err != nil {
		t.Fatalf("post-recovery dispatch failed: %v", r.err)
	}
}

// TestBatcherExecuteLatencyFault: a latency-only spec at batcher.execute
// stalls the virtual clock by exactly the spec on every fused dispatch and
// fails nothing — the same handling Device.inject gives the device points.
func TestBatcherExecuteLatencyFault(t *testing.T) {
	in, err := fault.ParseScenario("batcher.execute=lat2ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(in)
	t.Cleanup(fault.Disable)

	d := newDevice(8)
	b := StartBatcher(d, BatcherConfig{Window: 100 * time.Microsecond})
	defer b.Close()
	ctxs := [][]model.Token{{1}, {1, 2}}
	want := d.lm.ScoreBatch(ctxs)
	for call := 1; call <= 2; call++ {
		if got := must(d.Forward(ctxs)); !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: rows differ under a latency-only fault", call)
		}
		stall := time.Duration(call) * 2 * time.Millisecond
		busy := time.Duration(call) * DefaultLatency().Cost(2, 3)
		if st := d.Stats(); st.Clock != busy+stall || st.Busy != busy {
			t.Fatalf("call %d: clock %v busy %v, want %v busy plus %v stalled", call, st.Clock, st.Busy, busy, stall)
		}
	}
	if c, f := in.Calls(fault.BatcherExecute), in.Injected(fault.BatcherExecute); c != 2 || f != 0 {
		t.Errorf("point evaluated %d times with %d failures, want 2 and 0", c, f)
	}
	if st := b.Stats(); st.BreakerState != "closed" || st.BreakerTrips != 0 {
		t.Errorf("latency-only faults moved the breaker: %+v", st)
	}
}
