package device

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
)

// TestBatcherExecuteFaultFailsOnlyItsBatch: an injected batcher.execute
// failure fails exactly the requests of the fused batch it hits — each gets
// the *fault.Fault, and a request queued while the batch runs gets nothing —
// and charges the device nothing. Consecutive failures change nothing about
// admission: once the fault is spent, the next dispatch is fused and
// succeeds.
func TestBatcherExecuteFaultFailsOnlyItsBatch(t *testing.T) {
	fault.Enable(fault.New(3).Set(fault.BatcherExecute, fault.Spec{FailN: 3}))
	t.Cleanup(fault.Disable)

	d := newDevice(8)
	b := newBareBatcher(d)
	label := map[*request]string{}
	submit := func(name string) *request {
		r := enqueueRows(b, 2)
		r.lm = d.lm // dispatch() would set this; the bare harness must too
		label[r] = name
		return r
	}
	ended := func(r *request) bool {
		select {
		case <-r.done:
			return true
		default:
			return false
		}
	}

	// Dispatch i packs two queries' requests: the one queued during
	// dispatch i-1 and a partner. The next dispatch's request is queued
	// after selection, so it waits out dispatch i in the queue.
	waiting := submit("q0")
	for i := 1; i <= 4; i++ {
		batchReqs := []*request{waiting, submit(fmt.Sprintf("p%d", i))}
		b.mu.Lock()
		fb := new(batch)
		b.selectLocked(fb, time.Now())
		b.mu.Unlock()
		want := []string{fmt.Sprintf("q%d[0:2]", i-1), fmt.Sprintf("p%d[0:2]", i)}
		if got := segRows(fb, label); !reflect.DeepEqual(got, want) {
			t.Fatalf("dispatch %d packed %v, want %v", i, got, want)
		}
		waiting = submit(fmt.Sprintf("q%d", i))
		b.execute(fb)

		for _, r := range batchReqs {
			if !ended(r) {
				t.Fatalf("dispatch %d: request %s did not end", i, label[r])
			}
			_, isFault := r.err.(*fault.Fault)
			if i <= 3 && !isFault {
				t.Errorf("dispatch %d: request %s got %v, want the injected *fault.Fault", i, label[r], r.err)
			}
			if i == 4 {
				if r.err != nil {
					t.Errorf("dispatch 4: request %s failed after the fault was spent: %v", label[r], r.err)
				} else if !reflect.DeepEqual(r.rows, d.lm.ScoreBatch(r.ctxs)) {
					t.Errorf("dispatch 4: request %s rows differ from the model's own", label[r])
				}
			}
		}
		if ended(waiting) || waiting.err != nil {
			t.Errorf("dispatch %d reached request %s, which was not in its batch (err %v)", i, label[waiting], waiting.err)
		}
	}

	if st := b.Stats(); st.FusedBatches != 4 || st.Requests != int64(len(label)) {
		t.Errorf("batcher stats %+v, want 4 fused batches and all %d requests admitted", st, len(label))
	}
	if st := d.Stats(); st.Batches != 1 || st.Sequences != 4 {
		t.Errorf("device charged %d batches / %d rows, want only the fourth dispatch's 1 / 4", st.Batches, st.Sequences)
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
	b := StartBatcher(d, 100*time.Microsecond)
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
	if st := b.Stats(); st.FusedBatches != 2 {
		t.Errorf("latency-only faults: %d fused batches, want 2: %+v", st.FusedBatches, st)
	}
}
