package device

import (
	"testing"
	"time"

	"repro/internal/model"
)

func newDevice(maxBatch int) *Device {
	lm := &model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16}
	return New(lm, DefaultLatency(), maxBatch)
}

// must and must2 unwrap a call made with no fault armed; an error there is a
// bug, raised in whichever goroutine made the call.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

func TestForwardReturnsPerContext(t *testing.T) {
	d := newDevice(4)
	ctxs := [][]model.Token{{1}, {1, 2}, {1, 2, 3}}
	out := must(d.Forward(ctxs))
	if len(out) != 3 {
		t.Fatalf("got %d outputs, want 3", len(out))
	}
	for i, lp := range out {
		if len(lp) != 8 {
			t.Errorf("output %d has %d entries, want vocab size 8", i, len(lp))
		}
	}
}

func TestClockAdvances(t *testing.T) {
	d := newDevice(4)
	before := d.Clock()
	d.Forward([][]model.Token{{1, 2}})
	after := d.Clock()
	want := DefaultLatency().Cost(1, 2)
	if after-before != want {
		t.Errorf("clock advanced %v, want %v", after-before, want)
	}
}

func TestBatchSplitting(t *testing.T) {
	d := newDevice(2)
	ctxs := make([][]model.Token, 5)
	for i := range ctxs {
		ctxs[i] = []model.Token{1}
	}
	d.Forward(ctxs)
	st := d.Stats()
	if st.Batches != 3 { // 2 + 2 + 1
		t.Errorf("batches = %d, want 3", st.Batches)
	}
	if st.Sequences != 5 {
		t.Errorf("sequences = %d, want 5", st.Sequences)
	}
}

func TestBatchingAmortizesDispatch(t *testing.T) {
	// One batch of 8 must be cheaper than 8 batches of 1 — the reason the
	// executor schedules frontiers in batches.
	single := newDevice(64)
	for i := 0; i < 8; i++ {
		single.Forward([][]model.Token{{1}})
	}
	batched := newDevice(64)
	ctxs := make([][]model.Token, 8)
	for i := range ctxs {
		ctxs[i] = []model.Token{1}
	}
	batched.Forward(ctxs)
	if batched.Clock() >= single.Clock() {
		t.Errorf("batched %v should beat sequential %v", batched.Clock(), single.Clock())
	}
}

func TestUtilization(t *testing.T) {
	d := newDevice(4)
	d.Forward([][]model.Token{{1}})
	if got := d.Stats().Utilization; got != 1 {
		t.Errorf("all-busy utilization = %f, want 1", got)
	}
	d.Idle(d.Stats().Busy) // equal idle time -> 50%
	got := d.Stats().Utilization
	if got < 0.49 || got > 0.51 {
		t.Errorf("utilization = %f, want 0.5", got)
	}
}

func TestReset(t *testing.T) {
	d := newDevice(4)
	d.Forward([][]model.Token{{1}})
	d.Reset()
	st := d.Stats()
	if st.Clock != 0 || st.Batches != 0 || st.Tokens != 0 {
		t.Errorf("reset left stats %+v", st)
	}
}

func TestLatencyCost(t *testing.T) {
	lm := LatencyModel{Dispatch: 10, PerSequence: 3, PerToken: 1}
	if got := lm.Cost(2, 5); got != time.Duration(10+6+5) {
		t.Errorf("cost = %v, want 21ns", got)
	}
}

func TestTokenAccounting(t *testing.T) {
	d := newDevice(8)
	d.Forward([][]model.Token{{1, 2, 3}, {4}})
	if st := d.Stats(); st.Tokens != 4 {
		t.Errorf("tokens = %d, want 4", st.Tokens)
	}
}
