package device

import (
	"testing"
	"time"

	"repro/internal/model"
)

// TestFusedForwardAllocs bounds what one fused Forward on a pooled device
// allocates. Per call: the result slice, the request and its done channel,
// and the model's own rows (one ScoreBatch slice per shard and one row per
// context). The scheduler's timer, the fused batch with its segments and
// shards, and the pool's wait are reused, and the queue is linked through its
// requests. Before they were, the same calls took 13 allocations for 1 row
// and 25 for 8.
func TestFusedForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	p := NewPool(2)
	defer p.Close()
	d := newDevice(64)
	d.SetPool(p)
	// A window long enough that every call waits on the scheduler's timer.
	b := StartBatcher(d, 100*time.Microsecond)
	defer b.Close()
	for _, tc := range []struct{ rows, max int }{{1, 6}, {8, 15}} {
		ctxs := make([][]model.Token, tc.rows)
		for i := range ctxs {
			ctxs[i] = []model.Token{model.Token(i % 8)}
		}
		allocs := testing.AllocsPerRun(50, func() { must(d.Forward(ctxs)) })
		if allocs > float64(tc.max) {
			t.Errorf("fused Forward of %d rows: %.1f allocations, want <= %d", tc.rows, allocs, tc.max)
		}
	}
	if st := b.Stats(); st.FusedBatches == 0 {
		t.Fatal("no call was fused")
	}
}
