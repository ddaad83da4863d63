package device

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

func TestWithModelSharesAccounting(t *testing.T) {
	base := newDevice(4)
	view := base.WithModel(&model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16})
	view.Forward([][]model.Token{{1}, {2}})
	base.Forward([][]model.Token{{3}})
	st := base.Stats()
	if st.Sequences != 3 {
		t.Errorf("shared sequences = %d, want 3 (both views billed)", st.Sequences)
	}
	if view.Stats() != st {
		t.Errorf("view stats %+v differ from base %+v", view.Stats(), st)
	}
	if view.Clock() != base.Clock() {
		t.Error("views must share one virtual clock")
	}
	if view.MaxBatch() != base.MaxBatch() {
		t.Error("views must share the batch limit")
	}
}

func TestWithModelScoresThroughOwnModel(t *testing.T) {
	base := newDevice(4)
	// The view's model has a different vocab size; its rows prove Forward
	// used the view's model, not the base's.
	view := base.WithModel(&model.Uniform{Vocab: 3, EOSTok: 2, SeqLen: 16})
	rows := must(view.Forward([][]model.Token{{1}}))
	if len(rows[0]) != 3 {
		t.Errorf("view scored through the wrong model: row width %d, want 3", len(rows[0]))
	}
	if len(must(base.Forward([][]model.Token{{1}}))[0]) != 8 {
		t.Error("base view must keep its own model")
	}
}

// TestPoolRunsShards: every entry point sharded across a pool of 1, 2 or 4
// workers returns what a pool-less device returns, bit for bit, and is
// charged the same — shards split one dispatch's rows, never its price.
func TestPoolRunsShards(t *testing.T) {
	const maxBatch = 16
	_, lm := newIncrDevice(maxBatch)
	in := routeInputs(lm, 10) // one chunk, cut into up to 4 shards
	for _, op := range routeOps {
		ref := New(lm, DefaultLatency(), maxBatch)
		want := must(op.run(ref, in))
		for _, width := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/pool%d", op.name, width), func(t *testing.T) {
				pool := NewPool(width)
				defer pool.Close()
				d := New(lm, DefaultLatency(), maxBatch)
				d.SetPool(pool)
				if d.Workers() != width {
					t.Fatalf("Workers() = %d, want pool size %d", d.Workers(), width)
				}
				if got := must(op.run(d, in)); !reflect.DeepEqual(got, want) {
					t.Error("rows or decode states differ from the pool-less device's")
				}
				if st, rst := d.Stats(), ref.Stats(); st != rst {
					t.Errorf("device charged %+v, pool-less %+v", st, rst)
				}
			})
		}
	}
}

// overlapLM scores like rowLM and records the most ScoreBatch calls it has
// seen running at once.
type overlapLM struct {
	*rowLM
	active, peak atomic.Int32
}

func (m *overlapLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	n := m.active.Add(1)
	defer m.active.Add(-1)
	for p := m.peak.Load(); n > p && !m.peak.CompareAndSwap(p, n); p = m.peak.Load() {
	}
	time.Sleep(time.Millisecond)
	return model.ScoreSerial(m, ctxs)
}

// TestPoollessFusedBatchRunsSerially: with no pool, a fused batch holding two
// requests runs every segment — one per request — in order on the
// goroutine that executes the batch, each request getting its own rows, in
// one dispatch.
func TestPoollessFusedBatchRunsSerially(t *testing.T) {
	lm := &overlapLM{rowLM: newRowLM()}
	d := New(lm, DefaultLatency(), 8)
	b := newBareBatcher(d)
	ctxs := [][]model.Token{{1, 2}, {3}}
	var reqs []*request
	label := map[*request]string{}
	for _, name := range []string{"a", "b"} {
		r := &request{
			kind: reqForward, lm: d.lm, enq: time.Now(),
			ctxs: ctxs, rows: make([][]float64, len(ctxs)), remaining: len(ctxs), done: make(chan struct{}),
		}
		label[r] = name
		if !b.enqueue(r) {
			t.Fatal("enqueue on a fresh batcher failed")
		}
		reqs = append(reqs, r)
	}
	fb := new(batch)
	b.mu.Lock()
	b.selectLocked(fb, time.Now())
	b.mu.Unlock()
	if got, want := segRows(fb, label), []string{"a[0:2]", "b[0:2]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fused batch holds %v, want one segment per request %v", got, want)
	}
	b.execute(fb)

	want := model.ScoreSerial(lm.rowLM, ctxs)
	for i, r := range reqs {
		select {
		case <-r.done:
		default:
			t.Fatalf("request %d not completed by its batch", i)
		}
		if r.err != nil || !reflect.DeepEqual(r.rows, want) {
			t.Errorf("request %d: rows %v, err %v; want %v", i, r.rows, r.err, want)
		}
	}
	if p := lm.peak.Load(); p != 1 {
		t.Errorf("%d segments scored at once, want 1: a pool-less batch runs on one goroutine", p)
	}
	if st := d.Stats(); st.Batches != 1 || st.Sequences != 4 {
		t.Errorf("charged %+v, want one dispatch of 4 rows", st)
	}
}

func TestPoolSharedAcrossDevicesConcurrently(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	devs := []*Device{newDevice(8), newDevice(8)}
	for _, d := range devs {
		d.SetPool(p)
	}
	ctxs := make([][]model.Token, 16)
	for i := range ctxs {
		ctxs[i] = []model.Token{model.Token(i % 8), model.Token((i + 1) % 8)}
	}
	var wg sync.WaitGroup
	for _, d := range devs {
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(d *Device) {
				defer wg.Done()
				d.Forward(ctxs)
			}(d)
		}
	}
	wg.Wait()
	for i, d := range devs {
		if st := d.Stats(); st.Sequences != 4*16 {
			t.Errorf("device %d sequences = %d, want 64", i, st.Sequences)
		}
	}
}

func TestPoolCloseIdempotent(t *testing.T) {
	p := NewPool(2)
	p.Close()
	p.Close() // must not panic
}
