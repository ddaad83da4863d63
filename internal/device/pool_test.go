package device

import (
	"sync"
	"testing"

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

func TestPoolRunsShards(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	d := newDevice(64)
	d.SetPool(p)
	if d.Workers() != 4 {
		t.Fatalf("Workers() = %d, want pool size 4", d.Workers())
	}
	ctxs := make([][]model.Token, 32)
	for i := range ctxs {
		ctxs[i] = []model.Token{model.Token(i % 8)}
	}
	rows := must(d.Forward(ctxs))
	if len(rows) != 32 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if len(r) != 8 {
			t.Fatalf("row %d has width %d", i, len(r))
		}
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
