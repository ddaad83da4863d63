package device

import (
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/trace"
)

// Resident-first dispatch (DESIGN.md decisions 4 and 6): Forward and ScoreAll
// ask the view's logit cache for the rows it already holds and dispatch only
// the rest. These tests pin what the device charges and returns on every
// split of a call between the cache and the accelerator.

// rowLM gives every context its own row (so a merge in the wrong order
// shows) and counts the rows it computes. gate, when set, parks ScoreBatch
// until it is closed, after announcing itself on entered.
type rowLM struct {
	model.Uniform
	mu      sync.Mutex
	rows    int
	entered chan struct{}
	gate    chan struct{}
}

func newRowLM() *rowLM {
	return &rowLM{Uniform: model.Uniform{Vocab: 6, EOSTok: 5, SeqLen: 16}}
}

func (m *rowLM) NextLogProbs(ctx []model.Token) []float64 {
	sum := 0
	for _, t := range ctx {
		sum = sum*7 + int(t) + 1
	}
	out := make([]float64, m.Vocab)
	for i := range out {
		out[i] = -float64(sum + i + 1)
	}
	return out
}

func (m *rowLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	if m.gate != nil {
		m.entered <- struct{}{}
		<-m.gate
	}
	m.mu.Lock()
	m.rows += len(ctxs)
	m.mu.Unlock()
	return model.ScoreSerial(m, ctxs)
}

func (m *rowLM) computed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rows
}

// residentRig is a device over a logit cache over a rowLM, fused or direct,
// plus an uncached reference device for the rows the dispatched path returns.
type residentRig struct {
	lm  *rowLM
	c   *cache.LM
	d   *Device
	b   *Batcher
	ref *Device
}

func newResidentRig(t *testing.T, fused bool) *residentRig {
	t.Helper()
	r := &residentRig{lm: newRowLM()}
	r.c = cache.New(r.lm, 64)
	r.d = New(r.c, DefaultLatency(), 4)
	r.ref = New(newRowLM(), DefaultLatency(), 4)
	if fused {
		r.b = StartBatcher(r.d, 100*time.Microsecond)
		t.Cleanup(r.b.Close)
	}
	return r
}

// charged is everything a dispatch moves: the device counters and, under
// fusion, the scheduler's request count.
type charged struct {
	st       Stats
	requests int64
}

func (r *residentRig) charged() charged {
	c := charged{st: r.d.Stats()}
	if r.b != nil {
		c.requests = r.b.Stats().Requests
	}
	return c
}

func eachRoute(t *testing.T, fn func(t *testing.T, r *residentRig)) {
	for _, fused := range []bool{false, true} {
		name := "direct"
		if fused {
			name = "fused"
		}
		t.Run(name, func(t *testing.T) { fn(t, newResidentRig(t, fused)) })
	}
}

var (
	residentCtxs = [][]model.Token{{1}, {1, 2}, {2, 3, 4}, {4}, {3, 1}}
	residentSeqs = [][]model.Token{{1, 2, 3}, {2, 4}, {3, 3, 1, 2}}
)

// TestResidentCallChargesNothing: a call whose every row is in the cache
// leaves the device counters, the clock and the batcher untouched, computes
// nothing, and returns the rows the dispatched path returned.
func TestResidentCallChargesNothing(t *testing.T) {
	eachRoute(t, func(t *testing.T, r *residentRig) {
		coldF := must(r.d.Forward(residentCtxs))
		coldA := must(r.d.ScoreAll(residentSeqs))
		before, computed := r.charged(), r.lm.computed()
		if before.st.Sequences != int64(len(residentCtxs)+len(residentSeqs)) {
			t.Fatalf("cold calls charged %d sequences, want %d", before.st.Sequences, len(residentCtxs)+len(residentSeqs))
		}

		warmF := must(r.d.Forward(residentCtxs))
		warmA := must(r.d.ScoreAll(residentSeqs))
		if after := r.charged(); after != before {
			t.Errorf("resident calls moved the device:\nbefore %+v\nafter  %+v", before, after)
		}
		if n := r.lm.computed(); n != computed {
			t.Errorf("resident calls computed %d rows", n-computed)
		}
		if !reflect.DeepEqual(warmF, coldF) || !reflect.DeepEqual(warmF, must(r.ref.Forward(residentCtxs))) {
			t.Errorf("resident Forward rows differ from the dispatched path's")
		}
		if !reflect.DeepEqual(warmA, coldA) || !reflect.DeepEqual(warmA, must(r.ref.ScoreAll(residentSeqs))) {
			t.Errorf("resident ScoreAll rows differ from the dispatched path's")
		}
		// The rows are the cache's own, read-only: a second resident call
		// hands out the same slices.
		if again := must(r.d.Forward(residentCtxs[:1])); &again[0][0] != &warmF[0][0] {
			t.Errorf("resident rows are copies of the cache's storage")
		}
	})
}

// TestResidentForwardAllocatesNoRows: a fully resident Forward of n rows
// allocates the result's slice headers, never a V-sized row.
func TestResidentForwardAllocatesNoRows(t *testing.T) {
	const vocab, n, runs = 4096, 8, 20
	d := New(cache.New(&model.Uniform{Vocab: vocab, EOSTok: vocab - 1, SeqLen: 16}, 64), DefaultLatency(), 4)
	ctxs := make([][]model.Token, n)
	for i := range ctxs {
		ctxs[i] = []model.Token{model.Token(i)}
	}
	d.Forward(ctxs)
	allocs := testing.AllocsPerRun(runs, func() { d.Forward(ctxs) })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		d.Forward(ctxs)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; allocs > 2 || perCall >= vocab*8 {
		t.Errorf("resident Forward of %d rows: %.0f allocations, %d bytes per call; want <= 2 and less than one %d-byte row",
			n, allocs, perCall, vocab*8)
	}
}

// TestPartialHitChargesMissingRows: a call split between the cache and the
// device charges exactly the missing rows, in one dispatch, and returns the
// rows in caller order.
func TestPartialHitChargesMissingRows(t *testing.T) {
	eachRoute(t, func(t *testing.T, r *residentRig) {
		lat := DefaultLatency()
		r.d.Forward([][]model.Token{residentCtxs[0], residentCtxs[2], residentCtxs[3]})
		before := r.charged()
		got := must(r.d.Forward(residentCtxs)) // rows 1 and 4 are missing
		after := r.charged()
		missTokens := len(residentCtxs[1]) + len(residentCtxs[4])
		if d := after.st.Sequences - before.st.Sequences; d != 2 {
			t.Errorf("Forward charged %d sequences, want the 2 missing", d)
		}
		if d := after.st.Batches - before.st.Batches; d != 1 {
			t.Errorf("Forward made %d dispatches, want 1", d)
		}
		if d := after.st.Tokens - before.st.Tokens; d != int64(missTokens) {
			t.Errorf("Forward charged %d tokens, want %d", d, missTokens)
		}
		if d, want := after.st.Busy-before.st.Busy, lat.Cost(2, missTokens); d != want {
			t.Errorf("Forward charged %v, want %v", d, want)
		}
		if after.st.Clock-before.st.Clock != after.st.Busy-before.st.Busy {
			t.Errorf("clock and busy time moved apart")
		}
		if !reflect.DeepEqual(got, must(r.ref.Forward(residentCtxs))) {
			t.Errorf("partial-hit rows out of caller order or wrong")
		}

		// ScoreAll: a sequence is dispatched whole or not at all. The middle
		// sequence is warm; the outer two share its leading (empty) context
		// but have positions the cache has never seen.
		seqs := [][]model.Token{{5, 1, 2}, {2, 4}, {5, 5, 1, 3}}
		r.d.ScoreAll(seqs[1:2])
		before = r.charged()
		gotAll := must(r.d.ScoreAll(seqs))
		after = r.charged()
		missTokens = len(seqs[0]) + len(seqs[2])
		if d := after.st.Sequences - before.st.Sequences; d != 2 {
			t.Errorf("ScoreAll charged %d sequences, want the 2 with a missing position", d)
		}
		if d, want := after.st.Busy-before.st.Busy, lat.Cost(2, missTokens); d != want {
			t.Errorf("ScoreAll charged %v, want %v", d, want)
		}
		if !reflect.DeepEqual(gotAll, must(r.ref.ScoreAll(seqs))) {
			t.Errorf("partial-hit ScoreAll rows out of caller order or wrong")
		}
	})
}

// TestInFlightRowIsDispatchedNotAwaited: a row another goroutine is computing
// right now is not resident. The probe reports it missing without blocking;
// the call dispatches it, and the cache's single flight — not the probe —
// joins it to the computation under way.
func TestInFlightRowIsDispatchedNotAwaited(t *testing.T) {
	r := newResidentRig(t, false)
	r.lm.entered = make(chan struct{}, 1)
	r.lm.gate = make(chan struct{})
	ctx := [][]model.Token{{2, 2}}

	var wg sync.WaitGroup
	rows := make([][][]float64, 2)
	wg.Add(1)
	go func() { defer wg.Done(); rows[0] = must(r.d.Forward(ctx)) }()
	<-r.lm.entered // the owner is inside the model: the row is in flight

	probed := make(chan int, 1)
	go func() { probed <- r.c.ResidentRows(ctx, make([][]float64, 1)) }()
	select {
	case n := <-probed:
		if n != 0 {
			t.Fatalf("probe answered %d rows of an in-flight computation", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe waited on the in-flight computation")
	}

	wg.Add(1)
	go func() { defer wg.Done(); rows[1] = must(r.d.Forward(ctx)) }()
	for deadline := time.Now().Add(5 * time.Second); r.c.FlightStats() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second call never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(r.lm.gate)
	wg.Wait()

	if st := r.d.Stats(); st.Sequences != 2 {
		t.Errorf("device charged %d sequences, want 2: both calls dispatched", st.Sequences)
	}
	if n := r.lm.computed(); n != 1 {
		t.Errorf("model computed %d rows, want 1 (single flight)", n)
	}
	hits, misses := r.c.Stats()
	if hits != 0 || misses != 1 || r.c.FlightStats() != 1 {
		t.Errorf("cache saw %d hits / %d misses / %d flights, want 0/1/1", hits, misses, r.c.FlightStats())
	}
	if !reflect.DeepEqual(rows[0], rows[1]) {
		t.Errorf("the two calls returned different rows")
	}
}

// TestFaultPointAheadOfProbe: the dispatch fault point is evaluated once per
// call before the cache is asked, resident or not — a seeded fault schedule
// sees the same call sequence it saw before the probe existed.
func TestFaultPointAheadOfProbe(t *testing.T) {
	r := newResidentRig(t, false)
	r.d.Forward(residentCtxs)
	r.d.ScoreAll(residentSeqs)
	hits0, _ := r.c.Stats()

	in := fault.New(7).
		Set(fault.DeviceForward, fault.Spec{FailN: 1}).
		Set(fault.DeviceScoreAll, fault.Spec{FailN: 1})
	fault.Enable(in)
	t.Cleanup(fault.Disable)

	if rows, err := r.d.Forward(residentCtxs); rows != nil || !errors.As(err, new(*fault.Fault)) {
		t.Errorf("injected Forward fault did not reach a fully resident call: %v", err)
	}
	if rows, err := r.d.ScoreAll(residentSeqs); rows != nil || !errors.As(err, new(*fault.Fault)) {
		t.Errorf("injected ScoreAll fault did not reach a fully resident call: %v", err)
	}
	if hits, _ := r.c.Stats(); hits != hits0 {
		t.Errorf("a failed call probed the cache (%d hits)", hits-hits0)
	}
	r.d.Forward(residentCtxs)
	r.d.ScoreAll(residentSeqs)
	if f, a := in.Calls(fault.DeviceForward), in.Calls(fault.DeviceScoreAll); f != 2 || a != 2 {
		t.Errorf("fault points evaluated %d / %d times over 2 + 2 calls", f, a)
	}
}

// TestScopeOutcomesPartitionRowsThroughDevice: with the probe in front, a
// row is a hit (probe or dispatch), a miss or a flight — still exactly one
// of them, per scope, under concurrency.
func TestScopeOutcomesPartitionRowsThroughDevice(t *testing.T) {
	eachRoute(t, func(t *testing.T, r *residentRig) {
		positions := 0
		for _, s := range residentSeqs {
			positions += len(s)
		}
		want := int64(3 * (len(residentCtxs) + positions))

		scopes := make([]*cache.LM, 8)
		var wg sync.WaitGroup
		for i := range scopes {
			scopes[i] = r.c.NewScope()
			view := r.d.WithModel(scopes[i])
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					view.Forward(residentCtxs)
					view.ScoreAll(residentSeqs)
				}
			}()
		}
		wg.Wait()

		var hits, misses, flights int64
		for i, s := range scopes {
			st := s.Tally()
			if st.Hits+st.Misses+st.Flights != want {
				t.Errorf("scope %d: outcomes %+v don't partition %d rows", i, st, want)
			}
			hits, misses, flights = hits+st.Hits, misses+st.Misses, flights+st.Flights
		}
		ch, cm := r.c.Stats()
		if ch != hits || cm != misses || r.c.FlightStats() != flights {
			t.Errorf("scopes sum to %d/%d/%d, cache counted %d/%d/%d",
				hits, misses, flights, ch, cm, r.c.FlightStats())
		}
		if n := int64(r.lm.computed()); n != misses {
			t.Errorf("model computed %d rows, scopes own %d misses", n, misses)
		}
	})
}

// TestResidentTraceAnnotations: a dispatch the probe shortened records how
// many rows were asked for next to how many it carried, and a fully resident
// call opens no device span — its rows are counted on the parent.
func TestResidentTraceAnnotations(t *testing.T) {
	eachRoute(t, func(t *testing.T, r *residentRig) {
		r.d.Forward(residentCtxs[:3])
		tr := trace.New(1, 4).NewTrace()
		round := tr.Start(trace.RootID, "round")
		view := r.d.WithTrace(tr, round)
		view.Forward(residentCtxs)     // 3 resident, 2 dispatched
		view.Forward(residentCtxs)     // all 5 resident
		view.Forward(residentCtxs[:2]) // 2 more
		tr.End(round)
		data := tr.Finish()

		spans := data.Find("device.forward")
		if len(spans) != 1 {
			t.Fatalf("trace has %d device.forward spans, want 1 (resident calls open none)", len(spans))
		}
		if rows, req := spans[0].Attr("rows"), spans[0].Attr("requested"); rows != "2" || req != strconv.Itoa(len(residentCtxs)) {
			t.Errorf("partial dispatch recorded rows=%q requested=%q, want 2 and %d", rows, req, len(residentCtxs))
		}
		parent := data.Find("round")[0]
		if got := parent.Attr("resident_rows"); got != "7" {
			t.Errorf("parent span resident_rows=%q, want 7", got)
		}
		n := 0
		for _, a := range parent.Attrs {
			if a.Key == "resident_rows" {
				n++
			}
		}
		if n != 1 {
			t.Errorf("parent span carries %d resident_rows attributes, want one running count", n)
		}
	})
}

// TestResidentProbeAlone: Device.Resident answers the resident rows with the
// cache's own slices, leaves the rest nil, dispatches nothing, and counts
// what it answered on the trace parent; over a model with no cache it
// answers nothing.
func TestResidentProbeAlone(t *testing.T) {
	eachRoute(t, func(t *testing.T, r *residentRig) {
		warm, err := r.d.Forward(residentCtxs[:3])
		if err != nil {
			t.Fatal(err)
		}
		before := r.charged()
		tr := trace.New(1, 4).NewTrace()
		round := tr.Start(trace.RootID, "round")
		rows := make([][]float64, len(residentCtxs))
		hit := r.d.WithTrace(tr, round).Resident(residentCtxs, rows)
		tr.End(round)
		if hit != 3 || len(rows) != len(residentCtxs) {
			t.Fatalf("probe answered %d of %d rows, want 3", hit, len(rows))
		}
		for i, row := range rows {
			if resident := i < 3; resident != (row != nil) || resident && &row[0] != &warm[i][0] {
				t.Errorf("row %d: got %v, want the cache's own row only for the first three", i, row)
			}
		}
		if after := r.charged(); after != before {
			t.Errorf("the probe charged the device: %+v -> %+v", before, after)
		}
		if got := tr.Finish().Find("round")[0].Attr("resident_rows"); got != "3" {
			t.Errorf("round span resident_rows=%q, want 3", got)
		}
		if hit := r.ref.Resident(residentCtxs, make([][]float64, len(residentCtxs))); hit != 0 {
			t.Errorf("an uncached view answered %d rows", hit)
		}
	})
}
