package device

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// newBareBatcher builds a batcher over the device WITHOUT starting the
// scheduler goroutine, so white-box tests can drive enqueue/selectLocked
// deterministically.
func newBareBatcher(d *Device) *Batcher { return newBatcher(d, 0) }

// enqueueRows queues an n-row forward request on a bare batcher.
func enqueueRows(b *Batcher, n int) *request {
	ctxs := make([][]model.Token, n)
	for i := range ctxs {
		ctxs[i] = []model.Token{1}
	}
	r := &request{
		kind: reqForward,
		enq:  time.Now(),
		ctxs: ctxs,
		rows: make([][]float64, n),
		done: make(chan struct{}),
	}
	r.remaining = n
	if !b.enqueue(r) {
		panic("enqueue on closed batcher")
	}
	return r
}

// segRows names each of the batch's segments by its request's label and row
// range.
func segRows(fb *batch, label map[*request]string) []string {
	var out []string
	for _, sg := range fb.segs {
		out = append(out, fmt.Sprintf("%s[%d:%d]", label[sg.req], sg.lo, sg.hi))
	}
	return out
}

// TestBatcherArrivalOrderSelection pins the selection rule: requests are
// packed in arrival order, each at most once per batch, and one is split only
// where the batch reaches the cap.
func TestBatcherArrivalOrderSelection(t *testing.T) {
	b := newBareBatcher(newDevice(8))
	label := map[*request]string{}
	for _, q := range []struct {
		name string
		rows int
	}{{"A", 6}, {"B", 4}, {"C", 2}, {"D", 9}} {
		label[enqueueRows(b, q.rows)] = q.name
	}

	var got [][]string
	b.mu.Lock()
	for b.head != nil {
		fb := new(batch)
		b.selectLocked(fb, time.Now())
		got = append(got, segRows(fb, label))
	}
	rows := b.rows
	b.mu.Unlock()
	want := [][]string{
		{"A[0:6]", "B[0:2]"},
		{"B[2:4]", "C[0:2]", "D[0:4]"},
		{"D[4:9]"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("batches = %v, want %v", got, want)
	}
	if st := b.Stats(); rows != 0 || b.tail != nil || st.FusedBatches != 3 || st.MultiQueryBatches != 2 || st.Rows != 21 {
		t.Errorf("after selection: %d rows pending, tail %p, stats %+v; want 0, nil, 3 batches (2 multi-query) of 21 rows", rows, b.tail, st)
	}
}

// TestBatcherFusesConcurrentForwards: concurrent submissions inside one
// admission window execute as ONE device batch — one dispatch charge — and
// every caller gets exactly its own rows back.
func TestBatcherFusesConcurrentForwards(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, 200*time.Millisecond)
	defer b.Close()

	direct := newDevice(64) // unfused reference

	const queries, rows = 8, 4
	var wg sync.WaitGroup
	outs := make([][][]float64, queries)
	for qi := 0; qi < queries; qi++ {
		ctxs := make([][]model.Token, rows)
		for i := range ctxs {
			ctxs[i] = []model.Token{model.Token(qi), model.Token(i)}
		}
		wg.Add(1)
		go func(qi int) {
			defer wg.Done()
			outs[qi] = must(d.Forward(ctxs))
		}(qi)
	}
	wg.Wait()

	for qi := 0; qi < queries; qi++ {
		ctxs := make([][]model.Token, rows)
		for i := range ctxs {
			ctxs[i] = []model.Token{model.Token(qi), model.Token(i)}
		}
		if want := must(direct.Forward(ctxs)); !reflect.DeepEqual(outs[qi], want) {
			t.Errorf("query %d rows differ under fusion", qi)
		}
	}

	st := d.Stats()
	if st.Batches != 1 {
		t.Errorf("device ran %d batches, want 1 fused batch", st.Batches)
	}
	if st.Sequences != queries*rows {
		t.Errorf("sequences = %d, want %d", st.Sequences, queries*rows)
	}
	if want := DefaultLatency().Cost(queries*rows, queries*rows*2); st.Clock != want {
		t.Errorf("clock = %v, want one fused charge %v", st.Clock, want)
	}
	bs := b.Stats()
	if bs.FusedBatches != 1 || bs.MultiQueryBatches != 1 {
		t.Errorf("batcher stats %+v, want 1 fused multi-query batch", bs)
	}
	if bs.MeanOccupancy != queries*rows {
		t.Errorf("occupancy = %v, want %d", bs.MeanOccupancy, queries*rows)
	}
}

// TestBatcherSizeWatermarkFlush: pending rows reaching the device cap flush
// immediately — a huge admission window must not delay a full batch.
func TestBatcherSizeWatermarkFlush(t *testing.T) {
	d := newDevice(4)
	b := StartBatcher(d, 10*time.Minute)
	defer b.Close()

	ctxs := make([][]model.Token, 8)
	for i := range ctxs {
		ctxs[i] = []model.Token{1}
	}
	done := make(chan [][]float64, 1)
	go func() { done <- must(d.Forward(ctxs)) }()
	select {
	case out := <-done:
		if len(out) != 8 {
			t.Fatalf("got %d rows", len(out))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("size watermark did not flush; request stuck behind the window")
	}
	bs := b.Stats()
	if bs.SizeFlushes == 0 {
		t.Errorf("no size flushes recorded: %+v", bs)
	}
	if st := d.Stats(); st.Batches != 2 { // 8 rows through a cap-4 device
		t.Errorf("batches = %d, want 2", st.Batches)
	}
}

// TestBatcherWindowFlush: a lone sub-cap request flushes when its admission
// window expires, not at the size watermark.
func TestBatcherWindowFlush(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, time.Millisecond)
	defer b.Close()
	if out := must(d.Forward([][]model.Token{{1}, {2}})); len(out) != 2 {
		t.Fatalf("got %d rows", len(out))
	}
	if bs := b.Stats(); bs.WindowFlushes == 0 {
		t.Errorf("no window flushes recorded: %+v", bs)
	}
}

// TestBatcherAllKindsMatchDirect: every routed entry point — Forward,
// Prefill, ExtendBatch, ScoreAll — returns byte-identical results through
// the fusion queue, including when all four kinds land in the same window.
func TestBatcherAllKindsMatchDirect(t *testing.T) {
	fused := newDevice(64)
	b := StartBatcher(fused, 50*time.Millisecond)
	defer b.Close()
	direct := newDevice(64)

	ctxs := [][]model.Token{{1, 2}, {3}, {1, 2, 3, 4}}
	seqs := [][]model.Token{{1, 2, 3}, {4, 5}}

	dStates, dRows := must2(direct.Prefill(ctxs))
	dExtStates, dExtRows := must2(direct.ExtendBatch(dStates, []model.Token{5, 6, 7}))
	dFwd := must(direct.Forward(ctxs))
	dAll := must(direct.ScoreAll(seqs))

	var fStates, fExtStates []model.DecodeState
	var fRows, fExtRows, fFwd [][]float64
	var fAll [][][]float64
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); fFwd = must(fused.Forward(ctxs)) }()
	go func() { defer wg.Done(); fAll = must(fused.ScoreAll(seqs)) }()
	go func() {
		defer wg.Done()
		fStates, fRows = must2(fused.Prefill(ctxs))
		fExtStates, fExtRows = must2(fused.ExtendBatch(fStates, []model.Token{5, 6, 7}))
	}()
	wg.Wait()

	if !reflect.DeepEqual(fRows, dRows) {
		t.Error("Prefill rows differ under fusion")
	}
	if !reflect.DeepEqual(fExtRows, dExtRows) {
		t.Error("ExtendBatch rows differ under fusion")
	}
	if !reflect.DeepEqual(fFwd, dFwd) {
		t.Error("Forward rows differ under fusion")
	}
	if !reflect.DeepEqual(fAll, dAll) {
		t.Error("ScoreAll rows differ under fusion")
	}
	for i := range fExtStates {
		if !reflect.DeepEqual(fExtStates[i].Context(), dExtStates[i].Context()) {
			t.Errorf("extended state %d context differs", i)
		}
	}
	// Token accounting must survive fusion: prefill/forward/scoreAll pay per
	// context token, extend pays one token per sequence.
	wantTokens := int64(2*(2+1+4) + (3 + 2) + 3)
	if st := fused.Stats(); st.Tokens != wantTokens {
		t.Errorf("fused tokens = %d, want %d", st.Tokens, wantTokens)
	}
	if ds, fs := direct.Stats(), fused.Stats(); fs.Tokens != ds.Tokens || fs.Sequences != ds.Sequences {
		t.Errorf("fused accounting %+v differs from direct %+v", fs, ds)
	}
}

// TestBatcherFloodCannotStarve: a continuous flood of cheap single-row
// queries must not starve a large query. Arrival order bounds the flood's
// service during the big query's lifetime: each flood goroutine has one
// request in flight, so at most 8 flood rows are queued ahead of any of the
// big query's requests.
func TestBatcherFloodCannotStarve(t *testing.T) {
	d := newDevice(8)
	b := StartBatcher(d, 100*time.Microsecond)
	defer b.Close()

	stop := make(chan struct{})
	var floodRows atomic.Int64
	var floodWg sync.WaitGroup
	for f := 0; f < 8; f++ {
		floodWg.Add(1)
		go func() {
			defer floodWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Forward([][]model.Token{{1}})
				floodRows.Add(1)
			}
		}()
	}

	ctxs := make([][]model.Token, 16)
	for i := range ctxs {
		ctxs[i] = []model.Token{2}
	}
	const bigCalls, bigRows = 5, 5 * 16
	done := make(chan struct{})
	go func() {
		for i := 0; i < bigCalls; i++ {
			d.Forward(ctxs)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("expensive query starved by cheap flood")
	}
	served := floodRows.Load()
	close(stop)
	floodWg.Wait()

	// 8 cheap queries served in arrival order beside 1 expensive one: a few
	// flood rows per expensive row. Far beyond that means the big query was
	// being starved.
	if ratio := float64(served) / float64(bigRows); ratio > 50 {
		t.Errorf("flood served %d rows while expensive served %d (ratio %.1f), want bounded service",
			served, bigRows, ratio)
	} else {
		t.Logf("flood/expensive service ratio %.1f", ratio)
	}
}

// TestBatcherPanicReachesSubmitter: a panic inside a fused row is the error
// of the dispatch that submitted it, and its span says so — the scheduler
// neither dies nor re-raises it, and keeps serving other queries afterwards.
func TestBatcherPanicReachesSubmitter(t *testing.T) {
	d := New(poisonLM{newRowLM()}, DefaultLatency(), 64)
	b := StartBatcher(d, time.Millisecond)
	defer b.Close()

	tr := trace.New(1, 4).NewTrace()
	_, err := d.WithTrace(tr, trace.RootID).Forward([][]model.Token{{poisonTok}})
	if mp := new(*ModelPanic); !errors.As(err, mp) || !errors.Is(err, errPoison) {
		t.Errorf("poisoned Forward returned %v, want a *ModelPanic wrapping the model's own panic value", err)
	}
	const wantAttr = "device: model panicked: poison row"
	if spans := tr.Finish().Find("device.forward"); len(spans) != 1 || spans[0].Attr("error") != wantAttr {
		t.Errorf("poisoned dispatch's spans %v, want one annotated error=%q", spans, wantAttr)
	}

	// Scheduler must still be alive and serving.
	if out := must(d.Forward([][]model.Token{{1}})); len(out) != 1 {
		t.Fatalf("batcher dead after poisoned request: %v", out)
	}
}

// TestBatcherCloseDrainsAndFallsBack: Close waits for queued work, later
// calls use direct dispatch, double-Close is safe, and the scheduler
// goroutine exits (no leak).
func TestBatcherCloseDrainsAndFallsBack(t *testing.T) {
	before := runtime.NumGoroutine()
	d := newDevice(64)
	b := StartBatcher(d, 50*time.Millisecond)

	var out [][]float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); out = must(d.Forward([][]model.Token{{1}, {2}})) }()
	for i := 0; b.Stats().QueueDepth == 0 && i < 5000; i++ {
		time.Sleep(time.Millisecond)
	}
	b.Close()
	wg.Wait()
	if len(out) != 2 {
		t.Fatalf("queued request lost on Close: %v", out)
	}
	if bs := b.Stats(); bs.DrainFlushes+bs.WindowFlushes+bs.SizeFlushes == 0 {
		t.Errorf("drained request unaccounted: %+v", bs)
	}

	fusedBatches := b.Stats().FusedBatches
	if got := must(d.Forward([][]model.Token{{3}})); len(got) != 1 {
		t.Fatalf("direct fallback failed after Close: %v", got)
	}
	if b.Stats().FusedBatches != fusedBatches {
		t.Error("post-Close Forward went through the closed batcher")
	}
	if d.Batcher() != nil {
		t.Error("closed batcher still attached to the device")
	}
	b.Close() // idempotent

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines %d > %d before StartBatcher: scheduler leaked", n, before)
	}
}

// TestBatcherZeroRowCalls: empty submissions complete immediately without
// waking the scheduler or charging the device.
func TestBatcherZeroRowCalls(t *testing.T) {
	d := newDevice(64)
	b := StartBatcher(d, 10*time.Minute)
	defer b.Close()
	if out := must(d.Forward(nil)); len(out) != 0 {
		t.Fatalf("got %v", out)
	}
	states, rows := must2(d.Prefill(nil))
	if len(states) != 0 || len(rows) != 0 {
		t.Fatal("empty prefill returned rows")
	}
	if st := d.Stats(); st.Batches != 0 {
		t.Errorf("empty calls charged %d batches", st.Batches)
	}
}

// Route equivalence. A dispatch reaches core.run one of three ways — inline
// with no batcher attached, through the fusion queue, inline because the
// batcher was closed — and on each it must be the same dispatch: same rows
// and decode states, same device charges, a span covering exactly its own
// charge, the same error.

type routeIn struct {
	ctxs   [][]model.Token
	states []model.DecodeState // prefilled over ctxs
	toks   []model.Token       // one extension token per row
}

type routeOut struct {
	rows   [][]float64
	all    [][][]float64
	states []model.DecodeState
}

// routeOps drives each public entry point and says what the model, asked
// directly, returns for the same rows.
var routeOps = []struct {
	name, span string
	tokens     func(ctxs [][]model.Token) int // what the rows are priced at
	run        func(d *Device, in routeIn) (routeOut, error)
	want       func(lm model.LanguageModel, in routeIn) routeOut
}{
	{
		name: "forward", span: "device.forward", tokens: sumLens,
		run: func(d *Device, in routeIn) (routeOut, error) {
			rows, err := d.Forward(in.ctxs)
			return routeOut{rows: rows}, err
		},
		want: func(lm model.LanguageModel, in routeIn) routeOut { return routeOut{rows: lm.ScoreBatch(in.ctxs)} },
	},
	{
		name: "prefill", span: "device.prefill", tokens: sumLens,
		run: func(d *Device, in routeIn) (routeOut, error) {
			st, rows, err := d.Prefill(in.ctxs)
			return routeOut{rows: rows, states: st}, err
		},
		want: func(lm model.LanguageModel, in routeIn) routeOut {
			o := routeOut{rows: make([][]float64, len(in.ctxs)), states: make([]model.DecodeState, len(in.ctxs))}
			for i, c := range in.ctxs {
				o.states[i], o.rows[i] = model.Prefill(lm, c)
			}
			return o
		},
	},
	{
		name: "extend", span: "device.extend", tokens: func(ctxs [][]model.Token) int { return len(ctxs) },
		run: func(d *Device, in routeIn) (routeOut, error) {
			st, rows, err := d.ExtendBatch(in.states, in.toks)
			return routeOut{rows: rows, states: st}, err
		},
		want: func(lm model.LanguageModel, in routeIn) routeOut {
			st, rows := model.Extend(lm, in.states, in.toks)
			return routeOut{rows: rows, states: st}
		},
	},
	{
		name: "scoreAll", span: "device.scoreall", tokens: sumLens,
		run: func(d *Device, in routeIn) (routeOut, error) {
			all, err := d.ScoreAll(in.ctxs)
			return routeOut{all: all}, err
		},
		want: func(lm model.LanguageModel, in routeIn) routeOut {
			o := routeOut{all: make([][][]float64, len(in.ctxs))}
			for i, c := range in.ctxs {
				o.all[i] = model.AllPositionLogProbs(lm, c)
			}
			return o
		},
	},
}

func sumLens(ctxs [][]model.Token) int {
	n := 0
	for _, c := range ctxs {
		n += len(c)
	}
	return n
}

// routes attaches (or not) a batcher to d and reports, after the dispatches,
// whether they took the route the case is named for.
var routes = []struct {
	name  string
	fused bool
	setup func(t *testing.T, d *Device) (took func() bool)
}{
	{"inline", false, func(*testing.T, *Device) func() bool { return func() bool { return true } }},
	{"fused", true, func(t *testing.T, d *Device) func() bool {
		b := StartBatcher(d, 100*time.Microsecond)
		t.Cleanup(b.Close)
		return func() bool { return b.Stats().Requests > 0 }
	}},
	{"closed", false, func(t *testing.T, d *Device) func() bool {
		b := StartBatcher(d, 0)
		b.Close()
		return func() bool { return d.Batcher() == nil && b.Stats().Requests == 0 }
	}},
}

// routeInputs builds n contexts at depths 1..12, states prefilled over them
// by the model itself (so the device under test is charged nothing), and one
// extension token per row.
func routeInputs(lm model.LanguageModel, n int) routeIn {
	in := routeIn{make([][]model.Token, n), make([]model.DecodeState, n), make([]model.Token, n)}
	for i := range in.ctxs {
		in.ctxs[i] = make([]model.Token, 1+(i*5)%12)
		for j := range in.ctxs[i] {
			in.ctxs[i][j] = model.Token((i*7 + j*3) % 31)
		}
		in.states[i], _ = model.Prefill(lm, in.ctxs[i])
		in.toks[i] = model.Token(10 + i)
	}
	return in
}

func TestRouteEquivalence(t *testing.T) {
	const maxBatch = 4
	lat := DefaultLatency()
	_, lm := newIncrDevice(maxBatch)
	for _, op := range routeOps {
		for _, n := range []int{3, 10} { // one chunk, three chunks
			in := routeInputs(lm, n)
			want := op.want(lm, in)
			// A lone caller's rows go out in MaxBatch chunks on every route
			// (the scheduler's size watermark cuts them the same way).
			var wantSt Stats
			for lo := 0; lo < n; lo += maxBatch {
				hi := min(lo+maxBatch, n)
				wantSt.Batches++
				wantSt.Sequences += int64(hi - lo)
				wantSt.Tokens += int64(op.tokens(in.ctxs[lo:hi]))
				wantSt.Busy += lat.Cost(hi-lo, op.tokens(in.ctxs[lo:hi]))
			}
			wantSt.Clock, wantSt.Utilization = wantSt.Busy, 1
			for _, rt := range routes {
				for _, workers := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/%s/workers%d/rows%d", op.name, rt.name, workers, n), func(t *testing.T) {
						d := New(lm, lat, maxBatch)
						if workers > 1 {
							pool := NewPool(workers)
							t.Cleanup(pool.Close)
							d.SetPool(pool)
						}
						took := rt.setup(t, d)
						tr := trace.New(1, 4).NewTrace()
						got := must(op.run(d.WithTrace(tr, trace.RootID), in))
						if !took() {
							t.Fatalf("dispatch did not take the %s route", rt.name)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("rows or decode states differ from the model's own")
						}
						if st := d.Stats(); st != wantSt {
							t.Errorf("device charged %+v, want %+v", st, wantSt)
						}
						spans := tr.Finish().Find(op.span)
						if len(spans) != 1 {
							t.Fatalf("%d %s spans, want 1", len(spans), op.span)
						}
						sp := spans[0]
						if sp.VDev() != wantSt.Busy {
							t.Errorf("span vdev %v, want the cost of its own rows %v", sp.VDev(), wantSt.Busy)
						}
						if f, r, tk := sp.Attr("fused"), sp.Attr("rows"), sp.Attr("tokens"); f != strconv.FormatBool(rt.fused) ||
							r != strconv.Itoa(n) || tk != strconv.FormatInt(wantSt.Tokens, 10) {
							t.Errorf("span says fused=%s rows=%s tokens=%s, want %v/%d/%d", f, r, tk, rt.fused, n, wantSt.Tokens)
						}
					})
				}
			}
		}
	}
}

// poisonLM panics with errPoison on any context holding poisonTok; every
// other context gets rowLM's context-specific row. It has no incremental or
// all-positions implementation, so all four request kinds reach it through
// NextLogProbs / ScoreBatch.
type poisonLM struct{ *rowLM }

const poisonTok = 99

var errPoison = errors.New("poison row")

func (p poisonLM) NextLogProbs(ctx []model.Token) []float64 {
	for _, tk := range ctx {
		if tk == poisonTok {
			panic(errPoison)
		}
	}
	return p.rowLM.NextLogProbs(ctx)
}

func (p poisonLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(p, ctxs) }

// TestRoutePanicReachesSubmitterOnly: a row that panics inside the model is
// the error of the dispatch that submitted it — a *ModelPanic wrapping the
// model's own panic value — on every route, serial or sharded, while a
// neighbouring request dispatched at the same moment gets its own correct
// result.
func TestRoutePanicReachesSubmitterOnly(t *testing.T) {
	const maxBatch, n, k = 4, 10, 6 // row k of n is the poisoned one
	lm := poisonLM{newRowLM()}
	for _, op := range routeOps {
		in := routeInputs(lm, n)
		want := op.want(lm, in)
		bad := routeIn{append([][]model.Token{}, in.ctxs...), in.states, append([]model.Token{}, in.toks...)}
		bad.ctxs[k] = []model.Token{poisonTok, 1}
		bad.toks[k] = poisonTok
		for _, rt := range routes {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers%d", op.name, rt.name, workers), func(t *testing.T) {
					d := New(lm, DefaultLatency(), maxBatch)
					if workers > 1 {
						pool := NewPool(workers)
						t.Cleanup(pool.Close)
						d.SetPool(pool)
					}
					took := rt.setup(t, d)
					tr := trace.New(1, 4).NewTrace()
					var poisonErr, neighbourErr error
					var neighbour routeOut
					var wg sync.WaitGroup
					wg.Add(2)
					go func() {
						defer wg.Done()
						_, poisonErr = op.run(d.WithTrace(tr, trace.RootID), bad)
					}()
					go func() {
						defer wg.Done()
						neighbour, neighbourErr = op.run(d, in)
					}()
					wg.Wait()
					if !took() {
						t.Fatalf("dispatch did not take the %s route", rt.name)
					}
					if mp := new(*ModelPanic); !errors.As(poisonErr, mp) || !errors.Is(poisonErr, errPoison) {
						t.Errorf("poisoned dispatch returned %v, want a *ModelPanic wrapping the model's own panic value", poisonErr)
					}
					if neighbourErr != nil || !reflect.DeepEqual(neighbour, want) {
						t.Errorf("neighbouring request failed (%v) or its result differs from the model's own", neighbourErr)
					}
					// The failed dispatch's span is closed, and says why.
					spans := tr.Finish().Find(op.span)
					if len(spans) != 1 {
						t.Fatalf("%d %s spans, want 1", len(spans), op.span)
					}
					const wantAttr = "device: model panicked: poison row"
					if sp := spans[0]; sp.WallEndNS == 0 || sp.Attr("error") != wantAttr {
						t.Errorf("failed dispatch span ended=%v error=%q, want ended and %q",
							sp.WallEndNS != 0, sp.Attr("error"), wantAttr)
					}
				})
			}
		}
	}
}

// TestConcurrentInlineSpansExcludeNeighbours: two unfused views dispatching
// at once each record the interval their own batch charged. View A is parked
// inside the model, after its charge, while view B runs a whole dispatch; a
// span that sampled the shared clock before and after would put B's charge
// inside A's interval.
func TestConcurrentInlineSpansExcludeNeighbours(t *testing.T) {
	lat := DefaultLatency()
	lmA := newRowLM()
	lmA.entered, lmA.gate = make(chan struct{}, 1), make(chan struct{})
	d := New(lmA, lat, 8)
	tracer := trace.New(1, 4)
	trA, trB := tracer.NewTrace(), tracer.NewTrace()
	ctxsA := [][]model.Token{{1, 2, 3}, {4}}
	ctxsB := [][]model.Token{{5, 6}}

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.WithTrace(trA, trace.RootID).Forward(ctxsA)
	}()
	<-lmA.entered
	d.WithModel(newRowLM()).WithTrace(trB, trace.RootID).Forward(ctxsB)
	close(lmA.gate)
	<-done

	costA, costB := lat.Cost(2, 4), lat.Cost(1, 2)
	a, b := trA.Finish().Find("device.forward")[0], trB.Finish().Find("device.forward")[0]
	if a.VStartUS != 0 || a.VDev() != costA {
		t.Errorf("view A's span is [%dus, %dus], want [0, %v]: it contains another view's charge", a.VStartUS, a.VEndUS, costA)
	}
	if b.VStartUS != costA.Microseconds() || b.VDev() != costB {
		t.Errorf("view B's span is [%dus, %dus], want %v starting at %v", b.VStartUS, b.VEndUS, costB, costA)
	}
}
