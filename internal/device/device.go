// Package device simulates the accelerator that backs LLM inference (see
// DESIGN.md, substitution table: the paper ran a GTX-3080). The executor
// submits batches of contexts; the device charges a latency model (fixed
// dispatch overhead plus per-sequence and per-token costs) against a virtual
// clock and meters busy time, so experiments can report throughput and
// utilization figures analogous to the paper's nvidia-smi measurements —
// without any wall-clock dependence, keeping benches deterministic.
//
// A Device is a *view*: the model it scores with plus a shared accounting
// core (clock, counters, worker pool). WithModel derives a second view over
// the same core scoring through a different model — a query-serving layer
// uses this to give each query a cache-attribution scope while all queries
// share one device's clock, batch limits, and workers (DESIGN.md
// decision 8).
package device

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/trace"
)

// LatencyModel prices a batch. Defaults approximate a mid-range GPU running
// a 1.5B-parameter model: ~3ms dispatch, ~0.9ms per sequence in the batch,
// ~0.02ms per context token.
type LatencyModel struct {
	Dispatch    time.Duration // fixed cost per batch
	PerSequence time.Duration // marginal cost per sequence
	PerToken    time.Duration // marginal cost per context token
}

// DefaultLatency is the stock latency model.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		Dispatch:    3 * time.Millisecond,
		PerSequence: 900 * time.Microsecond,
		PerToken:    20 * time.Microsecond,
	}
}

// Cost returns the simulated execution time of a batch with the given
// sequence count and total token count.
func (lm LatencyModel) Cost(sequences, totalTokens int) time.Duration {
	return lm.Dispatch +
		time.Duration(sequences)*lm.PerSequence +
		time.Duration(totalTokens)*lm.PerToken
}

// core is the accounting state shared by every view of one device: the
// virtual clock, activity counters, and the host-side scoring workers.
type core struct {
	latency  LatencyModel
	maxBatch int

	mu        sync.Mutex
	pool      *Pool
	clock     time.Duration // virtual time elapsed
	busy      time.Duration // virtual time spent executing
	batches   int64
	sequences int64
	tokens    int64

	// batcher, when non-nil, fuses scoring calls from all views into shared
	// forwards (continuous cross-query batching, DESIGN.md decision 12).
	// Atomic so the dispatch hot path never takes the accounting mutex just
	// to discover fusion is off.
	batcher atomic.Pointer[Batcher]
}

// Device executes language-model batches against a virtual clock.
type Device struct {
	lm model.LanguageModel
	c  *core

	// tr/trParent, when set (WithTrace), record a span per dispatch made
	// through this view. nil on untraced views — the hot-path cost of the
	// instrumentation is then a single pointer check.
	tr       *trace.Trace
	trParent trace.SpanID
}

// New creates a device for the given model. maxBatch bounds batch size
// (<= 0 means 64).
func New(lm model.LanguageModel, latency LatencyModel, maxBatch int) *Device {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &Device{lm: lm, c: &core{latency: latency, maxBatch: maxBatch}}
}

// WithModel returns a view of this device that scores through lm but shares
// the clock, counters, batch limit, and worker pool. Use it to thread a
// per-query model wrapper (e.g. a cache attribution scope) through a shared
// device: work done via any view is billed to the one virtual accelerator.
func (d *Device) WithModel(lm model.LanguageModel) *Device {
	return &Device{lm: lm, c: d.c, tr: d.tr, trParent: d.trParent}
}

// Batcher returns the fusion scheduler attached to this device's core, or
// nil when every dispatch runs inline.
func (d *Device) Batcher() *Batcher { return d.c.batcher.Load() }

// SetPool attaches a persistent worker pool, shared with any other devices
// the caller attaches it to: each dispatched batch is sharded across its
// workers (DESIGN.md decisions 6 and 8). The virtual latency model is
// unaffected — it prices the simulated accelerator, which executes a batch
// as one unit — only the wall clock of scoring it changes. A long-running
// server sizes one pool for the whole process. nil detaches, and every
// batch then runs on its dispatching goroutine.
func (d *Device) SetPool(p *Pool) {
	d.c.mu.Lock()
	d.c.pool = p
	d.c.mu.Unlock()
}

// Workers reports the scoring width: the attached pool's size, or 1.
func (d *Device) Workers() int {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	return d.c.pool.Size()
}

// Model returns this view's language model.
func (d *Device) Model() model.LanguageModel { return d.lm }

// MaxBatch reports the device batch-size limit.
func (d *Device) MaxBatch() int { return d.c.maxBatch }

// Latency reports the latency model the device charges its dispatches.
func (d *Device) Latency() LatencyModel { return d.c.latency }

// Forward runs one batch of contexts and returns their next-token log-prob
// vectors, charging the latency model for the rows that have to be computed:
// rows the view's model already holds (residentFirst) are answered before
// dispatch and cost nothing. Batches larger than MaxBatch are split
// internally. Scoring goes through the model's ScoreBatch path, so a batched
// substrate (the packed Transformer forward, the miss-forwarding cache) sees
// the whole chunk at once; with a Pool attached each chunk is additionally
// sharded across its workers. Forward is safe for concurrent use,
// including across views. Its error is a *fault.Fault or a *ModelPanic.
func (d *Device) Forward(ctxs [][]model.Token) ([][]float64, error) {
	return residentFirst(d, fault.DeviceForward, ctxs, model.Resident.ResidentRows,
		func(ctxs [][]model.Token, out [][]float64) *request {
			return &request{kind: reqForward, ctxs: ctxs, rows: out}
		})
}

// dispatch is the one path a scoring call takes to the accelerator (DESIGN.md
// decision 12). The request rides the fusion queue when a batcher is
// attached; with no batcher or a closed one it runs inline on this goroutine.
// Both routes execute through core.run and leave the same record in r.trace,
// which closes the span. requested is the row count of the public call the
// rows belong to (more than the request's own when the resident probe
// answered part of it). The request's first failure — a failed fused batch's
// fault, or a *ModelPanic — is the returned error on either route; the span
// is closed first, annotated "error".
func (d *Device) dispatch(name string, r *request, requested int) error {
	r.lm = d.lm
	span := d.traceStart(name, r)
	b := d.c.batcher.Load()
	fused := b != nil && b.submit(r)
	if !fused {
		d.c.inline(r)
	}
	d.traceEnd(span, r, fused, requested)
	return r.err
}

// inline is the route without a scheduler: the request is cut into MaxBatch
// chunks and each runs as a one-segment batch on the caller's goroutine. It
// stops at the first chunk that fails.
func (c *core) inline(r *request) {
	n := r.rowCount()
	for lo := 0; lo < n && r.err == nil; lo += c.maxBatch {
		var b batch
		b.add(segment{req: r, lo: lo, hi: min(lo+c.maxBatch, n)})
		c.run(&b)
	}
}

// run executes one batch as one device dispatch: the only place the latency
// model is charged and the only caller of segment.exec. The scheduler hands
// it a fused batch, the inline route one chunk of one request. Each traced
// request in the batch is stamped with exactly the interval charged here, so
// a span never contains another view's charge. run returns when every row
// has executed; a row's panic is recorded as its request's error, not raised.
func (c *core) run(b *batch) {
	cost := c.latency.Cost(b.rows, b.tokens)
	c.mu.Lock()
	pool := c.pool
	vstart := c.clock
	c.clock += cost
	c.busy += cost
	c.batches++
	c.sequences += int64(b.rows)
	c.tokens += int64(b.tokens)
	vend := c.clock
	c.mu.Unlock()
	for _, sg := range b.segs {
		if rt := sg.req.trace; rt != nil {
			if !rt.hasV {
				rt.vstart, rt.hasV = vstart, true
			}
			rt.vend = vend
			rt.occupancy = max(rt.occupancy, len(b.segs))
		}
	}
	b.runShards(pool)
}

// residentFirst is the shared front of Forward and ScoreAll (DESIGN.md
// decisions 4 and 6): after the fault point name, ask the view's model, when
// it is a memoizing wrapper, which items it can answer without computing
// (probe fills those slots of the result), dispatch a request (built by
// build, writing row i to out[i]) for only the rest, and merge in caller
// order. A fully resident call returns without touching the batcher, the
// clock or the worker pool — an accelerator executes nothing for a memoized
// row, so the device charges nothing. It sits above dispatch, so both routes
// see only rows that need computing.
func residentFirst[R []float64 | [][]float64](
	d *Device, name string, items [][]model.Token,
	probe func(model.Resident, [][]model.Token, []R) int,
	build func(items [][]model.Token, out []R) *request,
) ([]R, error) {
	if err := d.inject(name); err != nil {
		return nil, err
	}
	out := make([]R, len(items))
	hit := 0
	if res, ok := d.lm.(model.Resident); ok {
		hit = probe(res, items, out)
	}
	if hit > 0 && hit == len(items) {
		d.tr.AddCount(d.trParent, "resident_rows", hit)
		return out, nil
	}
	missing, rows := items, out
	if hit > 0 {
		missing = make([][]model.Token, 0, len(items)-hit)
		for i, it := range items {
			if out[i] == nil {
				missing = append(missing, it)
			}
		}
		rows = make([]R, len(missing))
	}
	if err := d.dispatch(name, build(missing, rows), len(items)); err != nil {
		return nil, err
	}
	for i, j := 0, 0; hit > 0 && i < len(out); i++ {
		if out[i] == nil {
			out[i] = rows[j]
			j++
		}
	}
	return out, nil
}

// Resident answers what it can of ctxs from the view's memoizing model with
// no dispatch at all: rows[i] (len(rows) >= len(ctxs)) is set to ctxs[i]'s
// next-token row when it is resident and left alone otherwise; hit counts
// the rows answered. It is Forward's probe without the dispatch, for a
// caller that sends the misses somewhere other than Forward — the engine's
// incremental path, which must know which contexts still need a decode state
// (DESIGN.md decision 10), and shortest path's, which sizes a resolution by
// whether its top's row is resident (decision 6). The answered rows are
// counted on the trace parent as resident_rows, as a fully resident Forward
// counts its own.
func (d *Device) Resident(ctxs [][]model.Token, rows [][]float64) (hit int) {
	if res, ok := d.lm.(model.Resident); ok {
		hit = res.ResidentRows(ctxs, rows)
	}
	if hit > 0 {
		d.tr.AddCount(d.trParent, "resident_rows", hit)
	}
	return hit
}

// inject consults the fault registry at a dispatch entry point, before
// anything is probed or dispatched. A latency spike stalls the virtual clock;
// a failure is returned, and recorded as an ended span named for the point.
func (d *Device) inject(point string) error {
	if f := fault.Hit(point); f != nil {
		if f.Latency > 0 {
			d.Idle(f.Latency)
		}
		if f.Failure() {
			sp := d.tr.Start(d.trParent, point)
			d.tr.Annotate(sp, "error", f.Error())
			d.tr.End(sp)
			return f
		}
	}
	return nil
}

// Idle advances the virtual clock without work, modelling host-side time
// (graph bookkeeping, result verification) during which the device sits
// unused. Utilization drops accordingly.
func (d *Device) Idle(dt time.Duration) { d.c.idle(dt) }

func (c *core) idle(dt time.Duration) {
	c.mu.Lock()
	c.clock += dt
	c.mu.Unlock()
}

// Clock returns the current virtual time.
func (d *Device) Clock() time.Duration {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	return d.c.clock
}

// Stats summarizes device activity.
type Stats struct {
	Clock       time.Duration
	Busy        time.Duration
	Utilization float64 // busy / clock, in [0,1]
	Batches     int64
	Sequences   int64
	Tokens      int64
}

// Stats returns a snapshot of the device counters (shared across views).
func (d *Device) Stats() Stats {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	util := 0.0
	if d.c.clock > 0 {
		util = float64(d.c.busy) / float64(d.c.clock)
	}
	return Stats{
		Clock:       d.c.clock,
		Busy:        d.c.busy,
		Utilization: util,
		Batches:     d.c.batches,
		Sequences:   d.c.sequences,
		Tokens:      d.c.tokens,
	}
}

// Reset zeroes the clock and counters.
func (d *Device) Reset() {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	d.c.clock, d.c.busy = 0, 0
	d.c.batches, d.c.sequences, d.c.tokens = 0, 0, 0
}
