package device

import (
	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/trace"
)

// Incremental dispatch (DESIGN.md decision 10). These entry points mirror
// Forward — chunking by MaxBatch, charging the latency model, sharding each
// chunk across the worker pool — but price what an accelerator actually
// executes: a Prefill pays for every context token, an ExtendBatch pays for
// exactly one new token per sequence, and ScoreAll pays for one causal pass
// over the sequence instead of one pass per position. The virtual clock
// therefore shows the same asymptotic win the wall clock does.

// Prefill computes decode states and next-token log-probs for ctxs in one
// dispatch. Cost: one batch at the full token count (identical to Forward on
// the same contexts).
func (d *Device) Prefill(ctxs [][]model.Token) ([]model.DecodeState, [][]float64) {
	d.inject(fault.DevicePrefill)
	var span trace.SpanID
	if b := d.c.batcher.Load(); b != nil {
		r := &request{
			kind:      reqPrefill,
			ctxs:      ctxs,
			rows:      make([][]float64, len(ctxs)),
			outStates: make([]model.DecodeState, len(ctxs)),
		}
		span = d.traceFusedStart("device.prefill", r)
		if b.submit(d, r) {
			if d.tr != nil {
				d.traceFusedEnd(span, r.trace, len(ctxs), len(ctxs), countTokens(ctxs))
			}
			return r.outStates, r.rows
		}
	}
	states := make([]model.DecodeState, len(ctxs))
	rows := make([][]float64, len(ctxs))
	span, v0 := d.traceDirectBegin(span, "device.prefill")
	d.runChunks(len(ctxs), func(c []model.Token) int { return len(c) }, ctxs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			states[i], rows[i] = model.Prefill(d.lm, ctxs[i])
		}
	})
	if d.tr != nil {
		d.traceDirectEnd(span, v0, len(ctxs), len(ctxs), countTokens(ctxs))
	}
	return states, rows
}

// ExtendBatch advances each state by one token in one dispatch. Cost: one
// token per sequence — the incremental saving, on the virtual clock.
func (d *Device) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	d.inject(fault.DeviceExtend)
	var span trace.SpanID
	if b := d.c.batcher.Load(); b != nil {
		r := &request{
			kind:      reqExtend,
			states:    states,
			tokens:    tokens,
			rows:      make([][]float64, len(states)),
			outStates: make([]model.DecodeState, len(states)),
		}
		span = d.traceFusedStart("device.extend", r)
		if b.submit(d, r) {
			if d.tr != nil {
				d.traceFusedEnd(span, r.trace, len(states), len(states), len(states))
			}
			return r.outStates, r.rows
		}
	}
	out := make([]model.DecodeState, len(states))
	rows := make([][]float64, len(states))
	span, v0 := d.traceDirectBegin(span, "device.extend")
	d.runChunks(len(states), nil, nil, func(lo, hi int) {
		ns, rs := model.Extend(d.lm, states[lo:hi], tokens[lo:hi])
		copy(out[lo:hi], ns)
		copy(rows[lo:hi], rs)
	})
	if d.tr != nil {
		d.traceDirectEnd(span, v0, len(states), len(states), len(states))
	}
	return out, rows
}

// ScoreAll returns every position's next-token log-probs for each sequence
// (row p of a sequence's result conditions on its first p tokens). Cost: one
// sequence at its token count per entry — one causal pass, not len(seq)
// row-expanded contexts — for the sequences with a position the view's model
// does not already hold; fully resident sequences are answered before
// dispatch, like Forward's rows.
func (d *Device) ScoreAll(seqs [][]model.Token) [][][]float64 {
	d.inject(fault.DeviceScoreAll)
	return residentFirst(d, seqs, model.Resident.ResidentAllPositions, d.scoreAll)
}

// scoreAll is ScoreAll's dispatch half; see forward.
func (d *Device) scoreAll(seqs [][]model.Token, out [][][]float64, requested int) {
	var span trace.SpanID
	if b := d.c.batcher.Load(); b != nil {
		r := &request{kind: reqScoreAll, ctxs: seqs, allRows: out}
		span = d.traceFusedStart("device.scoreall", r)
		if b.submit(d, r) {
			if d.tr != nil {
				d.traceFusedEnd(span, r.trace, len(seqs), requested, countTokens(seqs))
			}
			return
		}
	}
	span, v0 := d.traceDirectBegin(span, "device.scoreall")
	d.runChunks(len(seqs), func(s []model.Token) int { return len(s) }, seqs, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = model.AllPositionLogProbs(d.lm, seqs[i])
		}
	})
	if d.tr != nil {
		d.traceDirectEnd(span, v0, len(seqs), requested, countTokens(seqs))
	}
}

// runChunks is the shared dispatch loop: split n items into MaxBatch chunks,
// charge each chunk (tokens per item via tokOf over items, or 1 when tokOf
// is nil), and execute the chunk sharded across the worker pool. exec is
// called with disjoint [lo, hi) ranges and must write only its own slots.
func (d *Device) runChunks(n int, tokOf func([]model.Token) int, items [][]model.Token, exec func(lo, hi int)) {
	d.c.mu.Lock()
	workers := d.c.workers
	pool := d.c.pool
	d.c.mu.Unlock()
	if pool != nil {
		workers = pool.Size()
	}
	for lo := 0; lo < n; lo += d.c.maxBatch {
		hi := lo + d.c.maxBatch
		if hi > n {
			hi = n
		}
		tokens := hi - lo
		if tokOf != nil {
			tokens = 0
			for i := lo; i < hi; i++ {
				tokens += tokOf(items[i])
			}
		}
		cost := d.c.latency.Cost(hi-lo, tokens)
		d.c.mu.Lock()
		d.c.clock += cost
		d.c.busy += cost
		d.c.batches++
		d.c.sequences += int64(hi - lo)
		d.c.tokens += int64(tokens)
		d.c.mu.Unlock()
		d.shardRange(lo, hi, workers, pool, exec)
	}
}

// shardRange splits [lo, hi) across the worker pool; shards write disjoint
// index ranges so the merge needs no locking.
func (d *Device) shardRange(lo, hi, workers int, pool *Pool, exec func(lo, hi int)) {
	n := hi - lo
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		exec(lo, hi)
		return
	}
	per := (n + workers - 1) / workers
	var shards []func()
	for s := lo; s < hi; s += per {
		s, e := s, s+per
		if e > hi {
			e = hi
		}
		shards = append(shards, func() { exec(s, e) })
	}
	runShards(shards, pool)
}
