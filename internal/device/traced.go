package device

import (
	"strconv"
	"time"

	"repro/internal/model"
	"repro/internal/trace"
)

// Dispatch tracing. A traced view records one span per dispatch —
// "device.forward", "device.prefill", "device.extend", "device.scoreall"
// — carrying the virtual-clock interval the dispatch charged plus, under
// fusion, the batcher's record of the ride: queue wait, fusion-batch ids,
// and cross-query occupancy. Untraced views (the common case) pay one nil
// check per dispatch and allocate nothing; the overhead gate pins this.

// WithTrace returns a view whose dispatches record spans into tr, parented
// under parent. Same model, QoS, and shared core as the receiver.
func (d *Device) WithTrace(tr *trace.Trace, parent trace.SpanID) *Device {
	return &Device{lm: d.lm, qos: d.qos, c: d.c, tr: tr, trParent: parent}
}

// TraceContext returns the view's trace and parent span id (nil, 0 when
// untraced). Layers above the device — the engine's KV bookkeeping — use
// it to hang sibling spans off the same parent.
func (d *Device) TraceContext() (*trace.Trace, trace.SpanID) { return d.tr, d.trParent }

// traceFusedStart opens a dispatch span before the fusion submit (so its
// wall time covers the queue wait) and arms the request's scheduler-side
// trace record.
func (d *Device) traceFusedStart(name string, r *request) trace.SpanID {
	if d.tr == nil {
		return 0
	}
	r.trace = &reqTrace{}
	return d.tr.Start(d.trParent, name)
}

// traceFusedEnd closes a fused dispatch span with what the scheduler
// recorded while the rows rode the queue. The record was written entirely
// by the scheduler goroutine before it closed the request's done channel,
// so reading it here is race-free.
func (d *Device) traceFusedEnd(span trace.SpanID, rt *reqTrace, seqs, requested, tokens int) {
	if d.tr == nil || span == 0 {
		return
	}
	if rt.hasV {
		d.tr.SetVDev(span, rt.vstart, rt.vend)
	}
	d.tr.Annotate(span, "fused", "true")
	for _, bid := range rt.batches {
		d.tr.Annotate(span, "fusion_batch", strconv.FormatInt(bid, 10))
	}
	d.tr.Annotate(span, "queue_wait_us", strconv.FormatInt(rt.waitUS, 10))
	d.tr.Annotate(span, "batch_queries", strconv.Itoa(rt.occupancy))
	d.annotateRows(span, seqs, requested, tokens)
	d.tr.End(span)
}

// traceDirectBegin opens a dispatch span for the direct (unfused) path —
// or adopts one left open by a declined fusion submit — and samples the
// virtual clock.
func (d *Device) traceDirectBegin(span trace.SpanID, name string) (trace.SpanID, time.Duration) {
	if d.tr == nil {
		return 0, 0
	}
	if span == 0 {
		span = d.tr.Start(d.trParent, name)
	}
	return span, d.Clock()
}

// traceDirectEnd closes a direct dispatch span with the clock interval the
// dispatch spanned. Under concurrent views the interval can include other
// views' charges (the clock is shared); for a query run in isolation it is
// exactly this dispatch's cost, which is what the determinism tests pin.
func (d *Device) traceDirectEnd(span trace.SpanID, v0 time.Duration, seqs, requested, tokens int) {
	if d.tr == nil || span == 0 {
		return
	}
	d.tr.SetVDev(span, v0, d.Clock())
	d.tr.Annotate(span, "fused", "false")
	d.annotateRows(span, seqs, requested, tokens)
	d.tr.End(span)
}

// annotateRows records what a dispatch carried: the rows (and their tokens)
// it computed, and — when the resident probe answered part of the call — how
// many rows the caller asked for, so a trace explains why a 12-node round
// dispatched 3 rows. A fully resident call opens no device span at all;
// residentFirst counts its rows on the parent span as resident_rows.
func (d *Device) annotateRows(span trace.SpanID, seqs, requested, tokens int) {
	d.tr.Annotate(span, "rows", strconv.Itoa(seqs))
	if requested != seqs {
		d.tr.Annotate(span, "requested", strconv.Itoa(requested))
	}
	d.tr.Annotate(span, "tokens", strconv.Itoa(tokens))
}

// countTokens sums context lengths for span annotations. Called on traced
// paths only.
func countTokens(ctxs [][]model.Token) int {
	n := 0
	for _, c := range ctxs {
		n += len(c)
	}
	return n
}
