package device

import (
	"strconv"

	"repro/internal/trace"
)

// Dispatch tracing. A traced view records one span per dispatch —
// "device.forward", "device.prefill", "device.extend", "device.scoreall"
// — carrying the virtual-clock interval the dispatch charged plus, when it
// rode the fusion queue, the batcher's record of the ride: queue wait,
// fusion-batch ids, and cross-query occupancy. Untraced views (the common
// case) pay one nil check per dispatch and allocate nothing; the overhead
// gate pins this.

// WithTrace returns a view whose dispatches record spans into tr, parented
// under parent. Same model and shared core as the receiver.
func (d *Device) WithTrace(tr *trace.Trace, parent trace.SpanID) *Device {
	return &Device{lm: d.lm, c: d.c, tr: tr, trParent: parent}
}

// TraceContext returns the view's trace and parent span id (nil, 0 when
// untraced). Layers above the device — the engine's KV bookkeeping — use
// it to hang sibling spans off the same parent.
func (d *Device) TraceContext() (*trace.Trace, trace.SpanID) { return d.tr, d.trParent }

// traceStart opens a dispatch span before the request takes either route (so
// its wall time covers any queue wait) and arms the request's trace record,
// which core.run and the scheduler fill in.
func (d *Device) traceStart(name string, r *request) trace.SpanID {
	if d.tr == nil {
		return 0
	}
	r.trace = &reqTrace{}
	return d.tr.Start(d.trParent, name)
}

// traceEnd closes a dispatch span from the request's record: the virtual-
// clock interval its own batches charged, what it carried — rows, their
// tokens, and, when the resident probe answered part of the call, how many
// rows the caller asked for (a fully resident call opens no device span;
// residentFirst counts its rows on the parent as resident_rows) — and, when
// it rode the fusion queue, the scheduler's side of the ride; a failed
// request is annotated "error" with its first failure. The record is
// complete before either route returns (the scheduler writes it before it
// closes the request's done channel), so reading it here is race-free.
func (d *Device) traceEnd(span trace.SpanID, r *request, fused bool, requested int) {
	if d.tr == nil {
		return
	}
	rt := r.trace
	if rt.hasV {
		d.tr.SetVDev(span, rt.vstart, rt.vend)
	}
	d.tr.Annotate(span, "fused", strconv.FormatBool(fused))
	if fused {
		for _, bid := range rt.batches {
			d.tr.Annotate(span, "fusion_batch", strconv.FormatInt(bid, 10))
		}
		d.tr.Annotate(span, "queue_wait_us", strconv.FormatInt(rt.waitUS, 10))
		d.tr.Annotate(span, "batch_queries", strconv.Itoa(rt.occupancy))
	}
	rows, tokens := r.rowCount(), 0
	for i := 0; i < rows; i++ {
		tokens += r.tokensAt(i)
	}
	d.tr.Annotate(span, "rows", strconv.Itoa(rows))
	if requested != rows {
		d.tr.Annotate(span, "requested", strconv.Itoa(requested))
	}
	d.tr.Annotate(span, "tokens", strconv.Itoa(tokens))
	if r.err != nil {
		d.tr.Annotate(span, "error", r.err.Error())
	}
	d.tr.End(span)
}
