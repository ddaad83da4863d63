// Package trace is the query-path observability layer (DESIGN.md decision
// 16): per-query structured span trees, per-stage latency histograms, and
// export as NDJSON (the /v1/trace endpoints), Prometheus text (/metrics),
// and Chrome trace-event JSON (flamegraph viewers).
//
// Two clocks. Every span carries a virtual-device interval — read from the
// simulated accelerator's deterministic clock — and wall timestamps. The
// vdev fields are what tests and the ROADMAP item-4 cost planner consume:
// for a query run in isolation they are a pure function of (model, plan,
// knobs), so two runs produce identical span trees (names, parentage, vdev
// durations). Wall fields and cross-query attributes (fusion-batch ids,
// queue waits) depend on scheduling and are explicitly outside the
// determinism guarantee.
//
// Cost discipline. A disabled tracer is a nil pointer and every method on
// *Tracer and *Trace is nil-safe, so instrumented hot paths pay one
// predictable nil check and zero allocations when tracing is off
// (TestTraceOverheadGate pins this). Wall-clock reads live only inside
// this package, keeping the determinism-vetted packages (engine, relm)
// free of time.Now.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SpanID identifies a span within one trace. 0 means "no span": it is the
// root's Parent and the id returned by every method on a nil trace, so
// instrumentation can thread ids around without caring whether tracing is
// on.
type SpanID int32

// RootID is the id of the root "query" span every trace starts with.
const RootID SpanID = 1

// maxSpans bounds one trace's span count so an unbounded traversal (a
// sampler drawing thousands of attempts, say) cannot grow a trace without
// limit. Starts past the cap are dropped and counted.
const maxSpans = 4096

// DefaultRing is the bounded trace-store capacity: how many finished
// traces a Tracer retains for /v1/trace.
const DefaultRing = 256

// Attr is one key=value annotation on a span (fusion-batch membership,
// cache-hit flags, row counts, ...). Values are strings so the span
// struct stays flat and JSON-stable.
type Attr struct {
	Key string `json:"k"`
	Val string `json:"v"`
}

// Span is one timed stage of a query: plan compile, a frontier-expansion
// round, a device dispatch, a KV acquire, a stream emit.
type Span struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent"` // 0 for the root
	Name   string `json:"name"`
	// VStartUS/VEndUS are the virtual-device clock (µs) when the span's
	// device work began and ended; both zero for spans that charge no
	// device time (plan compile, emits). Deterministic for a query run in
	// isolation.
	VStartUS int64 `json:"vdev_start_us"`
	VEndUS   int64 `json:"vdev_end_us"`
	// WallStartNS/WallEndNS are wall-clock nanoseconds since the trace
	// began. Excluded from determinism guarantees.
	WallStartNS int64  `json:"wall_start_ns"`
	WallEndNS   int64  `json:"wall_end_ns"`
	Attrs       []Attr `json:"attrs,omitempty"`
}

// VDev returns the span's virtual-device duration (zero for host-only
// spans).
func (s *Span) VDev() time.Duration {
	return time.Duration(s.VEndUS-s.VStartUS) * time.Microsecond
}

// Wall returns the span's wall duration.
func (s *Span) Wall() time.Duration {
	return time.Duration(s.WallEndNS - s.WallStartNS)
}

// dur is the duration the stage histograms observe: the vdev interval when
// the span recorded one, else wall time (compile and emit spans are
// host-side work with no device charge).
func (s *Span) dur() time.Duration {
	if s.VEndUS > s.VStartUS {
		return s.VDev()
	}
	return s.Wall()
}

// Attr returns the value of the first attribute named key ("" if absent).
func (s *Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Trace is one query's span tree while the query runs. All methods are
// nil-safe no-ops on a nil receiver and safe for concurrent use — engine
// worker pools and the HTTP emit loop append spans from different
// goroutines.
type Trace struct {
	tracer *Tracer
	id     string
	began  time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
	data    *Data // set once by Finish
}

// ID returns the trace id ("" on a nil trace). Valid from creation, so a
// serving layer can stamp it into its done event before the trace
// finishes.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start opens a span under parent and returns its id (0 on a nil trace or
// once the span cap is reached).
func (t *Trace) Start(parent SpanID, name string) SpanID {
	if t == nil {
		return 0
	}
	now := time.Since(t.began).Nanoseconds()
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, WallStartNS: now})
	t.mu.Unlock()
	return id
}

// Annotate appends a key=value attribute to the span.
func (t *Trace) Annotate(id SpanID, key, val string) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	if i := int(id) - 1; i < len(t.spans) {
		t.spans[i].Attrs = append(t.spans[i].Attrs, Attr{Key: key, Val: val})
	}
	t.mu.Unlock()
}

// AddCount adds n to the span's integer attribute key, creating it at n.
// For tallies a span accumulates over many events (rows the logit cache
// answered under one round) — Annotate would append one attribute per
// event, and a sampler makes thousands under a single parent.
func (t *Trace) AddCount(id SpanID, key string, n int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	i := int(id) - 1
	if i >= len(t.spans) {
		return
	}
	attrs := t.spans[i].Attrs
	for j := range attrs {
		if attrs[j].Key == key {
			prev, _ := strconv.Atoi(attrs[j].Val)
			attrs[j].Val = strconv.Itoa(prev + n)
			return
		}
	}
	t.spans[i].Attrs = append(attrs, Attr{Key: key, Val: strconv.Itoa(n)})
}

// SetVDev records the span's virtual-device interval. Callers read the
// device clock around the work they are timing.
func (t *Trace) SetVDev(id SpanID, start, end time.Duration) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	if i := int(id) - 1; i < len(t.spans) {
		t.spans[i].VStartUS = start.Microseconds()
		t.spans[i].VEndUS = end.Microseconds()
	}
	t.mu.Unlock()
}

// End closes the span (stamping its wall end) and feeds the stage
// histogram for its name.
func (t *Trace) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.began).Nanoseconds()
	var name string
	var d time.Duration
	t.mu.Lock()
	if i := int(id) - 1; i < len(t.spans) {
		sp := &t.spans[i]
		if sp.WallEndNS == 0 {
			sp.WallEndNS = now
			name = sp.Name
			d = sp.dur()
		}
	}
	t.mu.Unlock()
	if name != "" {
		t.tracer.observe(name, d)
	}
}

// Finish closes the trace: the root span is ended, the span tree is
// frozen into a Data snapshot, and the snapshot is published to the
// tracer's ring store. Idempotent and safe from any goroutine; later
// calls return the same Data.
func (t *Trace) Finish() *Data {
	if t == nil {
		return nil
	}
	t.End(RootID) // no-op if the root was already ended
	t.mu.Lock()
	if t.data != nil {
		d := t.data
		t.mu.Unlock()
		return d
	}
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.data = &Data{ID: t.id, Began: t.began, Spans: spans, DroppedSpans: t.dropped}
	d := t.data
	t.mu.Unlock()
	t.tracer.publish(d)
	return d
}

// Data is a finished trace: an immutable span-tree snapshot.
type Data struct {
	ID    string    `json:"id"`
	Began time.Time `json:"began"`
	// DroppedSpans counts Start calls refused by the per-trace span cap.
	DroppedSpans int    `json:"dropped_spans,omitempty"`
	Spans        []Span `json:"spans"`
}

// Root returns the root span (nil if the trace is empty).
func (d *Data) Root() *Span {
	if d == nil || len(d.Spans) == 0 {
		return nil
	}
	return &d.Spans[0]
}

// Find returns every span with the given name, in start order.
func (d *Data) Find(name string) []*Span {
	if d == nil {
		return nil
	}
	var out []*Span
	for i := range d.Spans {
		if d.Spans[i].Name == name {
			out = append(out, &d.Spans[i])
		}
	}
	return out
}

// Summary is the compact form /v1/trace lists.
type Summary struct {
	ID     string    `json:"id"`
	Began  time.Time `json:"began"`
	Spans  int       `json:"spans"`
	WallUS int64     `json:"wall_us"`
	VDevUS int64     `json:"vdev_us"` // root vdev interval
	Query  string    `json:"query,omitempty"`
}

// Summarize builds the listing row for the trace.
func (d *Data) Summarize() Summary {
	s := Summary{ID: d.ID, Began: d.Began, Spans: len(d.Spans)}
	if r := d.Root(); r != nil {
		s.WallUS = r.Wall().Microseconds()
		s.VDevUS = r.VDev().Microseconds()
		s.Query = r.Attr("pattern")
	}
	return s
}

// WriteNDJSON writes the trace as newline-delimited JSON: a header object
// (id, began, span count) followed by one span per line. The shape the
// /v1/trace/{id} endpoint serves.
func (d *Data) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	hdr := struct {
		ID      string    `json:"id"`
		Began   time.Time `json:"began"`
		Spans   int       `json:"spans"`
		Dropped int       `json:"dropped_spans,omitempty"`
	}{d.ID, d.Began, len(d.Spans), d.DroppedSpans}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i := range d.Spans {
		if err := enc.Encode(&d.Spans[i]); err != nil {
			return err
		}
	}
	return nil
}

// Tracer owns a model's tracing state: the sampling decision, the bounded
// ring of finished traces, and the per-stage latency histograms. A nil
// Tracer is the disabled state; every method no-ops.
type Tracer struct {
	rate float64

	mu      sync.Mutex
	prefix  string
	acc     float64 // sampling accumulator (deterministic, counter-based)
	seq     int64
	sampled int64
	skipped int64
	ring    []*Data
	next    int
	stored  int64

	hmu   sync.Mutex
	hists map[string]*hist
}

// New builds a tracer sampling the given fraction of queries into a ring
// of ringCap finished traces. rate 0 means the default (1.0: every
// query); negative disables tracing entirely and returns nil — matching
// the repo's 0-default / negative-disable option convention. ringCap <= 0
// takes DefaultRing.
func New(rate float64, ringCap int) *Tracer {
	if rate < 0 {
		return nil
	}
	if rate == 0 || rate > 1 {
		rate = 1
	}
	if ringCap <= 0 {
		ringCap = DefaultRing
	}
	return &Tracer{
		rate:   rate,
		prefix: "q",
		ring:   make([]*Data, ringCap),
		hists:  map[string]*hist{},
	}
}

// SetIDPrefix names the trace-id namespace (a serving layer uses the model
// name, so ids are unique across a multi-model registry). Call before
// serving traffic.
func (tr *Tracer) SetIDPrefix(p string) {
	if tr == nil || p == "" {
		return
	}
	tr.mu.Lock()
	tr.prefix = p
	tr.mu.Unlock()
}

// NewTrace makes the sampling decision for one query: it returns a live
// trace (rooted at a "query" span) for sampled queries and nil otherwise.
// Sampling is deterministic — an accumulator advances by the rate per
// query and a trace is taken each time it crosses 1 — so a fixed query
// sequence always samples the same queries, without consulting a
// randomness source.
func (tr *Tracer) NewTrace() *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	tr.acc += tr.rate
	if tr.acc < 1 {
		tr.skipped++
		tr.mu.Unlock()
		return nil
	}
	tr.acc--
	tr.seq++
	tr.sampled++
	id := fmt.Sprintf("%s-%d", tr.prefix, tr.seq)
	tr.mu.Unlock()
	t := &Trace{tracer: tr, id: id, began: time.Now()}
	t.spans = append(t.spans, Span{ID: RootID, Name: "query"})
	return t
}

// publish inserts a finished trace into the ring, evicting the oldest.
func (tr *Tracer) publish(d *Data) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.ring[tr.next] = d
	tr.next = (tr.next + 1) % len(tr.ring)
	tr.stored++
	tr.mu.Unlock()
}

// Recent returns up to n finished traces, newest first (n <= 0: all
// retained).
func (tr *Tracer) Recent(n int) []*Data {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if n <= 0 || n > len(tr.ring) {
		n = len(tr.ring)
	}
	out := make([]*Data, 0, n)
	for i := 1; i <= len(tr.ring) && len(out) < n; i++ {
		d := tr.ring[(tr.next-i+len(tr.ring))%len(tr.ring)]
		if d != nil {
			out = append(out, d)
		}
	}
	return out
}

// Get returns the retained trace with the given id, or nil. The ring is
// small (DefaultRing), so a linear scan suffices.
func (tr *Tracer) Get(id string) *Data {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, d := range tr.ring {
		if d != nil && d.ID == id {
			return d
		}
	}
	return nil
}

// Counts reports sampling activity: queries traced, queries skipped by the
// sampling rate, and traces currently retained vs published overall.
type Counts struct {
	Sampled  int64 `json:"sampled" metric:"relm_trace_sampled_total,counter,Queries recorded as traces."`
	Skipped  int64 `json:"skipped" metric:"relm_trace_skipped_total,counter,Queries skipped by the trace sampling rate."`
	Stored   int64 `json:"stored" metric:"relm_trace_stored_total,counter,Traces published to the ring."`
	Retained int   `json:"retained" metric:"relm_trace_retained,gauge,Traces currently retained for /v1/trace."`
}

// Counts snapshots the tracer's sampling counters.
func (tr *Tracer) Counts() Counts {
	if tr == nil {
		return Counts{}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	c := Counts{Sampled: tr.sampled, Skipped: tr.skipped, Stored: tr.stored}
	for _, d := range tr.ring {
		if d != nil {
			c.Retained++
		}
	}
	return c
}

// StageTotal is one stage's aggregate: how many spans ended with that name
// and their cumulative duration (vdev where recorded, else wall). The
// jobs layer snapshots these around a run to embed per-suite stage
// breakdowns into the ledger, and ROADMAP item 4's planner reads them as
// observed stage costs.
type StageTotal struct {
	Count int64 `json:"count"`
	DurUS int64 `json:"dur_us"`
}

// StageTotals snapshots the per-stage aggregates (nil map on a nil
// tracer).
func (tr *Tracer) StageTotals() map[string]StageTotal {
	if tr == nil {
		return nil
	}
	tr.hmu.Lock()
	defer tr.hmu.Unlock()
	out := make(map[string]StageTotal, len(tr.hists))
	for name, h := range tr.hists {
		out[name] = StageTotal{Count: int64(h.count.Load()), DurUS: int64(h.sumUS.Load())}
	}
	return out
}

// stageNames returns the observed stage names, sorted, for deterministic
// exposition order.
func (tr *Tracer) stageNames() []string {
	tr.hmu.Lock()
	defer tr.hmu.Unlock()
	out := make([]string, 0, len(tr.hists))
	for name := range tr.hists {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// observe feeds one ended span into its stage histogram.
func (tr *Tracer) observe(stage string, d time.Duration) {
	if tr == nil || stage == "" {
		return
	}
	tr.hmu.Lock()
	h := tr.hists[stage]
	if h == nil {
		h = &hist{}
		tr.hists[stage] = h
	}
	tr.hmu.Unlock()
	h.observe(d)
}
