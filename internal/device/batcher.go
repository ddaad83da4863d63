package device

import (
	"fmt"
	"slices"
	"sync"
	"time"
	"unsafe"

	"repro/internal/fault"
	"repro/internal/model"
)

// Continuous cross-query batching (DESIGN.md decision 12). A loaded server
// runs many queries against one device, but each query builds its own
// ScoreBatch/Prefill/ExtendBatch waves — at high concurrency the device
// executes many half-full forwards, each paying the full dispatch overhead.
// The Batcher is a fusion queue between the engines and the device core:
// every view's scoring request (Device.dispatch) is queued, a scheduler
// collects requests from all in-flight queries inside a short admission
// window, and packs their rows into shared forwards up to the device batch
// cap. One fused batch pays one dispatch for rows from many queries. Rows the
// view's logit cache already holds never reach the queue: Forward and
// ScoreAll answer them before dispatch (residentFirst), so a cache-served
// round does not sit out an admission window it has nothing to put into.
//
// Fusion preserves byte-identical result streams by construction: a fused
// batch and an inline chunk execute through the same core.run and the same
// segment.exec (ScoreBatch on sub-slices, Prefill, Extend,
// AllPositionLogProbs) — the scheduler changes only when and with whom a row
// shares a dispatch, never what is computed. The device already relies on
// this row-independence to shard a batch across the worker pool; the batcher
// extends the same invariant across queries. Per-query cache and KV
// attribution survive because every request scores through the view that
// submitted it.
//
// Scheduling policy:
//
//   - Admission window: the first pending request opens a time window
//     (StartBatcher's window); the queue flushes when the window expires,
//     when pending rows reach the device batch cap (size watermark), or when
//     an urgent request arrives.
//   - Deadline awareness: a request whose QoS deadline is within urgentSlack
//     preempts the window and is packed first (earliest deadline first), so
//     a query near its deadline_ms budget jumps the queue instead of waiting
//     behind bulk work.
//   - Fair share: rows are drawn from per-query FIFO queues by
//     deficit-style selection — the query with the fewest rows served so
//     far goes first, at most quantum rows per pick — so a flood of cheap
//     queries cannot starve an expensive one, and a query joining the
//     contention inherits the current service floor rather than a blank
//     credit balance.
type Batcher struct {
	core *core
	// The scheduling settings. Outside white-box tests, which change them on
	// a bare batcher, only window varies: the others hold the constants of
	// the same names.
	window      time.Duration
	urgentSlack time.Duration
	quantum     int

	mu     sync.Mutex
	queues map[account]*queryQueue
	active []*queryQueue // queues with pending requests, insertion order
	rows   int           // pending rows across all queues
	closed bool

	// counters (guarded by mu)
	fusedBatches    int64
	requests        int64
	rowsFused       int64
	multiQuery      int64
	windowFlushes   int64
	sizeFlushes     int64
	urgentFlushes   int64
	drainFlushes    int64
	peakQueueDepth  int
	fairnessDeficit int64

	wake      chan struct{}
	closeCh   chan struct{}
	exited    chan struct{}
	closeOnce sync.Once
}

const (
	// defaultWindow is the admission window StartBatcher takes for a window
	// <= 0: how long the scheduler holds the first pending request hoping
	// more queries contribute rows before it flushes a partial batch.
	defaultWindow = 200 * time.Microsecond
	// urgentSlack is the deadline proximity that makes a request urgent: a
	// QoS deadline within this much of now preempts the admission window and
	// jumps the fairness order.
	urgentSlack = 250 * time.Millisecond
	// quantum caps rows taken from one query per fairness pick, bounding how
	// far one query's large request can push others out of a single fused
	// batch. Urgent picks ignore it.
	quantum = 8
)

// BatcherStats snapshots the fusion counters. The JSON names are the ones
// GET /v1/stats serves.
type BatcherStats struct {
	// FusedBatches counts dispatched fused batches; Requests and Rows count
	// what went into them. MeanOccupancy is Rows/FusedBatches — the packing
	// win the batcher exists for.
	FusedBatches  int64   `json:"fused_batches" metric:"relm_batcher_fused_batches_total,counter,Fused batches executed."`
	Requests      int64   `json:"requests" metric:"-"`
	Rows          int64   `json:"fused_rows" metric:"relm_batcher_fused_rows_total,counter,Rows executed through fused batches."`
	MeanOccupancy float64 `json:"mean_occupancy" metric:"relm_batcher_mean_occupancy,gauge,Mean rows per fused batch."`
	// MultiQueryBatches counts fused batches that mixed rows from more than
	// one query — the cross-query fusion the per-query path can never do.
	MultiQueryBatches int64 `json:"multi_query_batches" metric:"relm_batcher_multi_query_batches_total,counter,Fused batches holding >1 query."`
	// QueueDepth is the number of rows pending right now; PeakQueueDepth is
	// the high-water mark.
	QueueDepth     int `json:"queue_depth" metric:"relm_batcher_queue_depth,gauge,Rows waiting in the admission queue."`
	PeakQueueDepth int `json:"peak_queue_depth" metric:"relm_batcher_peak_queue_depth,gauge,Peak rows waiting in the admission queue."`
	// Flush-reason counters: window expiry, size watermark, deadline
	// preemption, and close-time drain.
	WindowFlushes int64 `json:"window_flushes" metric:"relm_batcher_window_flushes_total,counter,Batches flushed by the fusion window."`
	SizeFlushes   int64 `json:"size_flushes" metric:"relm_batcher_size_flushes_total,counter,Batches flushed at the size limit."`
	UrgentFlushes int64 `json:"urgent_flushes" metric:"relm_batcher_urgent_flushes_total,counter,Batches flushed for deadline urgency."`
	DrainFlushes  int64 `json:"drain_flushes" metric:"-"`
	// FairnessDeficit is the served-row spread (max-min) across the queries
	// that were still contending after the last selection — 0 means perfectly
	// even service.
	FairnessDeficit int64 `json:"fairness_deficit" metric:"relm_batcher_fairness_deficit,gauge,Fair-share deficit across accounts."`
}

// queryQueue is one query's FIFO of pending requests plus its fair-share
// account. The FIFO is intrusive — head to tail through each request's link —
// so queueing a request allocates nothing. It holds a request only while the
// request has rows not yet packed into a batch; an idle account has a nil
// head and tail and keeps only key, served and the id of the last batch it
// had rows in.
type queryQueue struct {
	key        account
	served     int64
	batch      int64
	head, tail *request
}

// account names a fair-share principal: a QoS query, or, for a view with
// none, the view itself. The view is kept as its address, a number, so an
// idle account never holds it alive.
type account struct {
	query string
	view  uintptr
}

type reqKind int

const (
	reqForward reqKind = iota
	reqPrefill
	reqExtend
	reqScoreAll
)

// request is the description of one dispatch: one view's scoring call, as
// rows that may be spread across several batches — fused ones picked by the
// scheduler while the submitting goroutine blocks on done, or MaxBatch chunks
// cut by the inline route on the caller's own goroutine.
type request struct {
	kind reqKind
	lm   model.LanguageModel
	qos  QoS
	key  account
	enq  time.Time

	ctxs   [][]model.Token     // forward / prefill / scoreAll inputs
	states []model.DecodeState // extend inputs
	tokens []model.Token       // extend inputs

	rows      [][]float64         // forward / prefill / extend outputs
	outStates []model.DecodeState // prefill / extend outputs
	allRows   [][][]float64       // scoreAll outputs

	next      int      // rows handed to fused batches so far
	link      *request // the next request in its query's queue
	remaining int      // rows not yet executed
	done      chan struct{}

	// trace, when non-nil, is the executing side's record of a traced view's
	// dispatch. On the fused route the scheduler goroutine writes it before
	// close(done) and the submitting goroutine reads it after <-done — the
	// channel close is the publication barrier.
	trace *reqTrace

	err error      // first failure: a fused batch's fault or a row's *ModelPanic
	mu  sync.Mutex // orders fail's writes; err is read once every row has run
}

// reqTrace records what was observed for one traced request: the virtual-
// clock interval the carrying batch(es) charged and their highest cross-query
// occupancy (core.run), and on the fused route the queue wait at first
// selection and the fusion-batch ids its rows rode in (selectLocked).
type reqTrace struct {
	waitUS    int64
	batches   []int64
	occupancy int
	vstart    time.Duration
	vend      time.Duration
	hasV      bool
}

func (r *request) rowCount() int {
	if r.kind == reqExtend {
		return len(r.states)
	}
	return len(r.ctxs)
}

// tokensAt prices row i: full context for forward/prefill/scoreAll rows, one
// token for an extend row.
func (r *request) tokensAt(i int) int {
	if r.kind == reqExtend {
		return 1
	}
	return len(r.ctxs[i])
}

// fail records err as the request's failure unless it already has one.
func (r *request) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// StartBatcher attaches a fusion scheduler with the given admission window
// (<= 0: 200µs) to the device (all views of the device route through it) and
// starts its scheduler goroutine. A larger window fuses better under low
// concurrency at the price of per-round latency; the size watermark and
// urgent requests always preempt it. Close detaches and stops it. One
// batcher serves one device.
func StartBatcher(d *Device, window time.Duration) *Batcher {
	b := newBatcher(d, window)
	d.c.batcher.Store(b)
	go b.run()
	return b
}

// newBatcher builds a batcher over the device's core without attaching it or
// starting its scheduler.
func newBatcher(d *Device, window time.Duration) *Batcher {
	if window <= 0 {
		window = defaultWindow
	}
	return &Batcher{
		core:        d.c,
		window:      window,
		urgentSlack: urgentSlack,
		quantum:     quantum,
		queues:      map[account]*queryQueue{},
		wake:        make(chan struct{}, 1),
		closeCh:     make(chan struct{}),
		exited:      make(chan struct{}),
	}
}

// Close detaches the batcher from its device, drains every pending request,
// and stops the scheduler goroutine. Calls that arrive after Close run
// inline, so shutdown never strands a query.
// Safe to call multiple times and concurrently with submissions.
func (b *Batcher) Close() {
	b.core.batcher.CompareAndSwap(b, nil)
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.closeOnce.Do(func() { close(b.closeCh) })
	<-b.exited
}

// Stats snapshots the fusion counters.
func (b *Batcher) Stats() BatcherStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := BatcherStats{
		FusedBatches:      b.fusedBatches,
		Requests:          b.requests,
		Rows:              b.rowsFused,
		MultiQueryBatches: b.multiQuery,
		QueueDepth:        b.rows,
		PeakQueueDepth:    b.peakQueueDepth,
		WindowFlushes:     b.windowFlushes,
		SizeFlushes:       b.sizeFlushes,
		UrgentFlushes:     b.urgentFlushes,
		DrainFlushes:      b.drainFlushes,
		FairnessDeficit:   b.fairnessDeficit,
	}
	if s.FusedBatches > 0 {
		s.MeanOccupancy = float64(s.Rows) / float64(s.FusedBatches)
	}
	return s
}

// submit enqueues the view's request and blocks until every row has
// executed. It reports false without executing anything when the batcher is
// closed — the caller then runs the request inline.
func (b *Batcher) submit(d *Device, r *request) bool {
	n := r.rowCount()
	if n == 0 {
		return true
	}
	r.enq = time.Now()
	r.remaining = n
	r.done = make(chan struct{})
	r.key = account{query: r.qos.Query}
	if r.key.query == "" {
		// No explicit identity: each view (one per session/query) is its own
		// fairness principal.
		r.key.view = uintptr(unsafe.Pointer(d))
	}
	if !b.enqueue(r) {
		return false
	}
	select {
	case b.wake <- struct{}{}:
	default:
	}
	<-r.done
	return true
}

// enqueue adds the request to its query's FIFO. Split from submit so tests
// can drive the selection logic deterministically.
func (b *Batcher) enqueue(r *request) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return false
	}
	q := b.queues[r.key]
	if q == nil {
		q = &queryQueue{key: r.key}
		b.queues[r.key] = q
	}
	if q.head == nil {
		// Joining the contention: inherit the current service floor so an
		// idle query neither monopolizes the device with banked credit nor
		// starts in debt against long-running queries.
		if floor, _ := b.servedRangeLocked(); q.served < floor {
			q.served = floor
		}
		b.active = append(b.active, q)
	}
	if q.head == nil {
		q.head = r
	} else {
		q.tail.link = r
	}
	q.tail = r
	b.rows += r.rowCount()
	b.requests++
	if b.rows > b.peakQueueDepth {
		b.peakQueueDepth = b.rows
	}
	// Bound the idle-account map: queues with no pending work only carry a
	// served counter, prune them once the map grows past any plausible
	// concurrency level.
	if len(b.queues) > 4096 {
		for k, qq := range b.queues {
			if qq.head == nil {
				delete(b.queues, k)
			}
		}
	}
	return true
}

// servedRangeLocked reports the fewest and most rows served among the queries
// with pending work (0, 0 when there are none).
func (b *Batcher) servedRangeLocked() (lo, hi int64) {
	for i, q := range b.active {
		if i == 0 || q.served < lo {
			lo = q.served
		}
		if i == 0 || q.served > hi {
			hi = q.served
		}
	}
	return lo, hi
}

func (b *Batcher) removeActiveLocked(q *queryQueue) {
	if i := slices.Index(b.active, q); i >= 0 {
		b.active = slices.Delete(b.active, i, i+1) // clears the vacated tail slot
	}
}

// oldestLocked returns the earliest enqueue time among pending requests
// (each queue is FIFO, so heads suffice).
func (b *Batcher) oldestLocked() time.Time {
	var oldest time.Time
	for _, q := range b.active {
		if t := q.head.enq; oldest.IsZero() || t.Before(oldest) {
			oldest = t
		}
	}
	return oldest
}

// run is the scheduler loop: wait for work, hold the admission window, then
// select and execute one fused batch per iteration. One timer serves every
// wait and one batch every dispatch.
func (b *Batcher) run() {
	var fb batch
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		b.mu.Lock()
		if b.rows == 0 {
			closed := b.closed
			b.mu.Unlock()
			if closed {
				close(b.exited)
				return
			}
			select {
			case <-b.wake:
			case <-b.closeCh:
			}
			continue
		}
		now := time.Now()
		full := b.rows >= b.core.maxBatch
		urgent := b.mostUrgentLocked(now) != nil
		if !full && !urgent && !b.closed {
			if age := now.Sub(b.oldestLocked()); age < b.window {
				b.mu.Unlock()
				timer.Reset(b.window - age)
				select {
				case <-b.wake:
				case <-timer.C:
				case <-b.closeCh:
				}
				timer.Stop()
				continue
			}
		}
		switch {
		case urgent:
			b.urgentFlushes++
		case full:
			b.sizeFlushes++
		case b.closed:
			b.drainFlushes++
		default:
			b.windowFlushes++
		}
		b.selectLocked(&fb, now, b.core.maxBatch)
		b.mu.Unlock()
		b.execute(&fb)
	}
}

// segment is a contiguous row range of one request packed into a batch.
type segment struct {
	req    *request
	lo, hi int
}

// batch is what one device dispatch executes (core.run): row segments of one
// or more requests, priced together. The scheduler reuses one batch, so its
// shards (split) and its wait on them (runShards) are kept with it.
type batch struct {
	segs    []segment
	rows    int
	tokens  int
	queries int

	pieces []segment
	wg     *sync.WaitGroup // nil until the batch first runs in shards
}

// reset empties the batch for the next dispatch. It lets go of every
// request the batch held, so nothing outlives its dispatch.
func (b *batch) reset() {
	clear(b.segs)
	clear(b.pieces)
	b.segs, b.pieces = b.segs[:0], b.pieces[:0]
	b.rows, b.tokens, b.queries = 0, 0, 0
}

func (b *batch) add(sg segment) {
	b.segs = append(b.segs, sg)
	b.rows += sg.hi - sg.lo
	for i := sg.lo; i < sg.hi; i++ {
		b.tokens += sg.req.tokensAt(i)
	}
}

// selectLocked packs up to cap rows into fb, an empty batch, as one fused
// batch. Urgent requests go first (earliest deadline), then deficit
// fair-share across queries.
func (b *Batcher) selectLocked(fb *batch, now time.Time, cap int) {
	id := b.fusedBatches + 1 // this batch's: the counter increments when selection completes
	for fb.rows < cap && b.rows > 0 {
		q, urgent := b.pickLocked(now)
		r := q.head
		take := r.rowCount() - r.next
		if room := cap - fb.rows; take > room {
			take = room
		}
		if !urgent && take > b.quantum {
			take = b.quantum
		}
		lo := r.next
		hi := lo + take
		r.next = hi
		if rt := r.trace; rt != nil {
			if lo == 0 {
				rt.waitUS = now.Sub(r.enq).Microseconds()
			}
			// Dedupe: the fair-share loop can pick the same request twice for
			// one batch.
			if len(rt.batches) == 0 || rt.batches[len(rt.batches)-1] != id {
				rt.batches = append(rt.batches, id)
			}
		}
		fb.add(segment{req: r, lo: lo, hi: hi})
		if q.batch != id {
			q.batch = id
			fb.queries++
		}
		q.served += int64(take)
		b.rows -= take
		if r.next == r.rowCount() {
			// Every row is packed, so the batch being built is the request's
			// last holder. Unlink it both ways: a queue still pointing at it,
			// or it at the next, would keep a request — its rows, decode
			// states and model view — alive past its dispatch.
			q.head, r.link = r.link, nil
			if q.head == nil {
				q.tail = nil
				b.removeActiveLocked(q)
			}
		}
	}
	// Fairness telemetry: the service spread among queries still contending.
	lo, hi := b.servedRangeLocked()
	b.fairnessDeficit = hi - lo
	b.fusedBatches++
	b.rowsFused += int64(fb.rows)
	if fb.queries > 1 {
		b.multiQuery++
	}
}

// mostUrgentLocked returns the queue holding the request with the earliest
// QoS deadline within urgentSlack of now, or nil when no request is urgent.
func (b *Batcher) mostUrgentLocked(now time.Time) *queryQueue {
	var uq *queryQueue
	var ud time.Time
	for _, q := range b.active {
		for r := q.head; r != nil; r = r.link {
			if d := r.qos.Deadline; !d.IsZero() && d.Sub(now) <= b.urgentSlack && (uq == nil || d.Before(ud)) {
				uq, ud = q, d
			}
		}
	}
	return uq
}

// pickLocked chooses the queue to draw rows from next: the most urgent queue
// when any request is urgent, otherwise the least-served queue (ties go to
// arrival order). Within a queue, requests are served FIFO.
func (b *Batcher) pickLocked(now time.Time) (*queryQueue, bool) {
	if uq := b.mostUrgentLocked(now); uq != nil {
		return uq, true
	}
	best := b.active[0]
	for _, q := range b.active[1:] {
		if q.served < best.served {
			best = q
		}
	}
	return best, false
}

// execute runs one fused batch through the device's executor (core.run),
// completes requests whose last rows just executed, waking their submitting
// goroutines, and empties the batch. A row's panic fails only the request
// that owns the row. An injected batcher.execute failure fails the dispatch
// itself: every request in the batch gets the fault as its error, and
// nothing is charged or scored. Either way the batch's outcome reaches its
// own requests and no others.
func (b *Batcher) execute(fb *batch) {
	f := fault.Hit(fault.BatcherExecute)
	if f != nil && f.Latency > 0 {
		b.core.idle(f.Latency)
	}
	if f.Failure() {
		for _, sg := range fb.segs {
			sg.req.fail(f)
		}
	} else {
		b.core.run(fb)
	}
	for _, sg := range fb.segs {
		r := sg.req
		r.remaining -= sg.hi - sg.lo
		if r.remaining == 0 {
			close(r.done)
		}
	}
	fb.reset()
}

// split cuts the batch's segments into at most ~workers pieces of roughly
// even row counts, in the batch's own pieces slice; the pieces write
// disjoint slots of their requests, so the merge needs no locking.
func (b *batch) split(workers int) []segment {
	if workers = min(workers, b.rows); workers <= 1 {
		return b.segs
	}
	per := (b.rows + workers - 1) / workers
	out := b.pieces[:0]
	for _, sg := range b.segs {
		for lo := sg.lo; lo < sg.hi; lo += per {
			out = append(out, segment{req: sg.req, lo: lo, hi: min(lo+per, sg.hi)})
		}
	}
	b.pieces = out
	return out
}

// runShards executes the pieces on the persistent pool when one is attached,
// or on transient goroutines otherwise, and waits for all of them.
func (b *batch) runShards(pieces []segment, pool *Pool) {
	if b.wg == nil {
		b.wg = new(sync.WaitGroup)
	}
	wg := b.wg
	if pool != nil {
		pool.run(pieces, wg)
		return
	}
	for _, p := range pieces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.exec()
		}()
	}
	wg.Wait()
}

// ModelPanic is the error of a dispatch whose model panicked on one of its
// rows. Value is what the model panicked with; Unwrap returns it if an error.
type ModelPanic struct{ Value any }

func (p *ModelPanic) Error() string { return fmt.Sprintf("device: model panicked: %v", p.Value) }

func (p *ModelPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// exec scores one segment through the submitting view's model — the same
// calls on the same inputs whichever batch the rows ride in, which is what
// makes fusion result-transparent. It recovers a panic as the owning
// request's *ModelPanic, so a poisoned row never unwinds a shared worker.
func (sg segment) exec() {
	r := sg.req
	defer func() {
		if p := recover(); p != nil {
			r.fail(&ModelPanic{Value: p})
		}
	}()
	switch r.kind {
	case reqForward:
		copy(r.rows[sg.lo:sg.hi], r.lm.ScoreBatch(r.ctxs[sg.lo:sg.hi]))
	case reqPrefill:
		for i := sg.lo; i < sg.hi; i++ {
			r.outStates[i], r.rows[i] = model.Prefill(r.lm, r.ctxs[i])
		}
	case reqExtend:
		ns, rs := model.Extend(r.lm, r.states[sg.lo:sg.hi], r.tokens[sg.lo:sg.hi])
		copy(r.outStates[sg.lo:sg.hi], ns)
		copy(r.rows[sg.lo:sg.hi], rs)
	case reqScoreAll:
		for i := sg.lo; i < sg.hi; i++ {
			r.allRows[i] = model.AllPositionLogProbs(r.lm, r.ctxs[i])
		}
	}
}
