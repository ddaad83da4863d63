// Package cache provides a bounded memoization layer over LanguageModel
// NextLogProbs calls, under lru.Map's windowed TinyLFU rule. Graph traversals revisit contexts constantly —
// Dijkstra expands many edges out of the same node, and sampling replays
// shared prefixes — so caching is the difference between O(edges) and
// O(nodes) model invocations (DESIGN.md decision 4).
//
// The batch path is miss-forwarding and single-flight (DESIGN.md
// decision 6): ScoreBatch answers hits from the cache, deduplicates repeated
// contexts within the batch, forwards only the unique misses to the inner
// model in one batched call, and parks concurrent requests for a context
// that is already being computed until the first computation lands — so a
// parallel executor never pays for the same forward twice. The bounded map
// and the single-flight tables are internal/lru's.
//
// One type serves every client (DESIGN.md decisions 4 and 8): an LM is a
// view of the shared store, and a scope is another view of it that also
// counts which rows its own calls hit, computed or waited for. Each scoring
// method has one body, which records its outcome on the view it ran on.
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/model"
)

// LM wraps a LanguageModel with a bounded cache keyed by context. An LM is a
// view of one store — the rows, the single-flight tables and the totals — that
// every view of the cache shares: New returns the root view, and NewScope
// another view that also tallies its own share of the outcomes.
type LM struct {
	*store
	// scoped marks a view NewScope made; the root view keeps no tally.
	scoped bool
	tally  struct{ hits, misses, flights atomic.Int64 }
}

// store is what every view of one cache shares.
type store struct {
	inner model.LanguageModel

	mu   sync.Mutex
	rows *lru.Map[[]float64]
	// rowFlights parks duplicate requests for a context while the first one
	// computes it; seqFlights does the same for whole-sequence all-positions
	// scoring (incremental.go).
	rowFlights lru.Group[[]float64]
	seqFlights lru.Group[[][]float64]

	// flights counts requests that waited on another goroutine's computation.
	hits, misses, flights int64
}

// New wraps inner with a cache of at most capacity contexts; capacity must be
// at least 1.
func New(inner model.LanguageModel, capacity int) *LM {
	return &LM{store: &store{inner: inner, rows: lru.NewMap[[]float64](capacity)}}
}

// VocabSize implements model.LanguageModel.
func (c *LM) VocabSize() int { return c.inner.VocabSize() }

// EOS implements model.LanguageModel.
func (c *LM) EOS() model.Token { return c.inner.EOS() }

// MaxSeqLen implements model.LanguageModel.
func (c *LM) MaxSeqLen() int { return c.inner.MaxSeqLen() }

// NextLogProbs implements model.LanguageModel with memoization. The returned
// row is the cache's own, shared with every other caller: read-only.
func (c *LM) NextLogProbs(ctx []model.Token) []float64 {
	return c.ScoreBatch([][]model.Token{ctx})[0]
}

// ScoreBatch implements model.LanguageModel. Hits are answered from the
// cache; the unique misses — deduplicated within the batch and against
// computations already in flight on other goroutines — are forwarded to the
// inner model in a single batched call. Every row is handed out by reference
// (DESIGN.md decision 4): a hit, a miss and a flight waiter all get the one
// slice the cache stores, so no row is ever copied.
func (c *LM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	var bs ScopeStats
	out := make([][]float64, len(ctxs))

	// Classification under one lock pass: each row is a hit, a wait on an
	// in-flight computation, or a miss this call owns.
	type waitRef struct {
		idx int
		f   *lru.Flight[[]float64]
	}
	var waits []waitRef
	var owned []*lru.Flight[[]float64]
	var ownedIdx []int // the row that started each owned flight
	missCtxs := make([][]model.Token, 0, len(ctxs))

	// One pooled key buffer serves every row: hits and flight-waits index the
	// maps with the buffer itself, so only misses this call owns materialize
	// a key string.
	buf := model.GetKeyBuf()
	c.mu.Lock()
	for i, ctx := range ctxs {
		*buf = model.AppendKey((*buf)[:0], ctx)
		if lp, ok := c.rows.Get(*buf); ok {
			c.hits++
			bs.Hits++
			out[i] = lp
			continue
		}
		if f := c.rowFlights.Join(*buf); f != nil {
			// Single-flight: someone (possibly an earlier row of this very
			// batch) is computing this context; park and reuse.
			c.flights++
			bs.Flights++
			waits = append(waits, waitRef{idx: i, f: f})
			continue
		}
		c.misses++
		bs.Misses++
		owned = append(owned, c.rowFlights.Start(string(*buf)))
		ownedIdx = append(ownedIdx, i)
		missCtxs = append(missCtxs, ctx)
	}
	c.mu.Unlock()
	model.PutKeyBuf(buf)

	if len(owned) > 0 {
		// One batched inner call for all unique misses. The cache stores each
		// row as is: rows are immutable.
		var lps [][]float64
		c.rowFlights.Run(&c.mu, owned, func() { lps = c.inner.ScoreBatch(missCtxs) })
		c.mu.Lock()
		for j, f := range owned {
			c.rows.Add(f.Key(), lps[j])
			c.rowFlights.Finish(f, lps[j], nil)
			out[ownedIdx[j]] = lps[j]
		}
		c.mu.Unlock()
	}
	for _, w := range waits {
		lp, err := w.f.Wait()
		if err != nil {
			panic(err) // the owner failed; the cache has no error return
		}
		out[w.idx] = lp
	}
	c.record(bs)
	return out
}

// Stats reports cache hits and misses since creation. Requests that reused
// another goroutine's in-flight computation are counted separately by
// FlightStats, not as hits or misses.
func (c *LM) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// FlightStats reports how many requests were answered by waiting on a
// computation already in flight — duplicate work the single-flight layer
// avoided.
func (c *LM) FlightStats() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.flights
}

// Len reports the number of cached contexts.
func (c *LM) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rows.Len()
}

// RowBytes reports the bytes the cached rows hold: entries × vocabulary × 8.
// The capacity is an entry count, and a row's size is the model's vocabulary.
func (c *LM) RowBytes() int64 {
	return int64(c.Len()) * int64(c.inner.VocabSize()) * 8
}

// ScopeStats breaks a scope's calls down by outcome: rows answered from the
// cache (Hits), rows it computed and published for everyone (Misses), and rows
// that parked on a computation already in flight — on another goroutine,
// possibly another scope's, or earlier in the same batch (Flights). Its Hits
// include rows *other* scopes computed: exactly the cross-query sharing a
// server wants to observe. Hits+Misses+Flights equals the rows requested.
type ScopeStats struct {
	Hits, Misses, Flights int64
}

// NewScope returns a fresh view over the shared cache that tallies its own
// outcomes. A query-serving layer gives each query its own scope so
// /v1/stats can attribute shared-cache wins to individual queries while the
// store deduplicates work across all of them (DESIGN.md decision 8). A scope
// is one allocation and costs three atomics per call beyond the shared path.
func (c *LM) NewScope() *LM { return &LM{store: c.store, scoped: true} }

// record adds one call's outcome to a scope's tally.
func (c *LM) record(st ScopeStats) {
	if c.scoped {
		c.tally.hits.Add(st.Hits)
		c.tally.misses.Add(st.Misses)
		c.tally.flights.Add(st.Flights)
	}
}

// Tally snapshots a scope's share of the outcomes. The root view keeps none
// and reads zero; Stats and FlightStats are the store's totals.
func (c *LM) Tally() ScopeStats {
	return ScopeStats{
		Hits:    c.tally.hits.Load(),
		Misses:  c.tally.misses.Load(),
		Flights: c.tally.flights.Load(),
	}
}
