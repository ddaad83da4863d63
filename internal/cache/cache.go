// Package cache provides an LRU memoization layer over LanguageModel
// NextLogProbs calls. Graph traversals revisit contexts constantly —
// Dijkstra expands many edges out of the same node, and sampling replays
// shared prefixes — so caching is the difference between O(edges) and
// O(nodes) model invocations (DESIGN.md decision 4).
//
// The batch path is miss-forwarding and single-flight (DESIGN.md
// decision 6): ScoreBatch answers hits from the LRU, deduplicates repeated
// contexts within the batch, forwards only the unique misses to the inner
// model in one batched call, and parks concurrent requests for a context
// that is already being computed until the first computation lands — so a
// parallel executor never pays for the same forward twice. The recency list
// and the single-flight tables are internal/lru's.
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/lru"
	"repro/internal/model"
)

// LM wraps a LanguageModel with an LRU cache keyed by context.
type LM struct {
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

// New wraps inner with a cache of at most capacity contexts. capacity <= 0
// defaults to 4096.
func New(inner model.LanguageModel, capacity int) *LM {
	if capacity <= 0 {
		capacity = 4096
	}
	return &LM{inner: inner, rows: lru.NewMap[[]float64](capacity)}
}

// VocabSize implements model.LanguageModel.
func (c *LM) VocabSize() int { return c.inner.VocabSize() }

// EOS implements model.LanguageModel.
func (c *LM) EOS() model.Token { return c.inner.EOS() }

// MaxSeqLen implements model.LanguageModel.
func (c *LM) MaxSeqLen() int { return c.inner.MaxSeqLen() }

// NextLogProbs implements model.LanguageModel with memoization. The returned
// row is the LRU's own, shared with every other caller: read-only.
func (c *LM) NextLogProbs(ctx []model.Token) []float64 {
	return c.ScoreBatch([][]model.Token{ctx})[0]
}

// ScoreBatch implements model.LanguageModel. Hits are answered from the
// LRU; the unique misses — deduplicated within the batch and against
// computations already in flight on other goroutines — are forwarded to the
// inner model in a single batched call. Every row is handed out by reference
// (DESIGN.md decision 4): a hit, a miss and a flight waiter all get the one
// slice the LRU stores, so no row is ever copied.
func (c *LM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	out, _ := c.scoreBatch(ctxs)
	return out
}

// BatchStats breaks one ScoreBatch call down by outcome: rows answered from
// the LRU (Hits), rows this call computed (Misses), and rows that parked on
// a computation already in flight — on another goroutine or earlier in the
// same batch (Flights). Hits+Misses+Flights equals the number of rows.
type BatchStats struct {
	Hits, Misses, Flights int64
}

// scoreBatch is the shared implementation; it reports the per-call outcome
// breakdown so scopes can attribute shared-cache behavior to one client.
func (c *LM) scoreBatch(ctxs [][]model.Token) ([][]float64, BatchStats) {
	var bs BatchStats
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
		// One batched inner call for all unique misses. The LRU stores each
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
	return out, bs
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

// ScopeStats is a snapshot of one scope's share of shared-cache activity.
// Its Hits include rows *other* scopes computed — exactly the cross-query
// sharing a server wants to observe — its Misses are rows this scope
// computed (and published for everyone), and its Flights rows it reused from
// a computation another goroutine, possibly another scope, had in flight.
type ScopeStats = BatchStats

// Scope is a per-client view of a shared cache: it forwards every request to
// the same LRU and single-flight table, but tallies hits/misses/flights for
// this client alone. A query-serving layer gives each query its own Scope so
// /v1/stats can attribute shared-cache wins to individual queries while the
// underlying cache deduplicates work across all of them (DESIGN.md
// decision 8). Scopes are safe for concurrent use and cost two atomics per
// batch beyond the shared path.
type Scope struct {
	lm                    *LM
	hits, misses, flights atomic.Int64
}

// NewScope returns a fresh attribution view over the shared cache.
func (c *LM) NewScope() *Scope { return &Scope{lm: c} }

// VocabSize implements model.LanguageModel.
func (s *Scope) VocabSize() int { return s.lm.VocabSize() }

// EOS implements model.LanguageModel.
func (s *Scope) EOS() model.Token { return s.lm.EOS() }

// MaxSeqLen implements model.LanguageModel.
func (s *Scope) MaxSeqLen() int { return s.lm.MaxSeqLen() }

// NextLogProbs implements model.LanguageModel.
func (s *Scope) NextLogProbs(ctx []model.Token) []float64 {
	return s.ScoreBatch([][]model.Token{ctx})[0]
}

// ScoreBatch implements model.LanguageModel via the shared cache, tallying
// this scope's share of the outcome.
func (s *Scope) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	out, bs := s.lm.scoreBatch(ctxs)
	s.add(bs)
	return out
}

// Stats snapshots the scope's attribution counters.
func (s *Scope) Stats() ScopeStats {
	return ScopeStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Flights: s.flights.Load(),
	}
}
