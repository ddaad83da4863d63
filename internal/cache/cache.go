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
// parallel executor never pays for the same forward twice. The bounded map,
// the single flight included, is internal/lru's.
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
// view of one store — the rows, their flights and the totals — that
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
	// seqFlights single-flights whole-sequence scoring (incremental.go); each
	// flight ends with Drop, so nothing is ever admitted.
	seqFlights *lru.Map[[][]float64]

	// flights counts requests that waited on another goroutine's computation.
	hits, misses, flights int64
}

// New wraps inner with a cache of at most capacity contexts; capacity must be
// at least 1.
func New(inner model.LanguageModel, capacity int) *LM {
	return &LM{store: &store{inner: inner, rows: lru.NewMap[[]float64](capacity), seqFlights: lru.NewMap[[][]float64](1)}}
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
	s := scratches.Get().(*scratch)

	// Classification under one lock pass: each row is a hit, a wait on an
	// entry in flight (maybe one an earlier row started), or a miss this call
	// owns. One pooled key buffer serves every row: only a miss builds a key.
	buf := model.GetKeyBuf()
	c.mu.Lock()
	for i, ctx := range ctxs {
		*buf = model.AppendKey((*buf)[:0], ctx)
		lp, f, ok := c.rows.Lookup(*buf)
		if ok {
			bs.Hits++
			out[i] = lp
			continue
		}
		if f != nil {
			bs.Flights++
		} else {
			bs.Misses++
			f = c.rows.Start(string(*buf))
			s.owned, s.ctxs = append(s.owned, f), append(s.ctxs, ctx)
		}
		s.pending, s.rows = append(s.pending, f), append(s.rows, i)
	}
	c.hits, c.misses, c.flights = c.hits+bs.Hits, c.misses+bs.Misses, c.flights+bs.Flights
	c.mu.Unlock()
	model.PutKeyBuf(buf)

	if len(s.owned) > 0 {
		// One batched inner call for all unique misses. The cache stores each
		// row as is: rows are immutable.
		var lps [][]float64
		c.rows.Run(&c.mu, s.owned, func() { lps = c.inner.ScoreBatch(s.ctxs) })
		c.mu.Lock()
		for j, f := range s.owned {
			c.rows.Commit(f, lps[j])
		}
		c.mu.Unlock()
	}
	// Every row not a hit takes its entry's value; an owned entry's is there.
	for j, f := range s.pending {
		lp, err := f.Wait()
		if err != nil {
			panic(err) // the owner failed; the cache has no error return
		}
		out[s.rows[j]] = lp
	}
	// The pool keeps no entry or context alive (nor a panicked call's scratch).
	clear(s.owned)
	clear(s.pending)
	clear(s.ctxs)
	*s = scratch{s.owned[:0], s.pending[:0], s.ctxs[:0], s.rows[:0]}
	scratches.Put(s)
	c.record(bs)
	return out
}

// scratch is one ScoreBatch call's bookkeeping, pooled so that a miss
// allocates only what the cache keeps — its row, its key and its entry: the
// entries the call owns and their contexts, and every non-hit row's entry.
type scratch struct {
	owned, pending []*lru.Entry[[]float64]
	ctxs           [][]model.Token
	rows           []int
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

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
