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
// parallel executor never pays for the same forward twice.
package cache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/model"
)

// LM wraps a LanguageModel with an LRU cache keyed by context.
type LM struct {
	inner model.LanguageModel
	cap   int

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	// inflight parks duplicate requests while the first one computes: the
	// owner fills lp and closes done; waiters read lp afterwards. Entries
	// are removed once resolved, so the map stays batch-sized.
	inflight map[string]*flight
	// inflightAll is the sequence-level single flight for whole-sequence
	// all-positions scoring (incremental.go).
	inflightAll map[string]*allFlight

	hits    int64
	misses  int64
	flights int64 // requests that waited on another goroutine's computation
}

type entry struct {
	key string
	lp  []float64
}

// flight is one in-progress inner-model computation.
type flight struct {
	done chan struct{}
	lp   []float64
}

// New wraps inner with a cache of at most capacity contexts. capacity <= 0
// defaults to 4096.
func New(inner model.LanguageModel, capacity int) *LM {
	if capacity <= 0 {
		capacity = 4096
	}
	return &LM{
		inner:       inner,
		cap:         capacity,
		entries:     make(map[string]*list.Element, capacity),
		order:       list.New(),
		inflight:    make(map[string]*flight),
		inflightAll: make(map[string]*allFlight),
	}
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
		f   *flight
	}
	type ownRef struct {
		key string
		f   *flight
		idx int // first row wanting this key
	}
	var waits []waitRef
	var owned []ownRef
	missCtxs := make([][]model.Token, 0, len(ctxs))

	// One pooled key buffer serves every row: hits and flight-waits index the
	// maps with string(buf) — the compiler elides the conversion allocation
	// for lookups — so only misses this call owns materialize a key string.
	buf := keyBufPool.Get().(*[]byte)
	c.mu.Lock()
	for i, ctx := range ctxs {
		*buf = model.AppendKey((*buf)[:0], ctx)
		if el, ok := c.entries[string(*buf)]; ok {
			c.order.MoveToFront(el)
			c.hits++
			bs.Hits++
			out[i] = el.Value.(*entry).lp
			continue
		}
		if f, ok := c.inflight[string(*buf)]; ok {
			// Single-flight: someone (possibly an earlier row of this very
			// batch) is computing this context; park and reuse.
			c.flights++
			bs.Flights++
			waits = append(waits, waitRef{idx: i, f: f})
			continue
		}
		c.misses++
		bs.Misses++
		key := string(*buf)
		f := &flight{done: make(chan struct{})}
		c.inflight[key] = f
		owned = append(owned, ownRef{key: key, f: f, idx: i})
		missCtxs = append(missCtxs, ctx)
	}
	c.mu.Unlock()
	keyBufPool.Put(buf)

	if len(owned) > 0 {
		// One batched inner call for all unique misses. If the inner model
		// panics (e.g. mismatched artifacts), the owned flights must still
		// be resolved and removed before the panic propagates — otherwise
		// the keys wedge forever and every future request for them blocks
		// on a done channel nobody will close.
		lps, perr := func() (out [][]float64, perr any) {
			defer func() { perr = recover() }()
			return c.inner.ScoreBatch(missCtxs), nil
		}()
		if perr != nil {
			c.mu.Lock()
			for _, o := range owned {
				delete(c.inflight, o.key)
			}
			c.mu.Unlock()
			for _, o := range owned {
				close(o.f.done) // waiters see lp == nil and fail loudly
			}
			panic(perr)
		}
		c.mu.Lock()
		for j, o := range owned {
			o.f.lp = lps[j]
			if _, ok := c.entries[o.key]; !ok {
				c.insertLocked(o.key, lps[j])
			}
			delete(c.inflight, o.key)
		}
		c.mu.Unlock()
		for j, o := range owned {
			close(o.f.done)
			out[o.idx] = lps[j]
		}
	}
	for _, w := range waits {
		<-w.f.done
		if w.f.lp == nil {
			panic("cache: in-flight logit computation failed on its owner")
		}
		out[w.idx] = w.f.lp
	}
	return out, bs
}

// insertLocked puts a row for a key the LRU does not hold at the front and
// evicts from the back past capacity. lp is stored as is: rows are immutable.
func (c *LM) insertLocked(key string, lp []float64) {
	c.entries[key] = c.order.PushFront(&entry{key: key, lp: lp})
	if c.order.Len() > c.cap {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.entries, last.Value.(*entry).key)
	}
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
	return c.order.Len()
}

// ScopeStats is a snapshot of one scope's share of shared-cache activity.
type ScopeStats struct {
	// Hits are rows this scope answered from entries already in the LRU —
	// including entries computed by *other* scopes, which is exactly the
	// cross-query sharing a server wants to observe.
	Hits int64
	// Misses are rows this scope computed (and published for everyone).
	Misses int64
	// Flights are rows this scope reused from a computation another
	// goroutine (possibly another scope) had in flight.
	Flights int64
}

// Scope is a per-client view of a shared cache: it forwards every request to
// the same LRU and single-flight table, but tallies hits/misses/flights for
// this client alone. A query-serving layer gives each query its own Scope so
// /v1/stats can attribute shared-cache wins to individual queries while the
// underlying cache deduplicates work across all of them (DESIGN.md
// decision 8). Scopes are safe for concurrent use and cost two atomics per
// batch beyond the shared path.
type Scope struct {
	lm      *LM
	hits    atomic.Int64
	misses  atomic.Int64
	flights atomic.Int64
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
	s.hits.Add(bs.Hits)
	s.misses.Add(bs.Misses)
	s.flights.Add(bs.Flights)
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
