package cache

import (
	"sync"

	"repro/internal/model"
)

// Incremental decoding through the cache (DESIGN.md decision 10): the logit
// LRU stays the outer layer. For an inner model with real prefix states (the
// Transformer), Prefill/ExtendBatch delegate — the state must be computed
// regardless, so there is nothing to memoize — but every computed next-token
// row is published into the LRU, keeping the cache warm for full-path and
// cross-query requests. For window models with trivial states, the
// incremental calls route through ScoreBatch, so the LRU and single-flight
// machinery apply row by row exactly as on the full path.

var keyBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// HasPrefixStates implements model.PrefixStateful by delegation.
func (c *LM) HasPrefixStates() bool { return model.HasPrefixStates(c.inner) }

// HasPrefixStates implements model.PrefixStateful by delegation.
func (s *Scope) HasPrefixStates() bool { return s.lm.HasPrefixStates() }

// Prefill implements model.Incremental.
func (c *LM) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	st, lp, _ := c.prefill(ctx)
	return st, lp
}

func (c *LM) prefill(ctx []model.Token) (model.DecodeState, []float64, BatchStats) {
	if _, ok := c.inner.(model.Incremental); ok {
		st, lp := model.Prefill(c.inner, ctx)
		c.publish(st.Context(), lp)
		c.bumpMisses(1)
		return st, lp, BatchStats{Misses: 1}
	}
	st, cl := model.PrefillCtx(c.inner, ctx)
	rows, bs := c.scoreBatch([][]model.Token{cl})
	return st, rows[0], bs
}

// ExtendBatch implements model.Incremental.
func (c *LM) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	out, rows, _ := c.extendBatch(states, tokens)
	return out, rows
}

func (c *LM) extendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64, BatchStats) {
	if im, ok := c.inner.(model.Incremental); ok {
		out, rows := im.ExtendBatch(states, tokens)
		for i, st := range out {
			c.publish(st.Context(), rows[i])
		}
		c.bumpMisses(int64(len(states)))
		return out, rows, BatchStats{Misses: int64(len(states))}
	}
	out, ctxs := model.ExtendCtxs(c.inner, states, tokens)
	rows, bs := c.scoreBatch(ctxs)
	return out, rows, bs
}

// ScoreAllPositions implements model.AllPositions. When the inner model has
// a one-forward implementation, repeated sequences (the sampler replays its
// prefix on every attempt) hit an all-positions fast path: if every
// position's row is already cached the forward is skipped entirely, and
// concurrent requests for the same sequence share one computation through a
// sequence-level single flight.
func (c *LM) ScoreAllPositions(seq []model.Token) [][]float64 {
	rows, _ := c.scoreAllPositions(seq)
	return rows
}

func (c *LM) scoreAllPositions(seq []model.Token) ([][]float64, BatchStats) {
	ap, ok := c.inner.(model.AllPositions)
	if !ok {
		// Window model: per-position rows through the LRU, full granularity.
		ctxs := make([][]model.Token, len(seq))
		for p := range seq {
			ctxs[p] = model.ClampWindow(c.inner, seq[:p])
		}
		return c.scoreBatch(ctxs)
	}
	if len(seq) == 0 {
		return nil, BatchStats{}
	}

	// All-hit fast path, under one lock pass (the same check the device's
	// resident probe makes, for callers that reach the cache directly).
	buf := keyBufPool.Get().(*[]byte)
	c.mu.Lock()
	if out := c.residentSeqLocked(seq, buf); out != nil {
		c.hits += int64(len(seq))
		c.mu.Unlock()
		keyBufPool.Put(buf)
		return out, BatchStats{Hits: int64(len(seq))}
	}

	// Miss: single-flight the whole sequence. Key by the full sequence with
	// a marker byte no context key can produce (context keys have even
	// length).
	*buf = append(model.AppendKey((*buf)[:0], seq), 0xff)
	if f, ok := c.inflightAll[string(*buf)]; ok {
		c.flights += int64(len(seq))
		c.mu.Unlock()
		keyBufPool.Put(buf)
		<-f.done
		if f.rows == nil {
			panic("cache: in-flight all-positions computation failed on its owner")
		}
		return f.rows, BatchStats{Flights: int64(len(seq))}
	}
	key := string(*buf)
	f := &allFlight{done: make(chan struct{})}
	c.inflightAll[key] = f
	c.misses += int64(len(seq))
	c.mu.Unlock()
	keyBufPool.Put(buf)

	rows, perr := func() (rows [][]float64, perr any) {
		defer func() { perr = recover() }()
		return ap.ScoreAllPositions(seq), nil
	}()
	if perr != nil {
		c.mu.Lock()
		delete(c.inflightAll, key)
		c.mu.Unlock()
		close(f.done) // waiters see rows == nil and fail loudly
		panic(perr)
	}
	for p, r := range rows {
		c.publish(model.ClampWindow(c.inner, seq[:p]), r)
	}
	c.mu.Lock()
	f.rows = rows
	delete(c.inflightAll, key)
	c.mu.Unlock()
	close(f.done)
	return rows, BatchStats{Misses: int64(len(seq))}
}

// allFlight is one in-progress all-positions computation.
type allFlight struct {
	done chan struct{}
	rows [][]float64
}

// publish inserts a computed row into the LRU (keeping any existing entry),
// so incremental traffic warms the cache for everyone else. The LRU stores lp
// itself, the slice the caller also returns: rows are read-only.
func (c *LM) publish(ctx []model.Token, lp []float64) {
	key := model.Key(ctx)
	c.mu.Lock()
	if _, ok := c.entries[key]; !ok {
		c.insertLocked(key, lp)
	}
	c.mu.Unlock()
}

// bumpMisses folds delegated-path computations (rows the incremental inner
// model computed, which never pass through scoreBatch) into the cache-wide
// miss counter, so aggregate hit ratios stay meaningful under incremental
// traffic.
func (c *LM) bumpMisses(n int64) {
	c.mu.Lock()
	c.misses += n
	c.mu.Unlock()
}

// Prefill implements model.Incremental for the scope view.
func (s *Scope) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	st, lp, bs := s.lm.prefill(ctx)
	s.add(bs)
	return st, lp
}

// ExtendBatch implements model.Incremental for the scope view.
func (s *Scope) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	out, rows, bs := s.lm.extendBatch(states, tokens)
	s.add(bs)
	return out, rows
}

// ScoreAllPositions implements model.AllPositions for the scope view.
func (s *Scope) ScoreAllPositions(seq []model.Token) [][]float64 {
	rows, bs := s.lm.scoreAllPositions(seq)
	s.add(bs)
	return rows
}

func (s *Scope) add(bs BatchStats) {
	s.hits.Add(bs.Hits)
	s.misses.Add(bs.Misses)
	s.flights.Add(bs.Flights)
}
