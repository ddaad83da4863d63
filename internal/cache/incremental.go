package cache

import (
	"repro/internal/lru"
	"repro/internal/model"
)

// Incremental decoding through the cache (DESIGN.md decision 10): the logit
// cache is the outer layer. The engine asks it first, through the device's
// resident probe, and calls Prefill/ExtendBatch only for contexts it does not
// hold — and only on a model with real prefix states (the Transformer), since
// the engines gate on HasPrefixStates. Those calls delegate to the inner
// model — the caller needs the state, and a row cannot make one — and every
// computed next-token row is published into the cache, keeping the cache warm
// for full-path and cross-query requests. A window model reaching them gets
// model.Prefill/Extend's generic states, and its rows are published the same
// way.

// HasPrefixStates implements model.PrefixStateful by delegation.
func (c *LM) HasPrefixStates() bool { return model.HasPrefixStates(c.inner) }

// Prefill implements model.Incremental.
func (c *LM) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	st, lp := model.Prefill(c.inner, ctx)
	c.publish([][]float64{lp}, func(int) []model.Token { return st.Context() })
	return st, lp
}

// ExtendBatch implements model.Incremental.
func (c *LM) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	out, rows := model.Extend(c.inner, states, tokens)
	c.publish(rows, func(i int) []model.Token { return out[i].Context() })
	return out, rows
}

// ScoreAllPositions implements model.AllPositions. When the inner model has
// a one-forward implementation, repeated sequences (the sampler replays its
// prefix on every attempt) hit an all-positions fast path: if every
// position's row is already cached the forward is skipped entirely, and
// concurrent requests for the same sequence share one computation through a
// sequence-level single flight.
func (c *LM) ScoreAllPositions(seq []model.Token) [][]float64 {
	ap, ok := c.inner.(model.AllPositions)
	if !ok {
		// Window model: per-position rows through the cache, full granularity.
		ctxs := make([][]model.Token, len(seq))
		for p := range seq {
			ctxs[p] = model.ClampWindow(c.inner, seq[:p])
		}
		return c.ScoreBatch(ctxs)
	}
	if len(seq) == 0 {
		return nil
	}

	// All-hit fast path, under one lock pass (the same check the device's
	// resident probe makes, for callers that reach the cache directly).
	n := int64(len(seq))
	buf := model.GetKeyBuf()
	defer model.PutKeyBuf(buf)
	c.mu.Lock()
	if out := c.residentSeqLocked(seq, buf); out != nil {
		c.hits += n
		c.mu.Unlock()
		c.record(ScopeStats{Hits: n})
		return out
	}

	// Miss: single-flight the whole sequence, keyed by all of it.
	*buf = model.AppendKey((*buf)[:0], seq)
	if _, f, _ := c.seqFlights.Lookup(*buf); f != nil {
		c.flights += n
		c.mu.Unlock()
		rows, err := f.Wait()
		if err != nil {
			panic(err) // the owner failed; the cache has no error return
		}
		c.record(ScopeStats{Flights: n})
		return rows
	}
	f := c.seqFlights.Start(string(*buf))
	c.misses += n
	c.mu.Unlock()

	var rows [][]float64
	c.seqFlights.Run(&c.mu, []*lru.Entry[[][]float64]{f}, func() { rows = ap.ScoreAllPositions(seq) })
	c.mu.Lock()
	c.publishLocked(buf, rows, func(p int) []model.Token { return model.ClampWindow(c.inner, seq[:p]) })
	c.seqFlights.Drop(f, rows, nil)
	c.mu.Unlock()
	c.record(ScopeStats{Misses: n})
	return rows
}

// publish counts rows the inner model computed outside ScoreBatch — by a
// delegated Prefill or ExtendBatch — as misses, so aggregate hit ratios stay
// meaningful under incremental traffic, and publishes them into the cache,
// under one lock pass. Row i conditions on ctx(i).
func (c *LM) publish(rows [][]float64, ctx func(i int) []model.Token) {
	buf := model.GetKeyBuf()
	c.mu.Lock()
	c.misses += int64(len(rows))
	c.publishLocked(buf, rows, ctx)
	c.mu.Unlock()
	model.PutKeyBuf(buf)
	c.record(ScopeStats{Misses: int64(len(rows))})
}

// publishLocked inserts each computed row the cache does not hold yet, so
// incremental traffic warms the cache for everyone else; an entry already
// present keeps its row and its recency. Rows are looked up through buf, so
// only an actual insert materializes a key. The cache stores each row itself,
// the slice the caller also returns: rows are read-only. c.mu must be held.
func (c *LM) publishLocked(buf *[]byte, rows [][]float64, ctx func(i int) []model.Token) {
	for i, lp := range rows {
		*buf = model.AppendKey((*buf)[:0], ctx(i))
		if !c.rows.Has(*buf) {
			c.rows.Add(string(*buf), lp)
		}
	}
}
