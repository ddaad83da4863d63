package cache

import "repro/internal/model"

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

// ScoreAllPositions implements model.AllPositions: one inner forward when
// the inner model has one, its rows published like Prefill's. It checks for
// no hit: the device's resident probe answers an all-hit sequence before it
// dispatches (DESIGN.md decision 10).
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
	rows := ap.ScoreAllPositions(seq)[:len(seq)]
	c.publish(rows, func(p int) []model.Token { return model.ClampWindow(c.inner, seq[:p]) })
	return rows
}

// publish counts rows the inner model computed outside ScoreBatch — by a
// delegated Prefill, ExtendBatch or ScoreAllPositions — as misses, so
// aggregate hit ratios stay meaningful under incremental traffic, and
// publishes them into the cache, under one lock pass. Row i conditions on
// ctx(i).
func (c *LM) publish(rows [][]float64, ctx func(i int) []model.Token) {
	c.insert(rows, ctx)
	c.record(ScopeStats{Misses: int64(len(rows))})
}

// insert adds each computed row the cache does not hold yet, so incremental
// traffic warms the cache for everyone else; an entry already present keeps
// its row and its recency. Rows are looked up through the store's key
// buffer, so only an actual insert materializes a key. The cache stores each row itself, the slice the
// caller also returns: rows are read-only. ctx reads the inner model's decode
// states under c.mu, and a defective one (a nil state, or fewer states than
// rows) panics there: the deferred unlock lets that panic go on to the
// device's dispatch without leaving the cache locked, and counts no miss.
func (c *LM) insert(rows [][]float64, ctx func(i int) []model.Token) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, lp := range rows {
		c.key = model.AppendKey(c.key[:0], ctx(i))
		if !c.rows.Has(c.key) {
			c.rows.Add(string(c.key), lp)
		}
	}
	c.misses += int64(len(rows))
}
