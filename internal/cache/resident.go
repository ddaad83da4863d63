package cache

import "repro/internal/model"

// The resident probe (DESIGN.md decisions 4 and 6): the device asks the cache
// which rows it already holds *before* it dispatches, so a memoized row is
// never charged to the virtual accelerator, never parked in the fusion
// window, and never handed to a scoring worker. The probe is one lock pass
// over the cache: it hands out the stored rows (read-only, like every
// row), bumps recency and the hit counters exactly as ScoreBatch would have,
// but never looks at the in-flight tables — a row someone else is computing
// is simply reported missing, and the dispatch that follows resolves it
// through the usual single flight.

// ResidentRows implements model.Resident.
func (c *LM) ResidentRows(ctxs [][]model.Token, out [][]float64) int {
	n := 0
	buf := model.GetKeyBuf()
	c.mu.Lock()
	for i, ctx := range ctxs {
		*buf = model.AppendKey((*buf)[:0], ctx)
		if lp, _, ok := c.rows.Lookup(*buf); ok {
			out[i] = lp
			n++
		}
	}
	c.hits += int64(n)
	c.mu.Unlock()
	model.PutKeyBuf(buf)
	c.record(ScopeStats{Hits: int64(n)})
	return n
}

// ResidentAllPositions implements model.Resident.
func (c *LM) ResidentAllPositions(seqs [][]model.Token, out [][][]float64) int {
	n := 0
	var hits int64
	buf := model.GetKeyBuf()
	c.mu.Lock()
	for i, seq := range seqs {
		if rows := c.residentSeqLocked(seq, buf); rows != nil {
			out[i] = rows
			hits += int64(len(seq))
			n++
		}
	}
	c.hits += hits
	c.mu.Unlock()
	model.PutKeyBuf(buf)
	c.record(ScopeStats{Hits: hits})
	return n
}

// residentSeqLocked returns the stored row of every position of seq (row p
// conditions on seq[:p], clamped to the inner model's window), bumping their
// recency, when all of them are in the cache; nil otherwise, and for an empty
// sequence. The rows are the cache's own. c.mu must be held.
func (c *LM) residentSeqLocked(seq []model.Token, buf *[]byte) [][]float64 {
	var rows [][]float64
	for p := range seq {
		*buf = model.AppendKey((*buf)[:0], model.ClampWindow(c.inner, seq[:p]))
		lp, _, ok := c.rows.Lookup(*buf)
		if !ok {
			return nil
		}
		if rows == nil {
			rows = make([][]float64, len(seq))
		}
		rows[p] = lp
	}
	return rows
}
