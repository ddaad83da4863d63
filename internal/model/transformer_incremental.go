package model

import "math"

// Incremental decoding for the Transformer (DESIGN.md decision 10). A
// transformerState caches, per layer, the attention K and V rows of every
// prefix position; extending the sequence by one token then costs one
// row through every row-wise stage plus one attention pass over the cached
// rows — O(L·d) instead of the O(L²·d) a full re-forward pays. Rows are
// immutable once computed, so a child state shares its prefix rows with the
// parent by pointer: the frontier of a constrained traversal is a trie, and
// each node owns only its own token's rows.
//
// Every stage mirrors the arithmetic order of the packed inference path
// (transformer_batch.go), which is itself bit-identical to NextLogProbs —
// so prefill+extend chains reproduce full forwards exactly, a property the
// engine's incremental equivalence tests rely on.

// kvLayer is one layer's cached attention rows, position-major.
type kvLayer struct {
	k, v [][]float64
}

// transformerState implements DecodeState with per-layer K/V rows.
type transformerState struct {
	t    *Transformer
	toks []Token // logical context (empty for the anchored root)
	// anchored marks the state of the empty context, which is scored through
	// the lone-EOS "begin" anchor: its position-0 rows belong to EOS, not to
	// any real first token, so it can never be extended incrementally.
	anchored bool
	layers   []kvLayer
}

// Len implements DecodeState.
func (s *transformerState) Len() int { return len(s.toks) }

// Context implements DecodeState.
func (s *transformerState) Context() []Token { return s.toks }

// positions is the number of K/V rows per layer (the anchored root holds one
// row for the EOS anchor despite encoding zero context tokens).
func (s *transformerState) positions() int {
	if s.anchored {
		return 1
	}
	return len(s.toks)
}

// SizeBytes implements DecodeState: K and V rows (8 bytes per float plus a
// slice header each) across all layers, the token slice, and fixed overhead.
func (s *transformerState) SizeBytes() int64 {
	n := int64(s.positions())
	d := int64(s.t.cfg.DModel)
	l := int64(len(s.layers))
	return n*l*2*(d*8+24) + int64(len(s.toks))*8 + 96
}

// ExclusiveBytes implements ExclusiveSizer: only row *data* is shared with
// the parent (by pointer); the row-pointer arrays and token slice are fresh
// per state and must be charged in full, or a budgeted arena would resident
// several times its nominal limit on deep tries.
func (s *transformerState) ExclusiveBytes(parent DecodeState) int64 {
	pp := 0
	if ts, ok := parent.(*transformerState); ok {
		pp = ts.positions()
	}
	n := s.positions()
	if pp > n {
		pp = n
	}
	d := int64(s.t.cfg.DModel)
	l := int64(len(s.layers))
	freshRows := int64(n-pp) * l * 2 * d * 8
	own := int64(n)*l*2*24 + int64(len(s.toks))*8 + 96
	return freshRows + own
}

// HasPrefixStates implements PrefixStateful: transformer states cache the
// whole attention stack, the thing incremental decoding exists to reuse.
func (t *Transformer) HasPrefixStates() bool { return true }

// Prefill implements Incremental: one full forward over ctx (clamped and
// anchored exactly as NextLogProbs clamps), recording every layer's K/V rows.
func (t *Transformer) Prefill(ctx []Token) (DecodeState, []float64) {
	if len(ctx) >= t.cfg.MaxSeqLen {
		ctx = ctx[len(ctx)-t.cfg.MaxSeqLen+1:]
	}
	st := &transformerState{t: t, toks: append(make([]Token, 0, len(ctx)), ctx...)}
	work := st.toks
	if len(work) == 0 {
		st.anchored = true
		work = []Token{t.eosTok}
	}
	T := len(work)
	x := zeros(T, t.cfg.DModel)
	for i, tok := range work {
		e, p := t.wte[tok], t.wpe[i]
		for j := range x[i] {
			x[i][j] = e[j] + p[j]
		}
	}
	h := x
	st.layers = make([]kvLayer, len(t.blks))
	for bi, blk := range t.blks {
		h, st.layers[bi] = blk.inferKV(h)
	}
	n, _, _ := t.lnF.forward(h)
	lp := t.projectRow(n[T-1])
	Normalize(lp)
	return st, lp
}

// ExtendBatch implements Incremental: all extendable rows advance in one
// packed step; rows that cannot extend (a foreign state, the anchored root,
// or a context at the window edge where extension would slide the position
// embeddings) recompute via Prefill.
func (t *Transformer) ExtendBatch(states []DecodeState, tokens []Token) ([]DecodeState, [][]float64) {
	outStates := make([]DecodeState, len(states))
	outRows := make([][]float64, len(states))
	var inc []int
	for i, st := range states {
		if ts, ok := st.(*transformerState); ok && ts.t == t && !ts.anchored &&
			len(ts.toks)+1 <= t.cfg.MaxSeqLen-1 {
			inc = append(inc, i)
			continue
		}
		prev := st.Context()
		ctx := append(make([]Token, 0, len(prev)+1), prev...)
		outStates[i], outRows[i] = t.Prefill(append(ctx, tokens[i]))
	}
	if len(inc) > 0 {
		t.extendPacked(states, tokens, inc, outStates, outRows)
	}
	return outStates, outRows
}

// extendPacked runs the incremental step for the rows listed in inc: the new
// tokens' embeddings are packed into one [B x dModel] buffer so every
// row-wise stage (layer norms, QKV and feed-forward projections, residuals)
// runs over the whole batch at once, while attention loops per row over that
// row's cached K/V.
func (t *Transformer) extendPacked(states []DecodeState, tokens []Token, inc []int, outStates []DecodeState, outRows [][]float64) {
	B := len(inc)
	d := t.cfg.DModel
	x := zeros(B, d)
	sts := make([]*transformerState, B)
	for r, i := range inc {
		ts := states[i].(*transformerState)
		sts[r] = ts
		e, p := t.wte[tokens[i]], t.wpe[len(ts.toks)]
		for j := 0; j < d; j++ {
			x[r][j] = e[j] + p[j]
		}
	}
	newLayers := make([][]kvLayer, B)
	for r := range newLayers {
		newLayers[r] = make([]kvLayer, len(t.blks))
	}
	h := x
	for bi, blk := range t.blks {
		h = blk.extendStep(h, sts, bi, newLayers)
	}
	n, _, _ := t.lnF.forward(h)
	for r, i := range inc {
		lp := t.projectRow(n[r])
		Normalize(lp)
		outRows[i] = lp
		parent := sts[r]
		outStates[i] = &transformerState{
			t:      t,
			toks:   append(append(make([]Token, 0, len(parent.toks)+1), parent.toks...), tokens[i]),
			layers: newLayers[r],
		}
	}
}

// ScoreAllPositions implements AllPositions: one causal forward scores every
// non-empty prefix of seq (row p-1 of the logits conditions on exactly
// seq[:p], by causality), and the empty-context row comes from the anchored
// NextLogProbs. Sequences beyond the window need per-position sliding
// contexts, which one forward cannot reproduce; they keep the packed
// row-expansion path.
func (t *Transformer) ScoreAllPositions(seq []Token) [][]float64 {
	if len(seq) == 0 {
		return nil
	}
	if len(seq) > t.cfg.MaxSeqLen {
		ctxs := make([][]Token, len(seq))
		for p := range seq {
			ctxs[p] = ClampWindow(t, seq[:p])
		}
		return t.ScoreBatch(ctxs)
	}
	out := make([][]float64, len(seq))
	out[0] = t.NextLogProbs(nil)
	if len(seq) == 1 {
		return out
	}
	logits, _, _, _, _, _ := t.forward(seq[:len(seq)-1])
	for p := 1; p < len(seq); p++ {
		row := logits[p-1]
		Normalize(row)
		out[p] = row
	}
	return out
}

// projectRow applies the tied output head to one final-layer-norm row,
// in the same accumulation order as ScoreBatch and forward.
func (t *Transformer) projectRow(n []float64) []float64 {
	row := make([]float64, t.vocab)
	for v := 0; v < t.vocab; v++ {
		s := 0.0
		e := t.wte[v]
		for j := 0; j < t.cfg.DModel; j++ {
			s += n[j] * e[j]
		}
		row[v] = s
	}
	return row
}

// inferKV is inferPacked over a single sequence, additionally returning the
// layer's K/V rows for reuse by later extensions.
func (b *block) inferKV(x [][]float64) ([][]float64, kvLayer) {
	n1, _, _ := b.ln1.forward(x)
	q := matmul(n1, b.wq.val, b.bq.val[0], b.dModel)
	k := matmul(n1, b.wk.val, b.bk.val[0], b.dModel)
	v := matmul(n1, b.wv.val, b.bv.val[0], b.dModel)

	T := len(x)
	ctxv := zeros(T, b.dModel)
	scale := 1 / math.Sqrt(float64(b.dHead))
	for h := 0; h < b.nHeads; h++ {
		off := h * b.dHead
		for i := 0; i < T; i++ {
			row := make([]float64, i+1)
			maxv := math.Inf(-1)
			for j := 0; j <= i; j++ {
				sc := 0.0
				for d := 0; d < b.dHead; d++ {
					sc += q[i][off+d] * k[j][off+d]
				}
				sc *= scale
				row[j] = sc
				if sc > maxv {
					maxv = sc
				}
			}
			z := 0.0
			for j := range row {
				row[j] = math.Exp(row[j] - maxv)
				z += row[j]
			}
			for j := 0; j <= i; j++ {
				w := row[j] / z
				for d := 0; d < b.dHead; d++ {
					ctxv[i][off+d] += w * v[j][off+d]
				}
			}
		}
	}
	return b.finishBlock(x, ctxv), kvLayer{k: k, v: v}
}

// extendStep advances the block for one new position per row: attention for
// row r runs over r's cached rows plus its own fresh K/V row, and the child
// layer cache is the parent's row pointers with the new row appended.
func (b *block) extendStep(x [][]float64, sts []*transformerState, bi int, newLayers [][]kvLayer) [][]float64 {
	n1, _, _ := b.ln1.forward(x)
	q := matmul(n1, b.wq.val, b.bq.val[0], b.dModel)
	k := matmul(n1, b.wk.val, b.bk.val[0], b.dModel)
	v := matmul(n1, b.wv.val, b.bv.val[0], b.dModel)

	B := len(x)
	ctxv := zeros(B, b.dModel)
	scale := 1 / math.Sqrt(float64(b.dHead))
	for r := 0; r < B; r++ {
		cached := sts[r].layers[bi]
		pos := len(cached.k)
		for h := 0; h < b.nHeads; h++ {
			off := h * b.dHead
			row := make([]float64, pos+1)
			maxv := math.Inf(-1)
			for j := 0; j <= pos; j++ {
				kj := k[r]
				if j < pos {
					kj = cached.k[j]
				}
				sc := 0.0
				for d := 0; d < b.dHead; d++ {
					sc += q[r][off+d] * kj[off+d]
				}
				sc *= scale
				row[j] = sc
				if sc > maxv {
					maxv = sc
				}
			}
			z := 0.0
			for j := range row {
				row[j] = math.Exp(row[j] - maxv)
				z += row[j]
			}
			for j := 0; j <= pos; j++ {
				vj := v[r]
				if j < pos {
					vj = cached.v[j]
				}
				w := row[j] / z
				for d := 0; d < b.dHead; d++ {
					ctxv[r][off+d] += w * vj[off+d]
				}
			}
		}
		ck := make([][]float64, pos+1)
		copy(ck, cached.k)
		ck[pos] = k[r]
		cv := make([][]float64, pos+1)
		copy(cv, cached.v)
		cv[pos] = v[r]
		newLayers[r][bi] = kvLayer{k: ck, v: cv}
	}
	return b.finishBlock(x, ctxv)
}

// finishBlock runs the post-attention stages shared by all inference paths:
// output projection, residual, second layer norm, feed-forward, residual.
func (b *block) finishBlock(x, ctxv [][]float64) [][]float64 {
	attnOut := matmul(ctxv, b.wo.val, b.bo.val[0], b.dModel)
	res1 := zeros(len(x), b.dModel)
	for i := range res1 {
		for j := range res1[i] {
			res1[i][j] = x[i][j] + attnOut[i][j]
		}
	}
	n2, _, _ := b.ln2.forward(res1)
	ff1 := matmul(n2, b.wf1.val, b.bf1.val[0], b.dFF)
	for i := range ff1 {
		for j, vv := range ff1[i] {
			ff1[i][j] = gelu(vv)
		}
	}
	out := matmul(ff1, b.wf2.val, b.bf2.val[0], b.dModel)
	for i := range out {
		for j := range out[i] {
			out[i][j] += res1[i][j]
		}
	}
	return out
}
