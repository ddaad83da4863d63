package model

import "math"

// Inference for the Transformer (DESIGN.md decisions 6 and 10): every entry
// point — NextLogProbs, ScoreBatch, Prefill, ExtendBatch, ScoreAllPositions —
// is a thin caller of one packed forward (infer) and one attention kernel
// (attend). Row-wise stages run once over all segments' packed rows;
// attention loops within each segment. Only the rows a caller asks for are
// projected to the vocabulary. The training forward keeps its own code for
// its backward caches; inference keeps its arithmetic order exactly, so
// every entry point is bit-identical to it.

// kvLayer is one layer's cached attention rows, position-major.
type kvLayer struct {
	k, v [][]float64
}

// transformerState implements DecodeState with per-layer K/V rows. Rows
// are immutable once computed, so a child state shares its prefix rows with
// the parent by pointer: the frontier of a constrained traversal is a trie,
// and each node owns only its own token's rows. A state's fresh rows may
// share one packed buffer with its batch-mates'.
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

// segment is one sequence of a packed inference pass: toks run at positions
// pos, pos+1, ... after past's pos rows. A full context has no past; an
// extension runs one new token after its parent state.
type segment struct {
	toks     []Token
	past     *transformerState
	pos      int
	anchored bool // toks is the lone EOS anchor of the empty context
}

// window is the full-context segment the model conditions on for ctx: its
// last MaxSeqLen-1 tokens, or the lone EOS "begin" anchor for an empty
// context, matching how training windows begin at sequence starts.
func (t *Transformer) window(ctx []Token) segment {
	if len(ctx) >= t.cfg.MaxSeqLen {
		ctx = ctx[len(ctx)-t.cfg.MaxSeqLen+1:]
	}
	if len(ctx) == 0 {
		return segment{toks: []Token{t.eosTok}, anchored: true}
	}
	return segment{toks: ctx}
}

// infer is the one inference forward: it runs every segment through every
// block in a single packed pass and returns the final layer-norm rows and
// each block's K/V rows, packed segment after segment in the order of segs.
func (t *Transformer) infer(segs []segment) ([][]float64, []kvLayer) {
	rows, longest := 0, 0
	for _, s := range segs {
		rows += len(s.toks)
		longest = max(longest, s.pos+len(s.toks))
	}
	x := zeros(rows, t.cfg.DModel)
	r := 0
	for _, s := range segs {
		for p, tok := range s.toks {
			e, pe := t.wte[tok], t.wpe[s.pos+p]
			for j := range x[r] {
				x[r][j] = e[j] + pe[j]
			}
			r++
		}
	}
	scores := make([]float64, longest)
	kv := make([]kvLayer, len(t.blks))
	for bi, blk := range t.blks {
		x, kv[bi] = blk.infer(x, segs, bi, scores)
	}
	n, _, _ := t.lnF.forward(x)
	return n, kv
}

// next applies the tied output head to one final layer-norm row, in the
// training forward's accumulation order, and normalizes it into next-token
// log-probs.
func (t *Transformer) next(n []float64) []float64 {
	row := make([]float64, t.vocab)
	for v := range row {
		s := 0.0
		e := t.wte[v]
		for j := 0; j < t.cfg.DModel; j++ {
			s += n[j] * e[j]
		}
		row[v] = s
	}
	Normalize(row)
	return row
}

// infer runs the block over packed segments without backward caches and
// returns its output and the K/V rows of every packed token. Block bi's
// past rows come from each extension segment's parent state.
func (b *block) infer(x [][]float64, segs []segment, bi int, scores []float64) ([][]float64, kvLayer) {
	n1, _, _ := b.ln1.forward(x)
	q := matmul(n1, b.wq.val, b.bq.val[0], b.dModel)
	k := matmul(n1, b.wk.val, b.bk.val[0], b.dModel)
	v := matmul(n1, b.wv.val, b.bv.val[0], b.dModel)

	ctxv := zeros(len(x), b.dModel)
	lo := 0
	for _, s := range segs {
		var past kvLayer
		if s.past != nil {
			past = s.past.layers[bi]
		}
		for i := lo; i < lo+len(s.toks); i++ {
			b.attend(q[i], past.k, past.v, k[lo:i+1], v[lo:i+1], scores, ctxv[i])
		}
		lo += len(s.toks)
	}

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
	return out, kvLayer{k: k, v: v}
}

// attend is the inference attention kernel: it adds to out the causal
// attention of query row q over the past rows and then the fresh rows (the
// last of which is the query's own), head by head, in the training
// forward's order — scores, their max, exp, z, then each weight
// scores[j]/z. scores is scratch of at least len(pastK)+len(k) floats.
func (b *block) attend(q []float64, pastK, pastV, k, v [][]float64, scores, out []float64) {
	scores = scores[:len(pastK)+len(k)]
	scale := 1 / math.Sqrt(float64(b.dHead))
	for h := 0; h < b.nHeads; h++ {
		off := h * b.dHead
		maxv := math.Inf(-1)
		for j := range scores {
			kj := kvRow(pastK, k, j)
			s := 0.0
			for d := 0; d < b.dHead; d++ {
				s += q[off+d] * kj[off+d]
			}
			s *= scale
			scores[j] = s
			if s > maxv {
				maxv = s
			}
		}
		z := 0.0
		for j := range scores {
			scores[j] = math.Exp(scores[j] - maxv)
			z += scores[j]
		}
		for j := range scores {
			vj := kvRow(pastV, v, j)
			w := scores[j] / z
			for d := 0; d < b.dHead; d++ {
				out[off+d] += w * vj[off+d]
			}
		}
	}
}

// kvRow is row j of past followed by fresh.
func kvRow(past, fresh [][]float64, j int) []float64 {
	if j < len(past) {
		return past[j]
	}
	return fresh[j-len(past)]
}

// NextLogProbs implements LanguageModel.
func (t *Transformer) NextLogProbs(ctx []Token) []float64 {
	return t.ScoreBatch([][]Token{ctx})[0]
}

// ScoreBatch implements LanguageModel with one packed forward over the
// batch, projecting only each context's last row.
func (t *Transformer) ScoreBatch(ctxs [][]Token) [][]float64 {
	if len(ctxs) == 0 {
		return nil
	}
	segs := make([]segment, len(ctxs))
	for i, ctx := range ctxs {
		segs[i] = t.window(ctx)
	}
	n, _ := t.infer(segs)
	out := make([][]float64, len(segs))
	r := 0
	for i, s := range segs {
		r += len(s.toks)
		out[i] = t.next(n[r-1])
	}
	return out
}

// Prefill implements Incremental: one forward over ctx (clamped and
// anchored exactly as NextLogProbs clamps), keeping every layer's K/V rows.
func (t *Transformer) Prefill(ctx []Token) (DecodeState, []float64) {
	states, rows := t.decode([]segment{t.window(ctx)})
	return states[0], rows[0]
}

// ExtendBatch implements Incremental in one packed forward: a row runs its
// new token after its parent's cached rows, or — for a foreign state, the
// anchored root, or a context at the window edge, where extension would
// slide the position embeddings — its whole extended context.
func (t *Transformer) ExtendBatch(states []DecodeState, tokens []Token) ([]DecodeState, [][]float64) {
	segs := make([]segment, len(states))
	for i, st := range states {
		if ts, ok := st.(*transformerState); ok && ts.t == t && !ts.anchored &&
			len(ts.toks)+1 <= t.cfg.MaxSeqLen-1 {
			segs[i] = segment{toks: tokens[i : i+1], past: ts, pos: len(ts.toks)}
			continue
		}
		prev := st.Context()
		segs[i] = t.window(append(append(make([]Token, 0, len(prev)+1), prev...), tokens[i]))
	}
	return t.decode(segs)
}

// decode runs segs through one forward and returns each segment's state —
// its past's rows followed by its own — and next-token log-probs.
func (t *Transformer) decode(segs []segment) ([]DecodeState, [][]float64) {
	n, kv := t.infer(segs)
	states := make([]DecodeState, len(segs))
	rows := make([][]float64, len(segs))
	lo := 0
	for i, s := range segs {
		hi := lo + len(s.toks)
		st := &transformerState{t: t, anchored: s.anchored, layers: make([]kvLayer, len(kv))}
		var prev []Token
		if s.past != nil {
			prev = s.past.toks
		}
		if !s.anchored {
			st.toks = append(append(make([]Token, 0, len(prev)+len(s.toks)), prev...), s.toks...)
		}
		// One row-pointer array per state holds every layer's K and V rows.
		ptrs := make([][]float64, 0, 2*len(kv)*(s.pos+len(s.toks)))
		for bi, l := range kv {
			var pl kvLayer
			if s.past != nil {
				pl = s.past.layers[bi]
			}
			at := len(ptrs)
			ptrs = append(append(ptrs, pl.k...), l.k[lo:hi]...)
			st.layers[bi].k = ptrs[at:len(ptrs):len(ptrs)]
			at = len(ptrs)
			ptrs = append(append(ptrs, pl.v...), l.v[lo:hi]...)
			st.layers[bi].v = ptrs[at:len(ptrs):len(ptrs)]
		}
		states[i], rows[i] = st, t.next(n[hi-1])
		lo = hi
	}
	return states, rows
}

// ScoreAllPositions implements AllPositions with one forward: row 0 is the
// anchored empty context, and row p of the segment seq[:len(seq)-1]
// conditions on exactly seq[:p+1]. Sequences beyond the window need sliding
// per-position contexts, so they are scored as a batch of clamped ones.
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
	n, _ := t.infer([]segment{t.window(nil), {toks: seq[:len(seq)-1]}})
	out := make([][]float64, len(seq))
	for p := range out {
		out[p] = t.next(n[p])
	}
	return out
}
