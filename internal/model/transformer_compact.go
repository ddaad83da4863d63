package model

// Compaction for transformerState (DESIGN.md decision 14). A demoted state
// packs the full K/V chain — prefix rows included — into one contiguous
// buffer per layer: compact states stand alone, so the arena can sever the
// trie link and the parent can be evicted or demoted independently. The
// price is that a deep child's compact form covers the whole chain, not just
// its exclusive rows; the arena declines demotions that would not shrink.
//
// Lossless packing checks every value for float32-exactness while packing.
// Training and inference arithmetic runs in float64, so most activations
// carry low-order bits a float32 cannot hold; when any value fails the
// check, the state compacts to its token context alone — the strongest
// compression there is — and promotion recomputes via Prefill, which is
// bit-exact by construction. The f32 buffer path exists for states whose
// rows are float32-clean (quantized or synthetic weights) and re-expands
// exactly. The aggressive tier packs 2-byte halves and always re-expands,
// approximately.

// compactTransformerState is a demoted transformerState. Exactly one of
// f32/f16 is non-nil, or both are nil (token-only: promote by recompute).
type compactTransformerState struct {
	t    *Transformer
	toks []Token
	tier CompressTier
	n    int // K/V rows per layer in the packed buffers
	// Per-layer packed rows, length 2*n*d each: K rows position-major in
	// [0, n*d), V rows in [n*d, 2*n*d).
	f32 [][]float32
	f16 [][]uint16
}

// Len implements DecodeState.
func (c *compactTransformerState) Len() int { return len(c.toks) }

// Context implements DecodeState.
func (c *compactTransformerState) Context() []Token { return c.toks }

// SizeBytes implements DecodeState: the packed buffers (element bytes plus a
// slice header per layer), the token slice, and fixed overhead.
func (c *compactTransformerState) SizeBytes() int64 {
	var buf int64
	elems := int64(2*c.n) * int64(c.t.cfg.DModel)
	switch {
	case c.f32 != nil:
		buf = int64(len(c.f32)) * (elems*4 + 24)
	case c.f16 != nil:
		buf = int64(len(c.f16)) * (elems*2 + 24)
	}
	return buf + int64(len(c.toks))*8 + 96
}

// Tier implements CompactState.
func (c *compactTransformerState) Tier() CompressTier { return c.tier }

// Expand implements CompactState: rebuild a full-precision state with fresh
// rows. Token-only compacts report ok=false — the caller recomputes via
// Prefill. The expanded state shares nothing, so it carries its full
// SizeBytes and extends incrementally like any prefilled state. One expanded
// from half precision is marked Inexact, and so is every extension of it.
func (c *compactTransformerState) Expand() (DecodeState, bool) {
	if c.f32 == nil && c.f16 == nil {
		return nil, false
	}
	d := c.t.cfg.DModel
	st := &transformerState{
		t:      c.t,
		toks:   append(make([]Token, 0, len(c.toks)), c.toks...),
		approx: c.f16 != nil,
		layers: make([]kvLayer, len(c.f32)+len(c.f16)),
	}
	for li := range st.layers {
		flat := make([]float64, 2*c.n*d)
		if c.f32 != nil {
			for i, v := range c.f32[li] {
				flat[i] = float64(v)
			}
		} else {
			for i, h := range c.f16[li] {
				flat[i] = unpackHalf(h)
			}
		}
		k := make([][]float64, c.n)
		v := make([][]float64, c.n)
		for p := 0; p < c.n; p++ {
			k[p] = flat[p*d : (p+1)*d : (p+1)*d]
			v[p] = flat[(c.n+p)*d : (c.n+p+1)*d : (c.n+p+1)*d]
		}
		st.layers[li] = kvLayer{k: k, v: v}
	}
	return st, true
}

// Compact implements Compactor. The anchored root declines: its rows belong
// to the EOS anchor, it is a single tiny state, and it can never be extended
// incrementally anyway.
func (s *transformerState) Compact(tier CompressTier) (CompactState, bool) {
	if tier == CompressNone || s.anchored || len(s.toks) == 0 {
		return nil, false
	}
	n := s.positions()
	d := s.t.cfg.DModel
	c := &compactTransformerState{
		t:    s.t,
		toks: append(make([]Token, 0, len(s.toks)), s.toks...),
		tier: tier,
		n:    n,
	}
	switch tier {
	case CompressAggressive:
		c.f16 = make([][]uint16, len(s.layers))
		for li, l := range s.layers {
			buf := make([]uint16, 2*n*d)
			for p, row := range l.k {
				for j, v := range row {
					buf[p*d+j] = packHalf(v)
				}
			}
			for p, row := range l.v {
				for j, v := range row {
					buf[(n+p)*d+j] = packHalf(v)
				}
			}
			c.f16[li] = buf
		}
	default: // CompressLossless
		f32 := make([][]float32, len(s.layers))
		for li, l := range s.layers {
			buf := make([]float32, 2*n*d)
			for p, row := range l.k {
				for j, v := range row {
					if !f32Exact(v) {
						return c, true // token-only: promote by recompute
					}
					buf[p*d+j] = float32(v)
				}
			}
			for p, row := range l.v {
				for j, v := range row {
					if !f32Exact(v) {
						return c, true
					}
					buf[(n+p)*d+j] = float32(v)
				}
			}
			f32[li] = buf
		}
		c.f32 = f32
	}
	return c, true
}
