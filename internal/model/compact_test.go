package model

import (
	"math"
	"testing"
)

// TestHalfCodecRoundTrip walks every binary16 bit pattern: unpack to float64
// and pack back. All non-NaN values must reproduce their exact bits (packHalf
// canonicalizes NaN payloads, so NaN just has to come back as some NaN).
func TestHalfCodecRoundTrip(t *testing.T) {
	for h := 0; h < 1<<16; h++ {
		v := unpackHalf(uint16(h))
		got := packHalf(v)
		if math.IsNaN(v) {
			if got&0x7c00 != 0x7c00 || got&0x3ff == 0 {
				t.Fatalf("half %#04x: NaN did not pack to NaN (got %#04x)", h, got)
			}
			continue
		}
		if got != uint16(h) {
			t.Fatalf("half %#04x (= %g) round-tripped to %#04x", h, v, got)
		}
	}
}

// TestPackHalfRounding pins round-to-nearest-even on the boundaries the
// codec has to get right: overflow to infinity, subnormal ties, and the
// rounding carry into the exponent.
func TestPackHalfRounding(t *testing.T) {
	cases := []struct {
		v    float64
		want uint16
	}{
		{0, 0x0000},
		{math.Copysign(0, -1), 0x8000},
		{1, 0x3c00},
		{-2, 0xc000},
		{65504, 0x7bff},   // largest finite half
		{65520, 0x7c00},   // rounds up out of range: +inf
		{65519.9, 0x7bff}, // just under the midpoint stays finite
		{math.Inf(1), 0x7c00},
		{math.Inf(-1), 0xfc00},
		{0x1p-24, 0x0001},           // smallest subnormal
		{0x1p-25, 0x0000},           // tie rounds to even (zero)
		{0x1.8p-24, 0x0002},         // tie at 1.5 ulp rounds to even (2)
		{0x1p-25 + 0x1p-30, 0x0001}, // just over the tie rounds up
		{0x1p-26, 0x0000},           // underflow
		{1 + 0x1p-11, 0x3c00},       // tie rounds to even mantissa
		{1 + 0x1.8p-10, 0x3c02},     // tie above odd mantissa rounds up
		{0x1.ffep-1, 0x3c00},        // rounding carry crosses the exponent: 1.0
	}
	for _, c := range cases {
		if got := packHalf(c.v); got != c.want {
			t.Errorf("packHalf(%g) = %#04x, want %#04x", c.v, got, c.want)
		}
	}
}

// syntheticState builds a transformerState with hand-chosen row values —
// the Compact/Expand paths only consult cfg.DModel and the layers.
func syntheticState(dModel, layers int, toks []Token, fill func(layer, pos, j int) float64) *transformerState {
	st := &transformerState{
		t:      &Transformer{cfg: TransformerConfig{DModel: dModel}},
		toks:   toks,
		layers: make([]kvLayer, layers),
	}
	n := len(toks)
	for li := range st.layers {
		k := make([][]float64, n)
		v := make([][]float64, n)
		for p := 0; p < n; p++ {
			k[p] = make([]float64, dModel)
			v[p] = make([]float64, dModel)
			for j := 0; j < dModel; j++ {
				k[p][j] = fill(li, p, j)
				v[p][j] = -fill(li, p, j+1)
			}
		}
		st.layers[li] = kvLayer{k: k, v: v}
	}
	return st
}

// TestCompactLosslessExactRows: float32-clean rows pack to f32 buffers and
// expand bit-for-bit.
func TestCompactLosslessExactRows(t *testing.T) {
	st := syntheticState(4, 2, []Token{3, 1, 4, 1, 5}, func(l, p, j int) float64 {
		return float64(float32(0.37*float64(l+1) + 0.11*float64(p) - 0.05*float64(j)))
	})
	cs, ok := st.Compact(CompressLossless)
	if !ok {
		t.Fatal("f32-clean state declined lossless compaction")
	}
	if cs.Tier() != CompressLossless {
		t.Fatalf("tier = %v", cs.Tier())
	}
	if cs.Len() != st.Len() || len(cs.Context()) != len(st.toks) {
		t.Fatal("compact state lost its context")
	}
	if cs.SizeBytes() >= st.SizeBytes() {
		t.Fatalf("compact (%d bytes) not smaller than full (%d bytes)", cs.SizeBytes(), st.SizeBytes())
	}
	ex, ok := cs.Expand()
	if !ok {
		t.Fatal("f32 compact failed to expand")
	}
	et := ex.(*transformerState)
	for li := range st.layers {
		for p := range st.layers[li].k {
			if !rowsEqual(st.layers[li].k[p], et.layers[li].k[p]) ||
				!rowsEqual(st.layers[li].v[p], et.layers[li].v[p]) {
				t.Fatalf("layer %d pos %d rows not bit-identical after expand", li, p)
			}
		}
	}
}

// TestCompactLosslessFallsBackToTokens: any value that is not float32-exact
// forces the token-only form, whose Expand reports ok=false so callers
// recompute via Prefill — the byte-identity guarantee.
func TestCompactLosslessFallsBackToTokens(t *testing.T) {
	st := syntheticState(4, 2, []Token{7, 2, 9}, func(l, p, j int) float64 {
		return 0.1 * float64(l+p+j+1) // 0.1 is not float32-exact
	})
	cs, ok := st.Compact(CompressLossless)
	if !ok {
		t.Fatal("state declined lossless compaction")
	}
	if _, ok := cs.Expand(); ok {
		t.Fatal("token-only compact claimed exact expansion")
	}
	if cs.Len() != 3 {
		t.Fatalf("Len = %d", cs.Len())
	}
	if full, compact := st.SizeBytes(), cs.SizeBytes(); compact*4 >= full {
		t.Fatalf("token-only form too large: %d vs full %d", compact, full)
	}
}

// TestCompactAggressiveHalfRows: the 2-byte tier always expands; values
// come back as their nearest half-precision representations at ~1/4 the
// bytes of the full state.
func TestCompactAggressiveHalfRows(t *testing.T) {
	st := syntheticState(6, 2, []Token{1, 2, 3, 4}, func(l, p, j int) float64 {
		return math.Sin(float64(l*100+p*10+j)) * 3.7
	})
	cs, ok := st.Compact(CompressAggressive)
	if !ok {
		t.Fatal("state declined aggressive compaction")
	}
	if cs.Tier() != CompressAggressive {
		t.Fatalf("tier = %v", cs.Tier())
	}
	if full, compact := st.SizeBytes(), cs.SizeBytes(); compact*3 >= full {
		t.Fatalf("aggressive form only reached %d bytes vs full %d", compact, full)
	}
	ex, ok := cs.Expand()
	if !ok {
		t.Fatal("aggressive compact failed to expand")
	}
	et := ex.(*transformerState)
	for li := range st.layers {
		for p := range st.layers[li].k {
			for j, want := range st.layers[li].k[p] {
				got := et.layers[li].k[p][j]
				if got != unpackHalf(packHalf(want)) {
					t.Fatalf("layer %d pos %d col %d: %g not the half rounding of %g", li, p, j, got, want)
				}
			}
		}
	}
}

// TestCompactDeclines: CompressNone and the anchored root (whose rows belong
// to the EOS anchor) must refuse to compact.
func TestCompactDeclines(t *testing.T) {
	lm, _ := trainTestTransformer(t, 12)
	root, _ := lm.Prefill(nil)
	if _, ok := root.(*transformerState).Compact(CompressLossless); ok {
		t.Fatal("anchored root agreed to compact")
	}
	st := syntheticState(4, 1, []Token{1, 2}, func(l, p, j int) float64 { return 1 })
	if _, ok := st.Compact(CompressNone); ok {
		t.Fatal("CompressNone agreed to compact")
	}
}

// TestCompactExpandedStateExtends: a state expanded from the aggressive tier
// must keep working as a decode state — extending it produces the same rows
// as extending a state prefilled from half-rounded values would, and the
// expanded chain stays self-consistent under ExtendBatch. The expanded state
// and its extension are marked inexact; a prefilled state and its extension
// are not.
func TestCompactExpandedStateExtends(t *testing.T) {
	lm, tok := trainTestTransformer(t, 24)
	seq := tok.Encode("the cat sat on the mat")
	if len(seq) < 4 {
		t.Fatalf("test sequence too short: %d", len(seq))
	}
	st, _ := lm.Prefill(seq[:3])
	cs, ok := st.(*transformerState).Compact(CompressAggressive)
	if !ok {
		t.Fatal("prefilled state declined aggressive compaction")
	}
	ex, ok := cs.Expand()
	if !ok {
		t.Fatal("aggressive compact failed to expand")
	}
	states, rows := lm.ExtendBatch([]DecodeState{ex, st}, []Token{seq[3], seq[3]})
	if states[0].Len() != 4 {
		t.Fatalf("extended state length %d", states[0].Len())
	}
	if Exact(ex) || Exact(states[0]) || !Exact(st) || !Exact(states[1]) {
		t.Fatalf("exact marks: expanded %t, its extension %t, prefilled %t, its extension %t; want false, false, true, true",
			Exact(ex), Exact(states[0]), Exact(st), Exact(states[1]))
	}
	full := lm.NextLogProbs(seq[:4])
	for i := range rows[0] {
		if math.Abs(rows[0][i]-full[i]) > 0.3 {
			t.Fatalf("half-precision extension drifted %.3f at token %d", rows[0][i]-full[i], i)
		}
	}
	// The lossless path through a trained model must stay byte-identical:
	// compact falls back to tokens, and the recompute path is Prefill itself.
	lcs, ok := st.(*transformerState).Compact(CompressLossless)
	if !ok {
		t.Fatal("prefilled state declined lossless compaction")
	}
	if re, exact := lcs.Expand(); exact {
		rt := re.(*transformerState)
		for li := range rt.layers {
			for p := range rt.layers[li].k {
				if !rowsEqual(rt.layers[li].k[p], st.(*transformerState).layers[li].k[p]) {
					t.Fatal("lossless expand claimed exact but rows differ")
				}
			}
		}
	} else {
		rst, rrows := lm.Prefill(lcs.Context())
		wantSt, wantRows := lm.Prefill(seq[:3])
		if !rowsEqual(rrows, wantRows) || rst.Len() != wantSt.Len() {
			t.Fatal("recompute-on-promote path not bit-identical to Prefill")
		}
	}
}
