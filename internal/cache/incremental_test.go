package cache

import (
	"slices"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

func testTransformer(tb testing.TB) (*model.Transformer, *tokenizer.BPE) {
	tb.Helper()
	lines := []string{"the cat sat on the mat", "the dog ran in the park"}
	tok := tokenizer.Train(lines, 60)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 24, Epochs: 1, Seed: 1,
	})
	return lm, tok
}

// TestIncrementalPublishWarmsLRU: rows computed by delegated prefill/extend
// must land in the LRU so full-path requests for the same contexts hit.
func TestIncrementalPublishWarmsLRU(t *testing.T) {
	lm, tok := testTransformer(t)
	c := New(lm, 128)
	ctx := tok.Encode("the cat sat")
	st, _ := c.Prefill(ctx)
	next := tok.Encode(" on")[0]
	c.ExtendBatch([]model.DecodeState{st}, []model.Token{next})

	h0, m0 := c.Stats()
	extended := append(append([]model.Token{}, ctx...), next)
	c.ScoreBatch([][]model.Token{ctx, extended})
	h1, m1 := c.Stats()
	if h1-h0 != 2 || m1 != m0 {
		t.Fatalf("full path after incremental: +%d hits +%d misses, want 2 hits 0 misses", h1-h0, m1-m0)
	}
}

// TestScoreAllPositionsFastPath: every row of an all-positions call, the
// first and a repeat, matches the per-position path. (A repeat is scored
// again here; an all-hit sequence is answered by the device's resident probe
// before it reaches the cache's ScoreAllPositions.)
func TestScoreAllPositionsFastPath(t *testing.T) {
	lm, tok := testTransformer(t)
	c := New(lm, 128)
	seq := tok.Encode("the dog ran in")
	first := c.ScoreAllPositions(seq)
	second := c.ScoreAllPositions(seq)
	for p := range seq {
		want := lm.NextLogProbs(model.ClampWindow(lm, seq[:p]))
		if !slices.Equal(first[p], want) || !slices.Equal(second[p], want) {
			t.Fatalf("row %d diverges from NextLogProbs", p)
		}
	}
}

// TestWindowModelIncrementalUsesLRU: a window model reaching Prefill or
// ExtendBatch gets the generic window states, rows bit-identical to
// NextLogProbs on the clamped context, and those rows published into the
// LRU, so a later ScoreBatch of the context is a hit.
func TestWindowModelIncrementalUsesLRU(t *testing.T) {
	lines := []string{"the cat sat on the mat"}
	tok := tokenizer.Train(lines, 60)
	ng := model.TrainNGram(lines, tok, model.NGramConfig{Order: 3, MaxSeqLen: 4})
	c := New(ng, 128)
	ctx := tok.Encode("the cat sat on the")
	next := tok.Encode(" mat")[0]
	st, lp := c.Prefill(ctx)
	ext, rows := c.ExtendBatch([]model.DecodeState{st}, []model.Token{next})

	extended := append(append([]model.Token{}, ctx...), next)
	for _, r := range []struct {
		name string
		ctx  []model.Token
		st   model.DecodeState
		lp   []float64
	}{{"Prefill", ctx, st, lp}, {"ExtendBatch", extended, ext[0], rows[0]}} {
		clamped := model.ClampWindow(ng, r.ctx)
		if !slices.Equal(r.st.Context(), clamped) {
			t.Errorf("%s state holds %v, want the clamped context %v", r.name, r.st.Context(), clamped)
		}
		if !slices.Equal(r.lp, ng.NextLogProbs(clamped)) {
			t.Errorf("%s row differs from NextLogProbs on the clamped context", r.name)
		}
	}

	h0, m0 := c.Stats()
	c.ScoreBatch([][]model.Token{model.ClampWindow(ng, ctx), model.ClampWindow(ng, extended)})
	if h, m := c.Stats(); h-h0 != 2 || m != m0 {
		t.Fatalf("ScoreBatch after Prefill/ExtendBatch: +%d hits +%d misses, want 2 hits 0 misses", h-h0, m-m0)
	}
}

// BenchmarkScoreBatchHitAllocs measures hot-path allocations on an all-hit
// batch: with the pooled key encoder the classification pass allocates
// nothing per row beyond the returned copies.
func BenchmarkScoreBatchHitAllocs(b *testing.B) {
	lines := []string{"the cat sat on the mat"}
	tok := tokenizer.Train(lines, 60)
	ng := model.TrainNGram(lines, tok, model.NGramConfig{Order: 3, MaxSeqLen: 24})
	c := New(ng, 128)
	ctxs := make([][]model.Token, 16)
	for i := range ctxs {
		ctxs[i] = tok.Encode("the cat sat on the mat")[:1+i%4]
	}
	c.ScoreBatch(ctxs) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScoreBatch(ctxs)
	}
}
