package device

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// Regression coverage for ExtendBatch with heterogeneous states in ONE
// dispatch. The incremental test suites only ever extend frontiers whose
// states share a depth (siblings of one parent); a fused device makes
// mixed-depth dispatches the common case — rows from different queries sit
// at unrelated prefix depths — so the packed extension must be pinned as
// depth-independent: each row conditions on exactly its own prefix.

func newIncrDevice(maxBatch int) (*Device, *model.Transformer) {
	lm := model.NewTransformer(32, 31, model.TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 24, Seed: 5,
	})
	return New(lm, DefaultLatency(), maxBatch), lm
}

func mixedContexts() [][]model.Token {
	return [][]model.Token{
		{1},
		{2, 3, 4},
		{5, 6, 7, 8, 9},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2},
		{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3},
	}
}

// TestExtendBatchMixedDepths: states prefilled at depths 1..16 extended in a
// single ExtendBatch dispatch must each reproduce, bit-exactly, the full
// forward over their own context — no row may read a neighbour's depth.
func TestExtendBatchMixedDepths(t *testing.T) {
	d, lm := newIncrDevice(64)
	ctxs := mixedContexts()
	states, _ := must2(d.Prefill(ctxs))
	tokens := make([]model.Token, len(ctxs))
	for i := range tokens {
		tokens[i] = model.Token(10 + i)
	}

	outStates, rows := must2(d.ExtendBatch(states, tokens))
	for i, ctx := range ctxs {
		full := append(append([]model.Token{}, ctx...), tokens[i])
		want := lm.NextLogProbs(model.ClampWindow(lm, full))
		if !reflect.DeepEqual(rows[i], want) {
			t.Errorf("row %d (depth %d): mixed-depth extension differs from full forward", i, len(ctx))
		}
		if got := outStates[i].Context(); !reflect.DeepEqual(got, model.ClampWindow(lm, full)) {
			t.Errorf("row %d: extended state context = %v, want %v", i, got, full)
		}
	}
}

// TestExtendBatchMixedDepthsChunked: the same mixed-depth dispatch split
// across device chunks (maxBatch 4 over 6 rows) and worker shards must not
// change any row — chunk boundaries land between unrelated depths.
func TestExtendBatchMixedDepthsChunked(t *testing.T) {
	d, _ := newIncrDevice(4)
	pool := NewPool(3)
	defer pool.Close()
	d.SetPool(pool)
	ref, _ := newIncrDevice(64)

	ctxs := mixedContexts()
	states, _ := must2(d.Prefill(ctxs))
	refStates, _ := must2(ref.Prefill(ctxs))
	tokens := make([]model.Token, len(ctxs))
	for i := range tokens {
		tokens[i] = model.Token(20 + i)
	}

	_, rows := must2(d.ExtendBatch(states, tokens))
	_, want := must2(ref.ExtendBatch(refStates, tokens))
	if !reflect.DeepEqual(rows, want) {
		t.Error("chunked mixed-depth extension differs from single-chunk dispatch")
	}
}

// TestExtendBatchMixedStateKinds: a dispatch mixing transformer decode
// states with a foreign window state (the generic CtxState a non-stateful
// substrate produces) must serve every row correctly — the packed path falls
// back to an internal prefill for rows it cannot extend in place.
func TestExtendBatchMixedStateKinds(t *testing.T) {
	d, lm := newIncrDevice(64)
	ctxA := []model.Token{1, 2, 3}
	ctxB := []model.Token{4, 5}
	stA, _ := lm.Prefill(ctxA)
	stB := &model.CtxState{Toks: ctxB} // generic state, not transformer-extendable

	_, rows := must2(d.ExtendBatch([]model.DecodeState{stA, stB}, []model.Token{6, 7}))
	wantA := lm.NextLogProbs([]model.Token{1, 2, 3, 6})
	wantB := lm.NextLogProbs([]model.Token{4, 5, 7})
	if !reflect.DeepEqual(rows[0], wantA) {
		t.Error("transformer-state row differs when mixed with a foreign state")
	}
	if !reflect.DeepEqual(rows[1], wantB) {
		t.Error("foreign-state row differs when mixed with transformer states")
	}
}

// TestExtendBatchMixedDepthsAccounting: an extension dispatch is priced at
// one token per sequence regardless of the states' depths — that is the
// incremental saving the virtual clock exists to show.
func TestExtendBatchMixedDepthsAccounting(t *testing.T) {
	d, _ := newIncrDevice(64)
	ctxs := mixedContexts()
	states, _ := must2(d.Prefill(ctxs))
	d.Reset()
	tokens := make([]model.Token, len(ctxs))
	d.ExtendBatch(states, tokens)
	st := d.Stats()
	if st.Tokens != int64(len(ctxs)) {
		t.Errorf("extend charged %d tokens for %d mixed-depth rows, want one each", st.Tokens, len(ctxs))
	}
	if want := DefaultLatency().Cost(len(ctxs), len(ctxs)); st.Clock != want {
		t.Errorf("extend clock = %v, want %v", st.Clock, want)
	}
}
