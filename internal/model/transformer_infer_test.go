package model

import (
	"sync"
	"testing"

	"repro/internal/tokenizer"
)

func batchTestModel(t *testing.T) (*Transformer, *tokenizer.BPE) {
	t.Helper()
	lines := []string{
		"the cat sat on the mat",
		"the dog ran in the park",
		"the bird flew over the park",
	}
	tok := tokenizer.Train(lines, 60)
	lm := TrainTransformer(lines, tok, TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 2, DFF: 32, MaxSeqLen: 24, Epochs: 2, Seed: 3,
	})
	return lm, tok
}

// reference is the independent next-token row every inference entry point
// must reproduce: the training forward over ctx clamped to its last
// MaxSeqLen-1 tokens (the lone EOS anchor when empty), last row normalized.
func reference(lm *Transformer, ctx []Token) []float64 {
	if n := lm.MaxSeqLen() - 1; len(ctx) > n {
		ctx = ctx[len(ctx)-n:]
	}
	if len(ctx) == 0 {
		ctx = []Token{lm.EOS()}
	}
	logits, _, _, _, _, _ := lm.forward(ctx)
	row := logits[len(ctx)-1]
	Normalize(row)
	return row
}

// TestTransformerScoreBatchMatchesSerial checks the packed-batch forward
// against the training forward, context by context, bit for bit — including
// the edge cases the window special-cases (empty context, overflow).
func TestTransformerScoreBatchMatchesSerial(t *testing.T) {
	lm, tok := batchTestModel(t)
	long := tok.Encode("the cat sat on the mat the dog ran in the park the bird flew over the park")
	ctxs := [][]Token{
		tok.Encode("the cat"),
		tok.Encode("the dog ran"),
		{},   // empty: anchored to EOS
		long, // longer than the window: clamped
		tok.Encode("the"),
	}
	got := lm.ScoreBatch(ctxs)
	if len(got) != len(ctxs) {
		t.Fatalf("ScoreBatch returned %d rows, want %d", len(got), len(ctxs))
	}
	for i, ctx := range ctxs {
		if !rowsEqual(got[i], reference(lm, ctx)) {
			t.Fatalf("row %d differs from the training forward", i)
		}
		if !rowsEqual(lm.NextLogProbs(ctx), got[i]) {
			t.Fatalf("row %d: NextLogProbs differs from ScoreBatch", i)
		}
	}
}

// TestTransformerExtendBatchMixed prefills states across the window (the
// anchored root, short contexts, the last state that can still extend, and
// one beyond the window, clamped to its edge), then runs one ExtendBatch
// whose rows take every path at once — two children of one parent, a child
// of another parent, the anchored root, a foreign *CtxState, the last
// extendable state and the window edge. Every row and every child state is
// checked against the training forward.
func TestTransformerExtendBatchMixed(t *testing.T) {
	lm, tok := batchTestModel(t)
	seq := tok.Encode("the cat sat on the mat the dog ran in the park the bird flew over the park")
	edge := lm.MaxSeqLen() - 1 // a state this long cannot extend
	if len(seq) <= lm.MaxSeqLen() {
		t.Fatalf("test sequence too short (%d) to cross the window", len(seq))
	}
	prefill := func(ctx []Token) DecodeState {
		st, lp := lm.Prefill(ctx)
		if !rowsEqual(lp, reference(lm, ctx)) {
			t.Fatalf("prefill of %d tokens differs from the training forward", len(ctx))
		}
		if !tokensEqual(st.Context(), ClampWindow2(lm, ctx)) {
			t.Fatalf("prefill of %d tokens keeps context %v", len(ctx), st.Context())
		}
		return st
	}
	short, other, root := prefill(seq[:3]), prefill(seq[2:9]), prefill(nil)
	last, atEdge := prefill(seq[:edge-1]), prefill(seq)
	states := []DecodeState{short, root, short, &CtxState{Toks: seq[4:8]}, last, atEdge, other}
	toks := []Token{seq[3], seq[0], seq[5], seq[8], seq[edge-1], seq[1], seq[9]}

	children, rows := lm.ExtendBatch(states, toks)
	for i, st := range states {
		ctx := append(append([]Token{}, st.Context()...), toks[i])
		if !rowsEqual(rows[i], reference(lm, ctx)) {
			t.Fatalf("row %d differs from the training forward", i)
		}
		want := ClampWindow2(lm, ctx)
		if !tokensEqual(children[i].Context(), want) {
			t.Fatalf("row %d: child context %v, want %v", i, children[i].Context(), want)
		}
		// A child built in the shared packed pass must extend like a fresh
		// prefill of its context.
		next := seq[i]
		_, again := lm.ExtendBatch([]DecodeState{children[i]}, []Token{next})
		if !rowsEqual(again[0], reference(lm, append(want, next))) {
			t.Fatalf("row %d: child extends differently from the training forward", i)
		}
	}
}

// TestTransformerInferenceAllocs bounds the allocations of one Prefill, one
// 8-row ExtendBatch and one 4-context ScoreBatch on a fixed small model.
// The packed forward allocates per matrix, not per attention row: the
// readings are 63, 99 and 62, where a per-row scores buffer and per-row
// pointer copies took 182, 158 and 405.
func TestTransformerInferenceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	lm := NewTransformer(40, 39, TransformerConfig{DModel: 16, NHeads: 2, NLayers: 2, DFF: 32, MaxSeqLen: 48, Seed: 1})
	ctx := make([]Token, 31)
	for i := range ctx {
		ctx[i] = Token(i % 39)
	}
	parent, _ := lm.Prefill(ctx)
	states := make([]DecodeState, 8)
	toks := make([]Token, 8)
	for i := range states {
		states[i], toks[i] = parent, Token(i)
	}
	ctxs := [][]Token{ctx, ctx[:20], ctx[5:], ctx[:9]}
	for _, c := range []struct {
		name  string
		bound float64
		run   func()
	}{
		{"Prefill", 70, func() { lm.Prefill(ctx) }},
		{"ExtendBatch", 110, func() { lm.ExtendBatch(states, toks) }},
		{"ScoreBatch", 70, func() { lm.ScoreBatch(ctxs) }},
	} {
		if got := testing.AllocsPerRun(20, c.run); got > c.bound {
			t.Errorf("%s: %.0f allocations, bound %.0f", c.name, got, c.bound)
		}
	}
}

// TestTransformerConcurrentInference checks inference is pure: concurrent
// NextLogProbs and ScoreBatch calls (as a parallel device issues them) must
// be race-free and deterministic. Run with -race.
func TestTransformerConcurrentInference(t *testing.T) {
	lm, tok := batchTestModel(t)
	ctx := tok.Encode("the cat sat")
	want := lm.NextLogProbs(ctx)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got := lm.ScoreBatch([][]Token{ctx, ctx})[1]
				for v := range want {
					if got[v] != want[v] {
						t.Errorf("concurrent inference diverged at token %d", v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
