package model

import (
	"testing"
	"time"

	"repro/internal/tokenizer"
)

func trainTestTransformer(tb testing.TB, maxSeq int) (*Transformer, *tokenizer.BPE) {
	tb.Helper()
	lines := []string{
		"the cat sat on the mat",
		"the dog ran in the park",
		"the bird flew over the park",
	}
	tok := tokenizer.Train(lines, 80)
	lm := TrainTransformer(lines, tok, TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 2, DFF: 32, MaxSeqLen: maxSeq, Epochs: 1, Seed: 3,
	})
	return lm, tok
}

func rowsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTransformerPrefillExtendEquivalence walks a sequence with
// prefill+extend chains and demands bit-identical log-probs versus the
// training forward at every step, including across the window edge where
// extension must fall back to an internal re-prefill.
func TestTransformerPrefillExtendEquivalence(t *testing.T) {
	lm, tok := trainTestTransformer(t, 12)
	seq := tok.Encode("the cat sat on the mat and the dog ran in the park over the mat")
	if len(seq) <= lm.MaxSeqLen() {
		t.Fatalf("test sequence too short (%d) to cross the window (%d)", len(seq), lm.MaxSeqLen())
	}
	st, lp := lm.Prefill(seq[:1])
	if want := reference(lm, seq[:1]); !rowsEqual(lp, want) {
		t.Fatal("prefill logits differ from the training forward")
	}
	for i := 1; i < len(seq); i++ {
		states, rows := lm.ExtendBatch([]DecodeState{st}, []Token{seq[i]})
		st = states[0]
		want := reference(lm, seq[:i+1])
		if !rowsEqual(rows[0], want) {
			t.Fatalf("extend logits differ from the training forward at position %d (ctx len %d)", i, i+1)
		}
		if got := st.Len(); got != len(ClampWindow2(lm, seq[:i+1])) {
			t.Fatalf("state length %d at position %d", got, i)
		}
	}
}

// ClampWindow2 mirrors the transformer's internal clamp (window minus one)
// so the test can predict state lengths across the slide.
func ClampWindow2(lm *Transformer, ctx []Token) []Token {
	if len(ctx) >= lm.MaxSeqLen() {
		return ctx[len(ctx)-lm.MaxSeqLen()+1:]
	}
	return ctx
}

// TestTransformerExtendSharedParent extends one parent state with several
// different tokens in a single batch — the frontier-expansion shape — and
// checks each child against the full forward, plus that the parent is
// untouched and reusable afterwards.
func TestTransformerExtendSharedParent(t *testing.T) {
	lm, tok := trainTestTransformer(t, 24)
	ctx := tok.Encode("the cat sat on")
	st, _ := lm.Prefill(ctx)
	next := []Token{1, 2, 3, 4}
	states := []DecodeState{st, st, st, st}
	children, rows := lm.ExtendBatch(states, next)
	for i, tokID := range next {
		want := reference(lm, append(append([]Token{}, ctx...), tokID))
		if !rowsEqual(rows[i], want) {
			t.Fatalf("child %d logits differ from full forward", i)
		}
		if children[i].Len() != len(ctx)+1 {
			t.Fatalf("child %d length = %d", i, children[i].Len())
		}
	}
	// The parent must still extend correctly after its children were built.
	_, again := lm.ExtendBatch([]DecodeState{st}, []Token{next[0]})
	if !rowsEqual(again[0], rows[0]) {
		t.Fatal("re-extending the parent diverged")
	}
}

// TestTransformerAnchoredRoot checks the empty-context state: its logits
// match the training forward over the anchor, and extending it falls back
// to a fresh prefill (the anchor's position-0 rows belong to EOS, not to a
// real first token).
func TestTransformerAnchoredRoot(t *testing.T) {
	lm, tok := trainTestTransformer(t, 24)
	st, lp := lm.Prefill(nil)
	if !rowsEqual(lp, reference(lm, nil)) {
		t.Fatal("anchored prefill logits differ")
	}
	if st.Len() != 0 {
		t.Fatalf("anchored state Len = %d", st.Len())
	}
	first := tok.Encode("the")[0]
	_, rows := lm.ExtendBatch([]DecodeState{st}, []Token{first})
	if !rowsEqual(rows[0], reference(lm, []Token{first})) {
		t.Fatal("extension from the anchored root differs from forward([t])")
	}
}

// TestCompactLosslessFallsBackToTokens: the only compact form of a
// transformer state is its token context (a CtxState, what a demoted KV-arena
// node keeps). It holds the context at a fraction of the rows' bytes, and a
// Prefill of that context recomputes rows bit-identical to the incrementally
// extended state's — the byte-identity guarantee a promote relies on.
func TestCompactLosslessFallsBackToTokens(t *testing.T) {
	lm, tok := trainTestTransformer(t, 24)
	seq := tok.Encode("the dog ran in the park")
	st, _ := lm.Prefill(seq[:1])
	var want []float64
	for i := 1; i < len(seq); i++ {
		states, rows := lm.ExtendBatch([]DecodeState{st}, []Token{seq[i]})
		st, want = states[0], rows[0]
	}
	cs := &CtxState{Toks: st.Context()}
	if cs.Len() != st.Len() || !tokensEqual(cs.Context(), seq) {
		t.Fatalf("token-only form lost its context: %v, want %v", cs.Context(), seq)
	}
	if full, compact := st.SizeBytes(), cs.SizeBytes(); compact*4 >= full {
		t.Fatalf("token-only form too large: %d vs full %d", compact, full)
	}
	re, lp := Prefill(lm, cs.Context())
	if !rowsEqual(lp, want) {
		t.Fatal("recompute from the token-only form differs from the extended state")
	}
	next := seq[0]
	_, a := lm.ExtendBatch([]DecodeState{st}, []Token{next})
	_, b := lm.ExtendBatch([]DecodeState{re}, []Token{next})
	if !rowsEqual(a[0], b[0]) {
		t.Fatal("recomputed state extends differently from the original")
	}
}

func tokensEqual(a, b []Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTransformerScoreAllPositions checks the one-forward sequence scorer
// against the per-position training forward, in and beyond the window.
func TestTransformerScoreAllPositions(t *testing.T) {
	lm, tok := trainTestTransformer(t, 12)
	for _, text := range []string{
		"the cat",
		"the dog ran in the park",
		"the bird flew over the park and the cat sat on the mat again", // beyond window
	} {
		seq := tok.Encode(text)
		rows := lm.ScoreAllPositions(seq)
		if len(rows) != len(seq) {
			t.Fatalf("%q: %d rows for %d positions", text, len(rows), len(seq))
		}
		for p := range seq {
			want := reference(lm, ClampWindow(lm, seq[:p]))
			if !rowsEqual(rows[p], want) {
				t.Fatalf("%q: position %d differs from the training forward", text, p)
			}
		}
	}
}

// TestGenericIncrementalHelpers exercises the CtxState fallback used by the
// window models (n-gram, log-bilinear): Prefill/Extend must reproduce
// NextLogProbs exactly, clamping included.
func TestGenericIncrementalHelpers(t *testing.T) {
	lines := []string{"the cat sat on the mat", "the dog ran in the park"}
	tok := tokenizer.Train(lines, 60)
	for _, tc := range []struct {
		name string
		lm   LanguageModel
	}{
		{"ngram", TrainNGram(lines, tok, NGramConfig{Order: 3, MaxSeqLen: 6})},
		{"lbl", TrainLogBilinear(lines, tok, LBLConfig{MaxSeqLen: 6, Seed: 1})},
		{"uniform", &Uniform{Vocab: tok.VocabSize(), EOSTok: tok.EOS(), SeqLen: 6}},
	} {
		seq := tok.Encode("the cat sat on the mat and the dog")
		st, lp := Prefill(tc.lm, seq[:2])
		if !rowsEqual(lp, tc.lm.NextLogProbs(seq[:2])) {
			t.Fatalf("%s: prefill differs", tc.name)
		}
		for i := 2; i < len(seq); i++ {
			states, rows := Extend(tc.lm, []DecodeState{st}, []Token{seq[i]})
			st = states[0]
			want := tc.lm.NextLogProbs(ClampWindow(tc.lm, seq[:i+1]))
			if !rowsEqual(rows[0], want) {
				t.Fatalf("%s: extend differs at %d", tc.name, i)
			}
		}
		all := AllPositionLogProbs(tc.lm, seq[:6])
		for p := 0; p < 6; p++ {
			if !rowsEqual(all[p], tc.lm.NextLogProbs(seq[:p])) {
				t.Fatalf("%s: all-positions row %d differs", tc.name, p)
			}
		}
	}
}

// TestIncrementalSpeedGate is the PR's model-layer speed gate: at depth >= 32
// on the transformer, one ExtendBatch step over the frontier must be at
// least 3x faster than re-scoring the full contexts with ScoreBatch. The
// asymptotic gap is O(L²·d) vs O(L·d) per child, so 3x leaves a wide margin
// for shared fixed costs (the vocabulary projection) and machine noise.
func TestIncrementalSpeedGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate")
	}
	lines := []string{
		"the cat sat on the mat",
		"the dog ran in the park",
		"the bird flew over the park",
	}
	tok := tokenizer.Train(lines, 80)
	lm := TrainTransformer(lines, tok, TransformerConfig{
		DModel: 32, NHeads: 2, NLayers: 2, MaxSeqLen: 48, Epochs: 1, Seed: 5,
	})
	const depth, width = 32, 8
	ctx := make([]Token, depth)
	for i := range ctx {
		ctx[i] = Token(i % tok.VocabSize())
	}
	parent, _ := lm.Prefill(ctx)
	states := make([]DecodeState, width)
	toks := make([]Token, width)
	full := make([][]Token, width)
	for i := 0; i < width; i++ {
		states[i] = parent
		toks[i] = Token(i + 1)
		full[i] = append(append([]Token{}, ctx...), toks[i])
	}
	lm.ExtendBatch(states, toks) // warm up
	lm.ScoreBatch(full)

	const reps = 10
	start := time.Now()
	for r := 0; r < reps; r++ {
		lm.ExtendBatch(states, toks)
	}
	incr := time.Since(start)
	start = time.Now()
	for r := 0; r < reps; r++ {
		lm.ScoreBatch(full)
	}
	fullT := time.Since(start)
	speedup := float64(fullT) / float64(incr)
	t.Logf("depth=%d width=%d: full=%v incremental=%v speedup=%.1fx", depth, width, fullT, incr, speedup)
	if speedup < 3 {
		t.Fatalf("incremental frontier expansion speedup %.2fx < 3x (full %v, incremental %v)", speedup, fullT, incr)
	}
}
