package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

// TestRowsAreLogProbabilities: every entry of every row each substrate
// returns is a log-probability, never above 0 (and never NaN), scored
// directly and through the logit cache, by every scoring method. Shortest
// path rests on it: a node's cost bounds every sibling it will have, so an
// unscored node waits on the frontier under its own cost (DESIGN.md
// decision 6).
func TestRowsAreLogProbabilities(t *testing.T) {
	corpus := []string{
		"the cat sat on the mat",
		"the dog ran in the park",
		"my phone number is 555 123 4567",
		"the woman was trained in medicine",
	}
	tok := tokenizer.Train(corpus, 100)
	substrates := []model.LanguageModel{
		model.TrainNGram(corpus, tok, model.NGramConfig{Order: 4, MaxSeqLen: 12}),
		model.TrainLogBilinear(corpus, tok, model.LBLConfig{Epochs: 2, MaxSeqLen: 12}),
		model.TrainTransformer(corpus, tok, model.TransformerConfig{
			DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 12, Epochs: 1, Seed: 3,
		}),
		&model.Uniform{Vocab: tok.VocabSize(), EOSTok: tok.EOS(), SeqLen: 12},
		&model.Uniform{Vocab: 1, SeqLen: 12}, // the one-token vocabulary: every row is log 1
	}
	rng := rand.New(rand.NewSource(1))
	var ctxs [][]model.Token
	for _, line := range corpus {
		ctxs = append(ctxs, tok.Encode(line)) // contexts the models have seen
	}
	for range 40 { // and arbitrary ones, some past the window
		ctx := make([]model.Token, rng.Intn(20))
		for i := range ctx {
			ctx[i] = model.Token(rng.Intn(tok.VocabSize()))
		}
		ctxs = append(ctxs, ctx)
	}
	for _, lm := range substrates {
		for _, via := range []struct {
			name string
			lm   model.LanguageModel
		}{{"direct", lm}, {"cached", New(lm, 64)}} {
			name := fmt.Sprintf("%T/%s", lm, via.name)
			m := via.lm
			for _, raw := range ctxs {
				ctx := raw
				if m.VocabSize() == 1 {
					ctx = make([]model.Token, len(raw)) // token 0 only
				}
				clamped := model.ClampWindow(m, ctx)
				checkRow(t, name+"/NextLogProbs", ctx, m.NextLogProbs(clamped))
				checkRow(t, name+"/ScoreBatch", ctx, m.ScoreBatch([][]model.Token{clamped})[0])
				state, row := model.Prefill(m, clamped)
				checkRow(t, name+"/Prefill", ctx, row)
				_, rows := model.Extend(m, []model.DecodeState{state}, []model.Token{0})
				checkRow(t, name+"/Extend", ctx, rows[0])
				if len(ctx) <= m.MaxSeqLen() {
					for p, row := range model.AllPositionLogProbs(m, ctx) {
						checkRow(t, name+"/AllPositions", ctx[:p], row)
					}
				}
			}
		}
	}
}

func checkRow(t *testing.T, name string, ctx []model.Token, row []float64) {
	t.Helper()
	for tok, lp := range row {
		if !(lp <= 0) {
			t.Fatalf("%s: context %v, token %d has log-probability %v > 0", name, ctx, tok, lp)
		}
	}
}
