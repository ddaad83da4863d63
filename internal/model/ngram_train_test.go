package model_test

import (
	"bytes"
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
)

func saved(t testing.TB, m *model.NGram) []byte {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTrainNGramMatchesReference holds TrainNGram and TrainNGrams to the
// reference trainer on the quick-scale mix at every order the system uses
// and past the longest line: the saved artifacts, which list every history
// and count in key order, must be byte-identical.
func TestTrainNGramMatchesReference(t *testing.T) {
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	cfgs := []model.NGramConfig{{Order: 1}, {Order: 3, Lambda: 0.7}, {Order: 6}, {Order: 8, CacheWeight: 0.3}, {Order: 80}, {}}
	both := model.TrainNGrams(e.Corpus, e.Tok, cfgs...)
	for i, cfg := range cfgs {
		want := saved(t, model.TrainNGramRef(e.Corpus, e.Tok, cfg))
		if got := saved(t, model.TrainNGram(e.Corpus, e.Tok, cfg)); !bytes.Equal(got, want) {
			t.Errorf("order %d: TrainNGram's artifact differs from the reference's", cfg.Order)
		}
		if got := saved(t, both[i]); !bytes.Equal(got, want) {
			t.Errorf("order %d: TrainNGrams' artifact differs from the reference's", cfg.Order)
		}
	}
}

// BenchmarkTrainNGram trains the quick-scale world's two n-gram models on
// the quick-scale mix: each alone, as the reference trainer, and both from
// one encoding of the mix, as the world's set-up does.
func BenchmarkTrainNGram(b *testing.B) {
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	large := model.NGramConfig{Order: 8, MaxSeqLen: 64, Lambda: 0.9, CacheWeight: 0.3}
	small := model.NGramConfig{Order: 3, MaxSeqLen: 64, Lambda: 0.7, CacheWeight: 0.12}
	for _, c := range []struct {
		name  string
		train func()
	}{
		{"large", func() { model.TrainNGram(e.Corpus, e.Tok, large) }},
		{"large-reference", func() { model.TrainNGramRef(e.Corpus, e.Tok, large) }},
		{"small", func() { model.TrainNGram(e.Corpus, e.Tok, small) }},
		{"small-reference", func() { model.TrainNGramRef(e.Corpus, e.Tok, small) }},
		{"both", func() { model.TrainNGrams(e.Corpus, e.Tok, large, small) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.train()
			}
		})
	}
}
