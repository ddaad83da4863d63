package model_test

import (
	"bytes"
	"runtime"
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

// TestTrainedArtifactIsReferenceBytes: TrainNGram's artifact is byte for
// byte the one the map-of-maps trainer wrote from its maps in key order, at
// every order TestTrainNGramMatchesReference trains.
func TestTrainedArtifactIsReferenceBytes(t *testing.T) {
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	for _, cfg := range []model.NGramConfig{{Order: 1}, {Order: 3, Lambda: 0.7}, {Order: 8, CacheWeight: 0.3}, {Order: 80}} {
		if got, want := saved(t, model.TrainNGram(e.Corpus, e.Tok, cfg)), model.TrainNGramRefArtifact(e.Corpus, e.Tok, cfg); !bytes.Equal(got, want) {
			t.Errorf("order %d: the artifact differs from the reference trainer's", cfg.Order)
		}
	}
}

// The quick-scale world's two n-gram models (experiments.NewEnv).
var (
	quickLarge = model.NGramConfig{Order: 8, MaxSeqLen: 64, Lambda: 0.9, CacheWeight: 0.3}
	quickSmall = model.NGramConfig{Order: 3, MaxSeqLen: 64, Lambda: 0.7, CacheWeight: 0.12}
)

// TestTrainNGramsAllocs: training the quick world's two n-grams from one
// mix counts into a few flat slices. The map-of-maps trainer it replaced
// took 78 841 allocations and 6.5 MB; the bounds are 2 000 and half that.
func TestTrainNGramsAllocs(t *testing.T) {
	if model.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	train := func() { model.TrainNGrams(e.Corpus, e.Tok, quickLarge, quickSmall) }
	allocs := testing.AllocsPerRun(3, train)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	train()
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; allocs > 2000 || b >= 6_525_118/2 {
		t.Errorf("training allocated %.0f objects and %d bytes, want <= 2000 and < %d", allocs, b, 6_525_118/2)
	}
}

// BenchmarkTrainNGram trains the quick-scale world's two n-gram models on
// the quick-scale mix: each alone, as the reference trainer, and both from
// one encoding of the mix, as the world's set-up does.
func BenchmarkTrainNGram(b *testing.B) {
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	for _, c := range []struct {
		name  string
		train func()
	}{
		{"large", func() { model.TrainNGram(e.Corpus, e.Tok, quickLarge) }},
		{"large-reference", func() { model.TrainNGramRefArtifact(e.Corpus, e.Tok, quickLarge) }},
		{"small", func() { model.TrainNGram(e.Corpus, e.Tok, quickSmall) }},
		{"small-reference", func() { model.TrainNGramRefArtifact(e.Corpus, e.Tok, quickSmall) }},
		{"both", func() { model.TrainNGrams(e.Corpus, e.Tok, quickLarge, quickSmall) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.train()
			}
		})
	}
}
