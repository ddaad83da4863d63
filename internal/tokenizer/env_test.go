package tokenizer_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/tokenizer"
)

// TestEnvTokenizerMatchesReference runs the reference check on the
// tokenizer every experiment and the performance ledger query through, the
// one trained on the quick-scale training mix.
func TestEnvTokenizerMatchesReference(t *testing.T) {
	env := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	tokenizer.CheckAgainstReference(t, env.Tok, 2, 2000)
}

// BenchmarkTrain trains the quick-scale tokenizer (2 200 merges asked, 799
// learned) from the quick-scale training mix, incrementally and with the
// reference trainer that recounts every pair before each merge.
func BenchmarkTrain(b *testing.B) {
	mix := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick}).Corpus
	for _, c := range []struct {
		name  string
		train func([]string, int) *tokenizer.BPE
	}{{"incremental", tokenizer.Train}, {"reference", tokenizer.TrainReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.train(mix, 2200)
			}
		})
	}
}
