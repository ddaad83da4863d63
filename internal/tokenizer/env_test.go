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
