package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/decoding"
	"repro/internal/model"
	"repro/internal/textio"
	"repro/relm"
)

// CanonResult is the §3.2 measurement: the fraction of unprompted random
// generations whose token sequence is not the canonical encoding of its
// decoded string (paper: ~3% for GPT-2, ~2% for GPT-2 XL).
type CanonResult struct {
	// NonCanonicalFrac[model name] in [0,1].
	NonCanonicalFrac map[string]float64
	Samples          int
}

// CanonConfig sizes the run.
type CanonConfig struct {
	Samples   int
	MaxTokens int
}

// RunCanon samples unconditionally from each model (top-k 40, no automaton
// constraint) and measures how often the sampled token sequence is
// non-canonical — the motivation for modelling the full encoding set.
func RunCanon(env *Env, cfg CanonConfig) (*CanonResult, error) {
	if cfg.Samples == 0 {
		if env.Scale == Quick {
			cfg.Samples = 300
		} else {
			cfg.Samples = 3000
		}
	}
	if cfg.MaxTokens == 0 {
		cfg.MaxTokens = 24
	}
	res := &CanonResult{NonCanonicalFrac: map[string]float64{}, Samples: cfg.Samples}
	for _, name := range []string{"large", "small"} {
		m := env.FreshModel(name == "small")
		rng := rand.New(rand.NewSource(env.Seed + int64(len(name))))
		rule := decoding.TopK{K: 40}
		nonCanon := 0
		for i := 0; i < cfg.Samples; i++ {
			seq, err := freeSample(m, rng, rule, nil, cfg.MaxTokens)
			if err != nil {
				return nil, err
			}
			if len(seq) == 0 {
				continue
			}
			if !env.Tok.Canonical(seq) {
				nonCanon++
			}
		}
		res.NonCanonicalFrac[name] = float64(nonCanon) / float64(cfg.Samples)
	}
	return res, nil
}

// freeSample draws tokens after prefix from the model under rule until EOS or
// maxTokens, and returns the drawn tokens. The device's rows are shared with
// its logit cache, so the rule reweights a copy (decoding.Allowed).
func freeSample(m *relm.Model, rng *rand.Rand, rule decoding.Rule, prefix []model.Token, maxTokens int) ([]model.Token, error) {
	ctx := append([]model.Token{}, prefix...)
	for len(ctx)-len(prefix) < maxTokens {
		win := ctx
		if len(win) > m.LM.MaxSeqLen() {
			win = win[len(win)-m.LM.MaxSeqLen():]
		}
		rows, err := m.Dev.Forward([][]model.Token{win})
		if err != nil {
			return nil, err
		}
		tok := sampleFromLogProbs(rng, decoding.Allowed(rule, rows[0], nil))
		if tok == m.LM.EOS() {
			break
		}
		ctx = append(ctx, tok)
	}
	return ctx[len(prefix):], nil
}

// RenderCanon writes the §3.2 measurement.
func RenderCanon(w io.Writer, r *CanonResult) {
	textio.Section(w, "canon: non-canonical fraction of unprompted samples (§3.2)")
	tb := textio.NewTable("model", "non-canonical %")
	for _, name := range []string{"large", "small"} {
		if frac, ok := r.NonCanonicalFrac[name]; ok {
			tb.AddRow(modelLabel(name), fmt.Sprintf("%.1f%%", frac*100))
		}
	}
	tb.Render(w)
	fmt.Fprintf(w, "samples per model: %d (paper: ~2%% for GPT-2 XL, ~3%% for GPT-2)\n", r.Samples)
}
