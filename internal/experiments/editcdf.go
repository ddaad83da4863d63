package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/automaton"
	"repro/internal/levenshtein"
	"repro/internal/regex"
	"repro/internal/stats"
	"repro/internal/textio"
)

// EditCDFResult is the Figure 9 analog: the cumulative distribution of edit
// positions under walk-normalized vs unnormalized automaton sampling.
type EditCDFResult struct {
	Normalized   *stats.CDF
	Unnormalized *stats.CDF
	// FracFirstQuarterNorm / Unnorm: fraction of edits landing in the first
	// quarter of the string — the paper observes ~80% of unnormalized edits
	// land in the first 6 of ~20 characters.
	FracFirstQuarterNorm   float64
	FracFirstQuarterUnnorm float64
	StringLen              int
}

// EditCDFConfig sizes the run.
type EditCDFConfig struct {
	Samples int
	// Base is the string whose 1-edit neighborhood is sampled; empty uses
	// the paper's bias-template prefix.
	Base string
}

// RunEditCDF reproduces Figure 9 / Appendix C: sample strings from the
// distance-1 Levenshtein automaton of a fixed base string, locate each
// sample's edit position, and compare the position distribution under
// normalized (walk-counted) vs unnormalized (uniform-edge) sampling.
func RunEditCDF(env *Env, cfg EditCDFConfig) (*EditCDFResult, error) {
	if cfg.Samples == 0 {
		if env.Scale == Quick {
			cfg.Samples = 400
		} else {
			cfg.Samples = 5000
		}
	}
	if cfg.Base == "" {
		cfg.Base = "The man was trained in" // ~20 characters, as in Appendix C
	}
	base, err := regex.Compile(regex.Escape(cfg.Base))
	if err != nil {
		return nil, err
	}
	alpha := []byte("abcdefghijklmnopqrstuvwxyzTUVWXYZ ")
	expanded := levenshtein.Expand(base, alpha)
	maxLen := len(cfg.Base) + 2
	walker := automaton.NewWalkCounter(expanded.Freeze(), maxLen)
	rng := rand.New(rand.NewSource(env.Seed + 99))

	collect := func(unnormalized bool) []float64 {
		var positions []float64
		for i := 0; i < cfg.Samples; i++ {
			var seq []automaton.Symbol
			if unnormalized {
				seq = walker.SampleUnnormalized(rng)
			} else {
				seq = walker.SampleUniform(rng)
			}
			if seq == nil {
				continue
			}
			b := make([]byte, len(seq))
			for j, s := range seq {
				b[j] = byte(s)
			}
			pos := levenshtein.EditPositions(base, string(b))
			if pos >= 0 {
				positions = append(positions, float64(pos))
			}
		}
		return positions
	}

	norm := collect(false)
	unnorm := collect(true)
	res := &EditCDFResult{
		Normalized:   stats.NewCDF(norm),
		Unnormalized: stats.NewCDF(unnorm),
		StringLen:    len(cfg.Base),
	}
	quarter := float64(len(cfg.Base)) / 4
	res.FracFirstQuarterNorm = res.Normalized.At(quarter)
	res.FracFirstQuarterUnnorm = res.Unnormalized.At(quarter)
	return res, nil
}

// RenderEditCDF writes the Figure 9 analog output.
func RenderEditCDF(w io.Writer, r *EditCDFResult) {
	textio.Section(w, "fig9: CDF of edit positions (normalized vs unnormalized)")
	var seriesN, seriesU textio.Series
	seriesN.Name = "normalized"
	seriesU.Name = "unnormalized"
	for pos := 0; pos <= r.StringLen; pos++ {
		x := float64(pos)
		seriesN.X = append(seriesN.X, x)
		seriesN.Y = append(seriesN.Y, r.Normalized.At(x))
		seriesU.X = append(seriesU.X, x)
		seriesU.Y = append(seriesU.Y, r.Unnormalized.At(x))
	}
	textio.LineChart(w, "cumulative proportion of edits by position", []textio.Series{seriesN, seriesU}, 60, 14)
	fmt.Fprintf(w, "edits in first quarter of string: normalized %.0f%%, unnormalized %.0f%% (paper: unnormalized front-loads ~80%% in the first 6 chars)\n",
		r.FracFirstQuarterNorm*100, r.FracFirstQuarterUnnorm*100)
}
