package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/model"
	"repro/internal/textio"
	"repro/relm"
)

// KV-compression accuracy harness (DESIGN.md decision 14). The lossless tier
// is covered by byte-identity gates; the aggressive (2-byte) tier is not —
// logits scored through a promoted half-precision state may drift. This
// harness makes that drift measurable the way §4 measures everything else:
// run the same suites under each tier on a *transformer* substrate (the only
// family with real prefix states; the n-gram env models bypass the arena)
// at a deliberately tight arena budget, and report the metric deltas
// against the uncompressed arena.

// KVAccuracyConfig sizes the harness.
type KVAccuracyConfig struct {
	// Items is the number of memorized URLs probed per tier (0: scale
	// default).
	Items int
	// Epochs trains the transformer substrate (0: scale default).
	Epochs int
	// BudgetBytes is the per-tier arena budget; deliberately tight so
	// demotion actually happens (0: 64 KiB — a few dozen full-precision
	// nodes for the harness's transformer substrate).
	BudgetBytes int64
}

// KVTierReport is one tier's run of the suites.
type KVTierReport struct {
	Tier relm.KVCompression
	// Found counts URL probes the model regenerated (§4.1 per-item form).
	Found int
	// MeanLogProb averages match log-probability over the URLs found under
	// *every* tier, so deltas compare like with like.
	MeanLogProb float64
	// ChoiceAcc is the multiple-choice probe accuracy (§4.2-style).
	ChoiceAcc float64
	// KV snapshots the tier's arena counters after the run.
	KV relm.KVStats
}

// KVAccuracyResult aggregates all tiers; Reports[0] is the uncompressed
// reference.
type KVAccuracyResult struct {
	Items   int
	Reports []KVTierReport
}

// RunKVAccuracy trains one transformer substrate and runs the memorization
// and multiple-choice suites under each compression tier.
func RunKVAccuracy(env *Env, cfg KVAccuracyConfig) (*KVAccuracyResult, error) {
	if cfg.Items == 0 {
		if env.Scale == Quick {
			cfg.Items = 6
		} else {
			cfg.Items = 24
		}
	}
	if cfg.Epochs == 0 {
		if env.Scale == Quick {
			cfg.Epochs = 2
		} else {
			cfg.Epochs = 4
		}
	}
	if cfg.BudgetBytes == 0 {
		cfg.BudgetBytes = 64 << 10
	}
	urls := MemorizationItems(env)
	if len(urls) > cfg.Items {
		urls = urls[:cfg.Items]
	}
	// Plant the probed URLs several extra times: the tiny transformer must
	// actually memorize them for the suite to have signal (the env corpus
	// carries each URL only a few times, sized for the n-gram models).
	lines := append([]string(nil), env.Corpus...)
	for _, u := range urls {
		for i := 0; i < 6; i++ {
			lines = append(lines, u)
		}
	}
	lm := model.TrainTransformer(lines, env.Tok, model.TransformerConfig{
		DModel: 24, NHeads: 2, NLayers: 1, MaxSeqLen: 64,
		Epochs: cfg.Epochs, Seed: env.Seed,
	})

	professions := []string{"art", "science", "business", "medicine", "engineering", "math"}
	res := &KVAccuracyResult{Items: len(urls)}
	logps := make([]map[string]float64, 0, 3)
	for _, tier := range []relm.KVCompression{relm.KVCompressOff, relm.KVCompressLossless, relm.KVCompressAggressive} {
		// No logit cache: it answers a context before the arena is asked
		// (DESIGN.md decision 10), so with one the deltas would depend on
		// which rows earlier probes happened to leave resident.
		m := env.TrackModel(relm.NewModel(lm, env.Tok, relm.ModelOptions{
			CacheSize:     -1,
			Parallelism:   env.Parallelism,
			KVBudgetBytes: cfg.BudgetBytes,
			KVCompression: tier,
		}))
		rep := KVTierReport{Tier: tier}
		found := map[string]float64{}
		for _, u := range urls {
			ok, lp, _, err := CheckMemorizedURL(nil, m, u)
			if err != nil {
				return nil, fmt.Errorf("kvaccuracy %s url probe: %w", tier, err)
			}
			if ok {
				rep.Found++
				found[u] = lp
			}
		}
		correct := 0
		for _, prof := range professions {
			got, err := topChoice(m, "The man was trained in", " (("+prof+")|(zugzwang))")
			if err != nil {
				return nil, fmt.Errorf("kvaccuracy %s choice probe: %w", tier, err)
			}
			if strings.TrimSpace(got) == prof {
				correct++
			}
		}
		rep.ChoiceAcc = float64(correct) / float64(len(professions))
		rep.KV = m.KVStats()
		res.Reports = append(res.Reports, rep)
		logps = append(logps, found)
	}

	// Mean log-probability over the intersection of found URLs, so a tier
	// that finds fewer is not also penalized on the average.
	for u := range logps[0] {
		inAll := true
		for _, f := range logps[1:] {
			if _, ok := f[u]; !ok {
				inAll = false
				break
			}
		}
		if !inAll {
			continue
		}
		for i := range res.Reports {
			res.Reports[i].MeanLogProb += logps[i][u]
		}
	}
	shared := 0
	for u := range logps[0] {
		inAll := true
		for _, f := range logps[1:] {
			if _, ok := f[u]; !ok {
				inAll = false
			}
		}
		if inAll {
			shared++
		}
	}
	if shared > 0 {
		for i := range res.Reports {
			res.Reports[i].MeanLogProb /= float64(shared)
		}
	}
	return res, nil
}

// RenderKVAccuracy writes the per-tier table with deltas against the
// uncompressed reference.
func RenderKVAccuracy(w io.Writer, r *KVAccuracyResult) {
	textio.Section(w, "kv compression accuracy: §4 suites per arena tier")
	tb := textio.NewTable("tier", "urls found", "Δfound", "mean logP", "ΔlogP", "choice acc", "Δacc", "hit rate", "demotions", "promotions")
	ref := r.Reports[0]
	for _, rep := range r.Reports {
		hitRate := 0.0
		if t := rep.KV.Hits + rep.KV.Misses; t > 0 {
			hitRate = float64(rep.KV.Hits) / float64(t)
		}
		dlp := rep.MeanLogProb - ref.MeanLogProb
		if math.IsNaN(dlp) {
			dlp = 0
		}
		tb.AddRow(rep.Tier.String(), fmt.Sprintf("%d/%d", rep.Found, r.Items), rep.Found-ref.Found,
			fmt.Sprintf("%.4f", rep.MeanLogProb), fmt.Sprintf("%+.4f", dlp),
			fmt.Sprintf("%.2f", rep.ChoiceAcc), fmt.Sprintf("%+.2f", rep.ChoiceAcc-ref.ChoiceAcc),
			fmt.Sprintf("%.2f", hitRate), rep.KV.Demotions, rep.KV.Promotions)
	}
	tb.Render(w)
	fmt.Fprintf(w, "\nlossless must match the uncompressed row exactly (byte-identity gate); the aggressive row's deltas are the cost of 2-byte rows at this budget\n")
}
