// Package repro's root bench suite regenerates every table and figure of
// the paper (one Benchmark per artifact, per DESIGN.md's experiment index)
// and provides the ablation benches for the design decisions DESIGN.md
// calls out. Custom metrics carry the experiment's headline number (e.g.
// urls/sec, speedup, accuracy) alongside the usual ns/op.
//
// Run with: go test -bench=. -benchmem
package repro

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/automaton"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/levenshtein"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/rewrite"
	"repro/internal/tokenizer"
	"repro/relm"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

func env(tb testing.TB) *experiments.Env {
	tb.Helper()
	benchOnce.Do(func() {
		benchEnv = experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	})
	return benchEnv
}

// BenchmarkFig5URLExtraction regenerates Figure 5/10: ReLM shortest-path URL
// extraction. Metric relm-urls/sec is the Figure 6 throughput for ReLM.
func BenchmarkFig5URLExtraction(b *testing.B) {
	e := env(b)
	var lastTput float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMemorization(e, experiments.MemorizationConfig{
			Attempts:    30,
			StopLengths: []int{16},
		})
		if err != nil {
			b.Fatal(err)
		}
		lastTput = res.ReLM.Throughput
	}
	b.ReportMetric(lastTput, "relm-urls/vsec")
}

// BenchmarkFig6Throughput regenerates Figure 6: the ReLM-vs-best-baseline
// speedup (Observation 1; the paper reports 15x on its testbed).
func BenchmarkFig6Throughput(b *testing.B) {
	e := env(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunMemorization(e, experiments.MemorizationConfig{
			Attempts:    30,
			StopLengths: []int{4, 16, 64},
		})
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Speedup
	}
	b.ReportMetric(speedup, "speedup-x")
}

// BenchmarkFig7Bias regenerates Figure 7: the three bias variants. Metric
// canon-log10p is the canonical variant's significance (Observation 3).
func BenchmarkFig7Bias(b *testing.B) {
	e := env(b)
	var log10p float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunBias(e, experiments.BiasConfig{SamplesPerGender: 80})
		if err != nil {
			b.Fatal(err)
		}
		log10p = res.Cell("canonical-prefix").Log10P
	}
	b.ReportMetric(log10p, "canon-log10p")
}

// BenchmarkFig13BiasGrid regenerates Figure 13 (large-model 2x2 grid).
func BenchmarkFig13BiasGrid(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBias(e, experiments.BiasConfig{
			SamplesPerGender: 40,
			Variants:         experiments.GridVariants(false),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14BiasGridSmall regenerates Figure 14 (small-model grid).
func BenchmarkFig14BiasGridSmall(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunBias(e, experiments.BiasConfig{
			SamplesPerGender: 40,
			Variants:         experiments.GridVariants(true),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8Toxicity regenerates Figure 8a: prompted toxic extraction.
// Metric gain-x is the edits+encodings extraction gain (paper: 2.5x).
func BenchmarkFig8Toxicity(b *testing.B) {
	e := env(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunToxicityPrompted(e, experiments.ToxicityConfig{
			MaxPrompts: 10, NodeBudget: 600,
		})
		if err != nil {
			b.Fatal(err)
		}
		gain = res.Gain
	}
	b.ReportMetric(gain, "gain-x")
}

// BenchmarkFig8bUnprompted regenerates Figure 8b: unprompted extraction
// volume across the four (canonical, edits) settings.
func BenchmarkFig8bUnprompted(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunToxicityUnprompted(e, experiments.ToxicityConfig{
			MaxInputs: 5, PerInputCap: 8, NodeBudget: 600,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Normalization regenerates Figure 9: the edit-position CDF
// under walk-normalized vs uniform-edge sampling; it doubles as the ablation
// for the big.Int walk-count normalization (DESIGN.md decision 3). Metric
// unnorm-q1 is the unnormalized first-quarter mass (paper: ~0.8).
func BenchmarkFig9Normalization(b *testing.B) {
	e := env(b)
	var q1 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunEditCDF(e, experiments.EditCDFConfig{Samples: 300})
		if err != nil {
			b.Fatal(err)
		}
		q1 = res.FracFirstQuarterUnnorm
	}
	b.ReportMetric(q1, "unnorm-q1")
}

// BenchmarkTable1Lambada regenerates Table 1. Metric nostop-acc is the
// fully-constrained accuracy on the large model.
func BenchmarkTable1Lambada(b *testing.B) {
	e := env(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLambada(e, experiments.LambadaConfig{
			Items:  10,
			Models: []string{"large"},
		})
		if err != nil {
			b.Fatal(err)
		}
		acc = res.Accuracy["large"][experiments.LambadaNoStop]
	}
	b.ReportMetric(acc, "nostop-acc")
}

// BenchmarkCanonFraction regenerates the §3.2 measurement: the fraction of
// free samples that are non-canonical.
func BenchmarkCanonFraction(b *testing.B) {
	e := env(b)
	var frac float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCanon(e, experiments.CanonConfig{Samples: 150})
		if err != nil {
			b.Fatal(err)
		}
		frac = res.NonCanonicalFrac["large"]
	}
	b.ReportMetric(frac, "noncanon-frac")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationTrieVsNaiveCompile compares the trie-accelerated shortcut
// construction against Appendix B's literal O(V·k·m) algorithm.
func BenchmarkAblationTrieVsNaiveCompile(b *testing.B) {
	e := env(b)
	char := regex.MustCompile("The ((cat)|(dog)) was trained in ((art)|(science))")
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compiler.CompileFull(char, e.Tok)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			compiler.CompileFullNaive(char, e.Tok)
		}
	})
}

// BenchmarkAblationCanonicalStrategies compares enumerate-and-encode against
// dynamic canonicality filtering for a small finite language (DESIGN.md
// decision 2).
func BenchmarkAblationCanonicalStrategies(b *testing.B) {
	e := env(b)
	char := regex.MustCompile(" ((art)|(science)|(medicine)|(engineering))")
	m := e.FreshModel(false)
	prefix := e.Tok.Encode("The man was trained in")
	b.Run("enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pat, err := compiler.CompileCanonical(char, e.Tok, 32, 1000)
			if err != nil {
				b.Fatal(err)
			}
			s := engine.ShortestPath(m.Dev, &engine.Query{
				Pattern: pat, Prefixes: [][]model.Token{prefix},
			})
			for {
				if _, err := s.Next(); err != nil {
					break
				}
			}
		}
	})
	b.Run("dynamic-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			full := compiler.CompileFull(char, e.Tok)
			s := engine.ShortestPath(m.Dev, &engine.Query{
				Pattern:  full,
				Prefixes: [][]model.Token{prefix},
				Filter:   compiler.NewCanonicalFilter(e.Tok),
			})
			for {
				if _, err := s.Next(); err != nil {
					break
				}
			}
		}
	})
}

// BenchmarkAblationLogitCache measures the logit cache's memoization win
// (windowed TinyLFU, DESIGN.md decision 4) on repeated shortest-path queries.
func BenchmarkAblationLogitCache(b *testing.B) {
	e := env(b)
	char := regex.MustCompile(" ((art)|(science)|(medicine))")
	pat, err := compiler.CompileCanonical(char, e.Tok, 32, 1000)
	if err != nil {
		b.Fatal(err)
	}
	prefix := e.Tok.Encode("The woman was trained in")
	run := func(b *testing.B, lm model.LanguageModel) {
		dev := device.New(lm, device.DefaultLatency(), 32)
		for i := 0; i < b.N; i++ {
			s := engine.ShortestPath(dev, &engine.Query{
				Pattern: pat, Prefixes: [][]model.Token{prefix},
			})
			for {
				if _, err := s.Next(); err != nil {
					break
				}
			}
		}
	}
	b.Run("cached", func(b *testing.B) { run(b, cache.New(e.Large.LM, 8192)) })
	b.Run("uncached", func(b *testing.B) { run(b, e.Large.LM) })
}

// BenchmarkAblationBatchExpand measures frontier batching (DESIGN.md
// decision 5 neighborhood): virtual device time per query at batch sizes 1
// and 32. Wall time is similar; the metric vdev-ms captures the simulated
// dispatch amortization the paper's executor relies on.
func BenchmarkAblationBatchExpand(b *testing.B) {
	e := env(b)
	char := regex.MustCompile(experiments.URLPattern)
	full := compiler.CompileFull(char, e.Tok)
	prefix := e.Tok.Encode(experiments.URLPrefix)
	for _, batch := range []int{1, 32} {
		name := "batch1"
		if batch == 32 {
			name = "batch32"
		}
		b.Run(name, func(b *testing.B) {
			var vdevMS float64
			for i := 0; i < b.N; i++ {
				m := e.FreshModel(false)
				s := engine.ShortestPath(m.Dev, &engine.Query{
					Pattern:     full,
					Prefixes:    [][]model.Token{prefix},
					RequireEOS:  true,
					MaxTokens:   24,
					MaxNodes:    1 << 20,
					BatchExpand: batch,
				})
				for k := 0; k < 8; k++ {
					if _, err := s.Next(); err != nil {
						break
					}
				}
				vdevMS = float64(m.Dev.Stats().Clock.Milliseconds())
			}
			b.ReportMetric(vdevMS, "vdev-ms")
		})
	}
}

// --- Microbenches for the core data structures ---

func BenchmarkRegexCompile(b *testing.B) {
	pattern := `https://www\.([a-zA-Z0-9]|_|-|#|%)+\.([a-zA-Z0-9]|_|-|#|%|/)+`
	for i := 0; i < b.N; i++ {
		if _, err := regex.Compile(pattern); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenizerEncode(b *testing.B) {
	e := env(b)
	line := "The woman was trained in computer science and the man was trained in art"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Tok.Encode(line)
	}
}

func BenchmarkTokenizerTrain(b *testing.B) {
	lines := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick}).Corpus[:200]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tokenizer.Train(lines, 200)
	}
}

func BenchmarkWalkCounterSample(b *testing.B) {
	d := regex.MustCompile("(a|b|c){1,12}")
	w := automaton.NewWalkCounter(d, 12)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SampleUniform(rng)
	}
}

func BenchmarkLevenshteinExpand(b *testing.B) {
	base := regex.MustCompile(regex.Escape("The man was trained in art"))
	alpha := []byte("abcdefghijklmnopqrstuvwxyz ")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		levenshtein.Expand(base, alpha)
	}
}

func BenchmarkShortestPathQuery(b *testing.B) {
	e := env(b)
	m := e.FreshModel(false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := relm.Search(m, relm.SearchQuery{
			Query: relm.QueryString{
				Pattern: " ((cat)|(dog))",
				Prefix:  "The",
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		results.Take(2)
	}
}

func BenchmarkRandomSamplingQuery(b *testing.B) {
	e := env(b)
	m := e.FreshModel(false)
	results, err := relm.Search(m, relm.SearchQuery{
		Query: relm.QueryString{
			Pattern: " was trained in ((art)|(science))",
			Prefix:  "The ((man)|(woman))",
		},
		Strategy: relm.RandomSampling,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := results.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNGramNextLogProbs(b *testing.B) {
	e := env(b)
	ctx := e.Tok.Encode("The man was trained in")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Large.LM.NextLogProbs(ctx)
	}
}

// BenchmarkAblationPrefixCost compares the §3.3 prefix-priority heuristic
// against the rejected zero-cost design (DESIGN.md decision 5): node
// expansions before the first result when the prefix language is broad.
func BenchmarkAblationPrefixCost(b *testing.B) {
	e := env(b)
	// A broad prefix set with sharply skewed likelihoods: one trained
	// phrase among many junk phrases. The heuristic reaches the trained
	// prefix's completion without paying for the junk roots; the zero-cost
	// design must visit every root first.
	prefixes := [][]model.Token{e.Tok.Encode("The man was trained in")}
	junk := []string{"zq", "xv", "qj", "vk", "jx", "kq", "qz", "zx"}
	for _, a := range junk {
		for _, c := range junk {
			prefixes = append(prefixes, e.Tok.Encode(a+c+" "+c+a))
		}
	}
	char := regex.MustCompile(" ((art)|(science)|(medicine)|(engineering))")
	pat, err := compiler.CompileCanonical(char, e.Tok, 32, 1000)
	if err != nil {
		b.Fatal(err)
	}
	for _, zero := range []bool{false, true} {
		name := "heuristic"
		if zero {
			name = "zero-cost"
		}
		b.Run(name, func(b *testing.B) {
			var expanded float64
			for i := 0; i < b.N; i++ {
				m := e.FreshModel(false)
				s := engine.ShortestPath(m.Dev, &engine.Query{
					Pattern:        pat,
					Prefixes:       prefixes,
					BatchExpand:    1,
					PrefixZeroCost: zero,
				})
				if _, err := s.Next(); err != nil {
					b.Fatal(err)
				}
				expanded = float64(s.Stats().NodesExpanded)
			}
			b.ReportMetric(expanded, "nodes-to-first")
		})
	}
}

// BenchmarkAblationModelFamilies compares end-to-end shortest-path query cost
// across the three LM architectures (n-gram, log-bilinear, transformer). The
// engine code path is identical; the difference is pure NextLogProbs cost —
// quantifying what the "thin LLM inference ecosystem" substitution buys.
func BenchmarkAblationModelFamilies(b *testing.B) {
	lines := []string{
		"the cat sat on the mat",
		"the dog ran in the park",
		"the bird flew over the park",
	}
	tok := tokenizer.Train(lines, 60)
	families := []struct {
		name string
		lm   model.LanguageModel
	}{
		{"ngram", model.TrainNGram(lines, tok, model.NGramConfig{Order: 4, MaxSeqLen: 32})},
		{"lbl", model.TrainLogBilinear(lines, tok, model.LBLConfig{Epochs: 5, Seed: 1})},
		{"transformer", model.TrainTransformer(lines, tok, model.TransformerConfig{
			DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 24, Epochs: 5, LR: 5e-3, Seed: 1,
		})},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			m := relm.NewModel(f.lm, tok, relm.ModelOptions{CacheSize: -1})
			for i := 0; i < b.N; i++ {
				results, err := relm.Search(m, relm.SearchQuery{
					Query: relm.QueryString{Pattern: "( cat)|( dog)|( bird)", Prefix: "the"},
				})
				if err != nil {
					b.Fatal(err)
				}
				if got := results.Take(3); len(got) != 3 {
					b.Fatalf("got %d matches", len(got))
				}
			}
		})
	}
}

// BenchmarkIncrementalDecode compares frontier expansion on the transformer
// at depth >= 32 (DESIGN.md decision 10): the full-forward arm re-scores
// every child's whole prefix through ScoreBatch; the prefill+extend arm
// reuses the parent's KV state and pays one token per child. The speed gate
// (TestIncrementalSpeedGate, internal/model) demands >= 3x; this bench
// tracks the actual ratio across commits via the CI bench smoke.
func BenchmarkIncrementalDecode(b *testing.B) {
	lines := []string{
		"the cat sat on the mat",
		"the dog ran in the park",
		"the bird flew over the park",
	}
	tok := tokenizer.Train(lines, 80)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 32, NHeads: 2, NLayers: 2, MaxSeqLen: 48, Epochs: 1, Seed: 5,
	})
	const depth, width = 32, 8
	ctx := make([]model.Token, depth)
	for i := range ctx {
		ctx[i] = model.Token(i % tok.VocabSize())
	}
	parent, _ := lm.Prefill(ctx)
	states := make([]model.DecodeState, width)
	toks := make([]model.Token, width)
	full := make([][]model.Token, width)
	for i := 0; i < width; i++ {
		states[i] = parent
		toks[i] = model.Token(i + 1)
		full[i] = append(append([]model.Token{}, ctx...), toks[i])
	}
	b.Run("full-forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lm.ScoreBatch(full)
		}
	})
	b.Run("prefill-extend", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lm.ExtendBatch(states, toks)
		}
	})
}

// BenchmarkTransformerNextLogProbs prices a single inference step of the
// from-scratch transformer at the default configuration.
func BenchmarkTransformerNextLogProbs(b *testing.B) {
	lines := []string{"the cat sat on the mat", "the dog ran in the park"}
	tok := tokenizer.Train(lines, 60)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{Epochs: 1, Seed: 1})
	ctx := tok.Encode("the cat sat on")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lm.NextLogProbs(ctx)
	}
}

// BenchmarkRewriteApply prices the optional-rewrite preprocessor (synonyms /
// homoglyphs) on a sentence-scale pattern.
func BenchmarkRewriteApply(b *testing.B) {
	char := regex.MustCompile("the woman was trained in ((art)|(science)|(medicine))")
	rules := rewrite.Homoglyphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rewrite.Apply(char, rules)
	}
}

// BenchmarkExplain prices query planning (no inference) for a URL-scale
// pattern — the cost a user pays to pre-flight a query.
func BenchmarkExplain(b *testing.B) {
	e := env(b)
	m := e.FreshModel(false)
	q := relm.SearchQuery{
		Query: relm.QueryString{Pattern: experiments.URLPattern, Prefix: "https://www."},
		TopK:  40,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relm.Explain(m, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMass prices the certified language-mass computation: the total
// probability of emitting any phone-number-shaped string (an aggregate no
// sampling-based workflow can certify).
func BenchmarkMass(b *testing.B) {
	e := env(b)
	m := e.FreshModel(false)
	q := relm.SearchQuery{
		Query:    relm.QueryString{Pattern: " [0-9]{3} [0-9]{3} [0-9]{4}", Prefix: "My phone number is"},
		MaxNodes: 50000,
	}
	var lower float64
	for i := 0; i < b.N; i++ {
		est, err := relm.Mass(m, q, relm.MassOptions{Tolerance: 1e-3})
		if err != nil {
			b.Fatal(err)
		}
		lower = est.Lower
	}
	b.ReportMetric(lower, "mass-lower")
}
