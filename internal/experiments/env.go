// Package experiments implements one harness per table and figure of the
// paper's evaluation (§4), runnable through cmd/relm-bench and the root
// bench_test.go. Each harness returns a structured result plus a text
// rendering; tests assert the *shape* of each result (who wins, orderings,
// crossovers) rather than absolute numbers, per DESIGN.md.
package experiments

import (
	"sort"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/device"
	"repro/internal/lambada"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/internal/trace"
	"repro/internal/web"
	"repro/relm"
)

// Scale selects experiment sizing: Quick keeps everything test-suite sized;
// Full approaches the paper's sample counts.
type Scale int

const (
	// Quick is sized for unit tests and CI (seconds).
	Quick Scale = iota
	// Full is sized for the reproduction run (minutes).
	Full
)

// Env bundles the synthetic world every experiment runs against: corpora,
// tokenizer, the two model sizes (GPT-2 XL and GPT-2 analogs), and the web
// oracle.
type Env struct {
	Scale     Scale
	Seed      int64
	Tok       *tokenizer.BPE
	Large     *relm.Model // GPT-2 XL analog (higher order, memorizes harder)
	Small     *relm.Model // GPT-2 analog
	Web       *corpus.WebCorpus
	BiasLines []string
	Pile      []corpus.PileDoc
	Lambada   *lambada.Dataset
	Oracle    *web.Oracle
	Corpus    []string // the full training mix

	// pool is the device scoring pool every model the env builds shares
	// (ModelOptions.Pool), sized by EnvConfig.Parallelism; nil scores on
	// the dispatching goroutine. It is never closed: an env, and the
	// models built from it, live as long as the process that built it.
	pool *device.Pool

	// mu guards planProbes and kvProbes: one counter reader per relm.Model
	// the env has built (the two shared ones, FreshModel products, and
	// models an experiment registers via TrackModel), so PlanStats/KVStats
	// can sum cache counters over the whole run. Probes capture only each
	// model's small cache structures, not the model — a retired model's
	// logit cache and weights stay collectable.
	mu         sync.Mutex
	planProbes []func() relm.PlanCacheStats
	kvProbes   []func() relm.KVStats
	// tracers holds each tracked model's trace ring (the Tracer is a small
	// standalone structure like the probes: retaining it does not pin the
	// model's weights), so Traces can merge every query's span tree for
	// cmd/relm-bench's -trace Chrome export.
	tracers []*trace.Tracer
}

// EnvConfig overrides sizing; zero values take Scale-based defaults.
type EnvConfig struct {
	Scale Scale
	Seed  int64
	// Parallelism sizes the one device scoring pool every model the env
	// builds shares (0/1: no pool, serial scoring). Traversal results are
	// unaffected; only wall-clock speed changes.
	Parallelism    int
	Merges         int
	MemorizedURLs  int
	RepeatsPerURL  int
	DistractorURLs int
	FillerLines    int
	BiasPerPair    int
	PileDocs       int
	LambadaItems   int
	LargeOrder     int
	SmallOrder     int
	MaxSeqLen      int
}

func (c *EnvConfig) defaults() {
	pick := func(v *int, quick, full int) {
		if *v == 0 {
			if c.Scale == Quick {
				*v = quick
			} else {
				*v = full
			}
		}
	}
	pick(&c.Merges, 2200, 3000)
	pick(&c.MemorizedURLs, 12, 60)
	pick(&c.RepeatsPerURL, 4, 5)
	pick(&c.DistractorURLs, 30, 200)
	pick(&c.FillerLines, 60, 400)
	pick(&c.BiasPerPair, 3, 8)
	pick(&c.PileDocs, 60, 400)
	pick(&c.LambadaItems, 60, 500)
	pick(&c.LargeOrder, 8, 8)
	pick(&c.SmallOrder, 3, 3)
	pick(&c.MaxSeqLen, 64, 96)
	if c.Seed == 0 {
		c.Seed = 20230515 // MLSys 2023 vintage
	}
}

// NewEnv builds the full experimental world deterministically.
func NewEnv(cfg EnvConfig) *Env {
	cfg.defaults()
	gen := corpus.NewGenerator(cfg.Seed)
	webCorpus := gen.BuildWebCorpus(corpus.WebCorpusConfig{
		MemorizedURLs:  cfg.MemorizedURLs,
		RepeatsPerURL:  cfg.RepeatsPerURL,
		FillerLines:    cfg.FillerLines,
		DistractorURLs: cfg.DistractorURLs,
	})
	biasLines := gen.BuildBiasCorpus(corpus.BiasCorpusConfig{SentencesPerPair: cfg.BiasPerPair})
	pile := gen.BuildPile(corpus.PileConfig{Docs: cfg.PileDocs})
	// Generate twice the requested cloze items and hold the first half out
	// for evaluation: zero-shot means the eval passages are NOT trained on,
	// only same-distribution passages (shared templates and entity pool).
	lamAll := lambada.Generate(2*cfg.LambadaItems, cfg.Seed+1)
	lam := &lambada.Dataset{Items: lamAll.Items[:cfg.LambadaItems]}
	lamTrain := &lambada.Dataset{Items: lamAll.Items[cfg.LambadaItems:]}

	extra := append(gen.BuildPhoneLines(3, 3), lamTrain.TrainingLines()...)
	extra = append(extra, lambada.EntityMentions(3)...)
	extra = append(extra, lambada.DistractorLines(20)...)
	mix := corpus.TrainingMix(webCorpus, biasLines, pile, extra)
	tok := tokenizer.Train(mix, cfg.Merges)

	// The cache component gives the models transformer-like long-range
	// recall (entities mentioned earlier in the context become likelier),
	// which the LAMBADA-style cloze requires. The large model recalls more
	// strongly, mirroring GPT-2 XL vs GPT-2. Both train on one encoding of
	// the mix.
	ngrams := model.TrainNGrams(mix, tok,
		model.NGramConfig{Order: cfg.LargeOrder, MaxSeqLen: cfg.MaxSeqLen, Lambda: 0.9, CacheWeight: 0.3},
		model.NGramConfig{Order: cfg.SmallOrder, MaxSeqLen: cfg.MaxSeqLen, Lambda: 0.7, CacheWeight: 0.12},
	)
	large, small := ngrams[0], ngrams[1]

	var pool *device.Pool
	if cfg.Parallelism > 1 {
		pool = device.NewPool(cfg.Parallelism)
	}
	env := &Env{
		Scale:     cfg.Scale,
		Seed:      cfg.Seed,
		Tok:       tok,
		Large:     relm.NewModel(large, tok, relm.ModelOptions{Pool: pool}),
		Small:     relm.NewModel(small, tok, relm.ModelOptions{Pool: pool}),
		Web:       webCorpus,
		BiasLines: biasLines,
		Pile:      pile,
		Lambada:   lam,
		Oracle:    web.NewOracle(webCorpus.Registry, 50*time.Millisecond),
		Corpus:    mix,
		pool:      pool,
	}
	env.TrackModel(env.Large)
	env.TrackModel(env.Small)
	return env
}

// TrackModel registers a model's plan-cache counters with the env's
// aggregate. Experiments that build their own models (outside FreshModel)
// call it so cmd/relm-bench's compile-vs-traverse split sees their work.
func (e *Env) TrackModel(m *relm.Model) *relm.Model {
	probe := m.PlanCacheProbe()
	kvProbe := m.KVProbe()
	e.mu.Lock()
	e.planProbes = append(e.planProbes, probe)
	e.kvProbes = append(e.kvProbes, kvProbe)
	e.tracers = append(e.tracers, m.Tracer())
	e.mu.Unlock()
	return m
}

// Traces merges the retained query traces of every model the env has built
// or tracked, oldest first — the input cmd/relm-bench -trace writes out as
// Chrome trace-event JSON.
func (e *Env) Traces() []*trace.Data {
	e.mu.Lock()
	tracers := append([]*trace.Tracer(nil), e.tracers...)
	e.mu.Unlock()
	var out []*trace.Data
	for _, tr := range tracers {
		out = append(out, tr.Recent(0)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Began.Before(out[j].Began) })
	return out
}

// KVStats sums prefix-state arena counters over every model the env has
// built or tracked, giving cmd/relm-bench its per-experiment KV-reuse split
// (DESIGN.md decision 10).
func (e *Env) KVStats() relm.KVStats {
	e.mu.Lock()
	probes := append([]func() relm.KVStats(nil), e.kvProbes...)
	e.mu.Unlock()
	var out relm.KVStats
	for _, probe := range probes {
		s := probe()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Commits += s.Commits
		out.Evictions += s.Evictions
		out.ResidentBytes += s.ResidentBytes
		out.Budget += s.Budget
		out.Nodes += s.Nodes
		out.DemotedNodes += s.DemotedNodes
		out.DemotedBytes += s.DemotedBytes
		out.Demotions += s.Demotions
		out.Promotions += s.Promotions
	}
	return out
}

// PlanStats sums compiled-plan cache counters over every model the env has
// built or tracked, giving cmd/relm-bench its compile-vs-traverse time split.
func (e *Env) PlanStats() relm.PlanCacheStats {
	e.mu.Lock()
	probes := append([]func() relm.PlanCacheStats(nil), e.planProbes...)
	e.mu.Unlock()
	var out relm.PlanCacheStats
	for _, probe := range probes {
		s := probe()
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Bypassed += s.Bypassed
		out.Entries += s.Entries
		out.CompileTime += s.CompileTime
		out.PrefixHits += s.PrefixHits
		out.PrefixMisses += s.PrefixMisses
		out.PrefixEntries += s.PrefixEntries
	}
	return out
}

// FreshModel re-wraps the large model with a fresh device so experiments do
// not share clocks.
func (e *Env) FreshModel(small bool) *relm.Model {
	var lm model.LanguageModel
	if small {
		lm = e.Small.LM
	} else {
		lm = e.Large.LM
	}
	return e.TrackModel(relm.NewModel(lm, e.Tok, relm.ModelOptions{Pool: e.pool}))
}

// FreshOracle returns an oracle with clean counters over the same registry.
func (e *Env) FreshOracle() *web.Oracle {
	return web.NewOracle(e.Web.Registry, 50*time.Millisecond)
}

// DeviceStats extracts utilization from a model's device.
func DeviceStats(m *relm.Model) device.Stats { return m.Dev.Stats() }
