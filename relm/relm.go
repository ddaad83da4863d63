// Package relm is the public API of this ReLM reproduction: a Regular
// Expression engine for Language Models (Kuchnik, Smith, Amvrosiadis —
// MLSys 2023). A query combines (1) a regular expression describing a set of
// strings, (2) a language model, (3) decoding/decision rules, and (4) a
// traversal algorithm; the engine streams back the strings in the
// intersection of the regex language and the model's language (§3).
//
// The API mirrors the paper's Python interface (Figures 4 and 11):
//
//	q := relm.SearchQuery{
//	    Query: relm.QueryString{
//	        Pattern: "My phone number is ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
//	        Prefix:  "My phone number is",
//	    },
//	    TopK: 40,
//	}
//	results, err := relm.Search(m, q)
//	for {
//	    match, err := results.Next()
//	    if err != nil { break }
//	    fmt.Println(match.Text) // My phone number is 555 555 5555
//	}
//
// Beyond Search, the package provides Explain (compile a query into an
// execution plan without running it) and Mass (certified lower/upper bounds
// on the probability that a complete generation falls in the query's
// language) — the paper's future-work directions, implemented.
package relm

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/automaton"
	"repro/internal/cache"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/kvcache"
	"repro/internal/levenshtein"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

// SearchStrategy selects the traversal algorithm (§3.3).
type SearchStrategy int

const (
	// ShortestPath yields matches in order of decreasing model probability
	// (Dijkstra over -log p), used for memorization and inference.
	ShortestPath SearchStrategy = iota
	// RandomSampling draws matches at random (uniform prefixes, model-
	// conditional suffixes), used to estimate probabilities.
	RandomSampling
	// BeamSearch runs constrained beam search (the De Cao-style trie
	// decoding §5 relates to): bounded frontier, level-synchronized device
	// batches, but incomplete — low-probability-prefix matches can be
	// pruned. Configure with BeamWidth.
	BeamSearch
)

// TokenizationStrategy selects which token encodings the query covers
// (§3.2, Figure 3).
type TokenizationStrategy int

const (
	// CanonicalTokens restricts the query to the tokenizer's canonical
	// encoding of each string — the space of conditional generation. The
	// language alone picks the construction (compilePattern).
	CanonicalTokens TokenizationStrategy = iota
	// AllTokens covers every token sequence that decodes into the language —
	// the space of unconditional generation (ambiguous encodings).
	AllTokens
)

// QueryString is the formal-language part of a query. Both fields are
// regular expressions; Prefix may be empty for unconditional generation.
// The effective language is the concatenation L = prefix · pattern (§2.3).
type QueryString struct {
	Pattern string
	Prefix  string
}

// SearchQuery is a complete query specification. The first group of fields
// is the paper's query (§2–3): the language, decision rules and traversal.
// The second tunes how the run executes, and each of its fields names the
// one reader that consumes it.
type SearchQuery struct {
	// Query is the prefix and pattern regexes (§2.3).
	Query QueryString
	// Preprocessors transform the pattern automaton before token
	// compilation (§3.4), e.g. Levenshtein edit expansion or filters.
	Preprocessors []Preprocessor
	// Tokenization selects canonical-only or all encodings (§3.2).
	Tokenization TokenizationStrategy
	// TopK applies top-k filtering to pattern tokens (0 disables). The
	// prefix always bypasses decoding rules (§3.3).
	TopK int
	// TopP applies nucleus filtering (0 or 1 disables).
	TopP float64
	// Temperature rescales logits before filtering (0 or 1 disables).
	Temperature float64
	// RequireEOS demands the model terminate the match with EOS,
	// disambiguating "b" from "bb" (§3.3).
	RequireEOS bool
	// MaxTokens caps pattern length in tokens (default: model window).
	MaxTokens int
	// Strategy selects the traversal algorithm (§3.3).
	Strategy SearchStrategy
	// BeamWidth sets BeamSearch's hypothesis budget (default 8).
	BeamWidth int
	// Seed drives random traversals.
	Seed int64
	// DeferredFilters are applied to match text at stream time (§3.4:
	// "ReLM supports deferring filtering to runtime"). A match is dropped
	// when any filter returns false.
	DeferredFilters []func(text string) bool

	// PrefixLimit caps prefix enumeration (default 4096 strings); compilePrefix.
	PrefixLimit int
	// PrefixMaxLen caps prefix length in bytes (default 128); compilePrefix.
	PrefixMaxLen int
	// MaxNodes caps node expansions, shortest path's (default 1<<20) and
	// Mass's (default 1<<17); the engine's traversal loop.
	MaxNodes int
	// BatchExpand sets the shortest-path and Mass frontier batch size (0: the
	// device's batch limit; 1: one-at-a-time expansion). Batching amortizes
	// device dispatch; matches still come in non-increasing probability at
	// any setting, and only matches of equal probability can change places.
	// engine.EffectiveBatch.
	BatchExpand int
	// Parallelism is read by nothing: a query expands and samples on its
	// own goroutine, and ModelOptions.Pool is the one parallel knob
	// (DESIGN.md decision 6). The performance ledger (bench/relmperf) still
	// sets it, so it is kept only until the ledger's own change drops it
	// (ROADMAP 1(g)); new code leaves it unset.
	Parallelism int
	// Incremental enables KV-cache prefix-state reuse across the search
	// frontier (DESIGN.md decision 10): each expansion round extends the
	// parent's cached decode state by one token instead of re-running the
	// full prefix through the model, dropping per-query scoring from O(L³)
	// to O(L²) work on the transformer substrate. Results are byte-identical
	// to the full path. engine.EffectiveIncremental: it needs the model's KV
	// arena (ModelOptions.KVBudgetBytes >= 0, the default) and prefix states.
	Incremental bool
	// DedupByText collapses matches that decode to the same string,
	// emitting only the highest-probability encoding of each. Useful with
	// AllTokens, where one string surfaces once per encoding; Results.Next.
	DedupByText bool
	// Context, when non-nil, cancels an in-progress traversal: Next returns
	// the context's error once it is done. Use it to put deadlines on
	// exploratory queries over unbounded languages; the engine, between
	// expansion rounds.
	Context context.Context
}

// Validate reports the first field of q outside its valid range: a negative
// TopK, Temperature, BeamWidth or BatchExpand, or a TopP outside
// [0, 1]. Search, Mass and Explain call it; a front end calls it to refuse a
// query before it pays for anything else.
func (q SearchQuery) Validate() error {
	switch {
	case q.TopK < 0:
		return fmt.Errorf("relm: TopK must be >= 0, got %d", q.TopK)
	case !(q.Temperature >= 0):
		// A negative temperature would invert the distribution, silently
		// ranking the least likely strings first.
		return fmt.Errorf("relm: Temperature must be >= 0, got %g", q.Temperature)
	case !(q.TopP >= 0 && q.TopP <= 1):
		return fmt.Errorf("relm: TopP must be in [0, 1], got %g", q.TopP)
	case q.BeamWidth < 0:
		return fmt.Errorf("relm: BeamWidth must be >= 0, got %d", q.BeamWidth)
	case q.BatchExpand < 0:
		return fmt.Errorf("relm: BatchExpand must be >= 0, got %d", q.BatchExpand)
	}
	return nil
}

// Model bundles a language model with its tokenizer and simulated device —
// the objects the paper passes alongside the query (Figure 11's model and
// tokenizer arguments).
type Model struct {
	LM  model.LanguageModel
	Tok *tokenizer.BPE
	Dev *device.Device

	// cache is the shared logit cache NewModel installed between the device
	// and the raw model (nil when caching is disabled). Sessions derive
	// attribution scopes from it.
	cache *cache.LM
	// plans is the compiled-plan cache shared by the model and every session
	// derived from it (nil when plan caching is disabled). Repeat and
	// concurrent queries for the same pattern share one immutable
	// automaton instead of recompiling it.
	plans *planCache[*compiled]
	// prefixes is the compiled-prefix cache beside it, under the same
	// capacity: a repeated prefix reuses its automaton, encoded strings and
	// walk-count table.
	prefixes *planCache[*prefixLanguage]
	// kv is the prefix-state arena shared by every incremental query and
	// session of this model (nil when disabled). Overlapping frontiers —
	// concurrent queries over a common prefix — reuse one decode state.
	kv *kvcache.Arena
	// batcher is the continuous cross-query fusion scheduler attached to the
	// device when ModelOptions.ContinuousBatching is set (DESIGN.md decision
	// 12); nil when dispatch is direct. Shared by every session.
	batcher *device.Batcher
	// tracer owns the model's query tracing: the sampling decision, the
	// bounded ring of finished traces, and the per-stage latency histograms
	// (DESIGN.md decision 16). nil when ModelOptions.TraceSampling is
	// negative — every instrumentation site then costs a single nil check.
	tracer *trace.Tracer
	// fp memoizes Fingerprint for the model and every session view of it
	// (a view copies the pointer). nil on a Model literal, whose Fingerprint
	// probes on every call.
	fp *fingerprint
}

// fingerprint is a Model's Fingerprint, probed once.
type fingerprint struct {
	once sync.Once
	v    string
}

// ModelOptions configures device simulation, caching, and scoring
// parallelism.
type ModelOptions struct {
	// Latency prices simulated batches (zero value: device defaults).
	Latency device.LatencyModel
	// MaxBatch bounds device batch size (0: 64).
	MaxBatch int
	// CacheSize bounds the logit cache, windowed TinyLFU (DESIGN.md
	// decision 4), in contexts (0: 8192; negative: no cache).
	CacheSize int
	// Pool, when non-nil, is the persistent scoring pool each dispatched
	// batch is sharded across (nil: every batch is scored on its
	// dispatching goroutine). It may be shared with other models — a
	// long-running server sizes one pool for the whole process (DESIGN.md
	// decisions 6 and 8). The logit cache is single-flight, so concurrent
	// shards never compute the same context twice.
	Pool *device.Pool
	// PlanCacheSize bounds the compiled-plan cache, and the compiled-prefix
	// cache beside it, each windowed TinyLFU like the logit cache (0: 128
	// each; negative: no plan or prefix caching). Compilation is the expensive, amortizable part of a
	// validation query (DESIGN.md decision 9); the caches are single-flight,
	// so concurrent identical queries compile once.
	PlanCacheSize int
	// KVBudgetBytes bounds the prefix-state (KV-cache) arena shared by
	// incremental queries (DESIGN.md decision 10): 0 takes the 64 MiB
	// default, negative disables incremental decoding for this model.
	// States are recomputable, so the budget trades memory for Prefill
	// fallbacks, never correctness. Cold states demote to their token
	// context instead of evicting (DESIGN.md decision 14).
	KVBudgetBytes int64
	// ContinuousBatching attaches a fusion scheduler to the device
	// (DESIGN.md decision 12): scoring calls from all sessions are packed
	// into shared forwards up to MaxBatch, served in arrival order. Result
	// streams are byte-identical to direct dispatch. Call Model.Close to
	// drain the scheduler when done.
	ContinuousBatching bool
	// FusionWindow is the batcher's admission window (0: 200µs): how long
	// the scheduler holds a partial batch hoping more queries contribute
	// rows. Only meaningful with ContinuousBatching.
	FusionWindow time.Duration
	// TraceSampling sets the fraction of queries recorded as structured
	// span-tree traces into the model's bounded trace ring (DESIGN.md
	// decision 16): 0 takes the default of 1.0 (every query; the ring caps
	// retention), values in (0, 1] sample that fraction deterministically,
	// and a negative value disables tracing entirely — the query path then
	// pays one nil pointer check per instrumentation site and allocates
	// nothing.
	TraceSampling float64
	// TraceRing bounds how many finished traces the model retains for
	// GET /v1/trace (0: 256).
	TraceRing int
}

// NewModel wraps a language model and tokenizer for querying.
func NewModel(lm model.LanguageModel, tok *tokenizer.BPE, opts ModelOptions) *Model {
	if opts.Latency == (device.LatencyModel{}) {
		opts.Latency = device.DefaultLatency()
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 8192
	}
	wrapped := lm
	var shared *cache.LM
	if opts.CacheSize > 0 {
		shared = cache.New(lm, opts.CacheSize)
		wrapped = shared
	}
	dev := device.New(wrapped, opts.Latency, opts.MaxBatch)
	dev.SetPool(opts.Pool)
	if opts.PlanCacheSize == 0 {
		opts.PlanCacheSize = 128
	}
	var plans *planCache[*compiled]
	var prefixes *planCache[*prefixLanguage]
	if opts.PlanCacheSize > 0 {
		plans = newPlanCache[*compiled](opts.PlanCacheSize)
		prefixes = newPlanCache[*prefixLanguage](opts.PlanCacheSize)
	}
	var kv *kvcache.Arena
	if opts.KVBudgetBytes >= 0 {
		kv = kvcache.NewTiered(kvcache.Config{BudgetBytes: opts.KVBudgetBytes})
	}
	var batcher *device.Batcher
	if opts.ContinuousBatching {
		batcher = device.StartBatcher(dev, opts.FusionWindow)
	}
	return &Model{
		LM:       lm,
		Tok:      tok,
		Dev:      dev,
		cache:    shared,
		plans:    plans,
		prefixes: prefixes,
		kv:       kv,
		batcher:  batcher,
		tracer:   trace.New(opts.TraceSampling, opts.TraceRing),
		fp:       new(fingerprint),
	}
}

// Tracer returns the model's query tracer, or nil when tracing is disabled
// (ModelOptions.TraceSampling < 0). Serving layers use it to name the
// trace-id namespace, list recent traces, and export stage histograms.
func (m *Model) Tracer() *trace.Tracer { return m.tracer }

// Fused reports whether continuous cross-query batching is active on this
// model's device.
func (m *Model) Fused() bool { return m.batcher != nil }

// BatcherStats snapshots the fusion-scheduler counters (DESIGN.md decision
// 12). Zero-valued when ContinuousBatching is off.
type BatcherStats = device.BatcherStats

// BatcherStats reports the fusion-scheduler counters.
func (m *Model) BatcherStats() BatcherStats {
	if m.batcher == nil {
		return BatcherStats{}
	}
	return m.batcher.Stats()
}

// Close drains and stops the model's fusion scheduler, if one is attached.
// In-flight queries complete (late scoring calls fall back to direct
// dispatch); it is safe to call multiple times and on models without
// fusion. A Model without ContinuousBatching needs no Close.
func (m *Model) Close() {
	if m.batcher != nil {
		m.batcher.Close()
	}
}

// Fingerprint returns a stable content hash identifying the model/tokenizer
// pairing: the tokenizer fingerprint, the LM's externally observable shape
// (vocab size, context window, EOS token), and a behavioral probe — the
// exact log-probabilities the model assigns a few fixed short contexts —
// so two models with identical tokenizer and shape but different weights
// still get different fingerprints. Scoring is deterministic and
// read-only, so the probe is stable across processes. The jobs layer
// stamps the fingerprint into every run-ledger header and refuses to
// resume a run against a model with a different one (DESIGN.md decision
// 11): a resumed sweep must never merge scores from different weights.
// A model from NewModel, and every session of it, runs the probe once.
func (m *Model) Fingerprint() string {
	if m.fp == nil {
		return m.probeFingerprint()
	}
	m.fp.once.Do(func() { m.fp.v = m.probeFingerprint() })
	return m.fp.v
}

// probeFingerprint computes Fingerprint's hash.
func (m *Model) probeFingerprint() string {
	h := sha256.New()
	fmt.Fprintf(h, "relm-model|%s|%d|%d|%d",
		m.Tok.Fingerprint(), m.LM.VocabSize(), m.LM.MaxSeqLen(), m.LM.EOS())
	eos := m.LM.EOS()
	probes := [][]model.Token{{eos}, {0}, {0, eos}}
	var buf [8]byte
	for _, ctx := range probes {
		lp := m.LM.NextLogProbs(ctx)
		if len(lp) > 64 {
			lp = lp[:64]
		}
		for _, x := range lp {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Cache returns the shared logit cache NewModel installed, or nil when
// caching was disabled. Serving layers read its aggregate hit/miss counters
// for observability.
func (m *Model) Cache() *cache.LM { return m.cache }

// PlanCacheStats snapshots the compiled-plan cache counters, the prefix
// cache's beside them. Zero-valued when plan caching is disabled.
func (m *Model) PlanCacheStats() PlanCacheStats { return cacheStats(m.plans, m.prefixes) }

// KVStats snapshots the prefix-state arena counters (DESIGN.md decision 10):
// hits/misses of parent-state lookups during incremental frontier expansion,
// evictions under the byte budget, and the resident size. Zero-valued when
// the arena is disabled (ModelOptions.KVBudgetBytes < 0).
type KVStats = kvcache.Stats

// KVStats reports the model's prefix-state arena counters.
func (m *Model) KVStats() KVStats {
	if m.kv == nil {
		return KVStats{}
	}
	return m.kv.Stats()
}

// KVProbe returns a reader over this model's KV-arena counters that does not
// retain the model itself, mirroring PlanCacheProbe: aggregators keep probes
// for every model they ever saw without pinning weights or logit caches.
func (m *Model) KVProbe() func() KVStats {
	kv := m.kv
	return func() KVStats {
		if kv == nil {
			return KVStats{}
		}
		return kv.Stats()
	}
}

// PlanCacheProbe returns a reader over this model's plan-cache counters that
// does not retain the model itself: the closure captures only the (small,
// capacity-bounded) plan and prefix caches, so long-running aggregators can keep
// probes for every model they ever saw without pinning logit caches and
// model weights.
func (m *Model) PlanCacheProbe() func() PlanCacheStats {
	plans, prefixes := m.plans, m.prefixes
	return func() PlanCacheStats { return cacheStats(plans, prefixes) }
}

// Session is a per-query view of a shared Model: queries run through the
// same device (one virtual accelerator, one clock, one worker pool) and the
// same logit cache, but cache activity is attributed to this session alone.
// A query-serving layer opens one Session per request so overlapping query
// frontiers deduplicate model calls while /v1/stats can still say which
// query benefited (DESIGN.md decision 8).
type Session struct {
	// Model is the per-session view; pass it to Search/Explain/Mass.
	Model *Model
	scope *cache.LM
}

// NewSession derives a session from the model: a copy of it whose device
// scores through a fresh scope of the shared cache. Without a cache the
// session still gets its own Model view, but attribution degenerates to
// zeros.
func (m *Model) NewSession() *Session {
	view := *m
	s := &Session{Model: &view}
	if m.cache != nil {
		s.scope = m.cache.NewScope()
		view.Dev = m.Dev.WithModel(s.scope)
	}
	return s
}

// CacheStats reports this session's share of shared-cache activity: hits
// include entries other sessions computed — the cross-query wins.
func (s *Session) CacheStats() cache.ScopeStats {
	if s.scope == nil {
		return cache.ScopeStats{}
	}
	return s.scope.Tally()
}

// Match is one query result.
type Match struct {
	// Text is the decoded full match (prefix + pattern).
	Text string
	// PrefixText and PatternText are the two parts separately.
	PrefixText  string
	PatternText string
	// Tokens is the full token sequence.
	Tokens []model.Token
	// PatternTokens is the pattern part of the sequence.
	PatternTokens []model.Token
	// LogProb is the model log probability of the sequence (including EOS
	// when RequireEOS was set).
	LogProb float64
	// Canonical reports whether the pattern tokens are the canonical
	// encoding of PatternText.
	Canonical bool
}

// Results streams matches. A Results must be closed when abandoned before
// exhaustion — Close cancels the underlying traversal so the engine stops
// expanding nodes for a consumer that has gone away (a disconnected HTTP
// client, for example). Next/Take/Err are for a single consumer goroutine;
// Close may be called concurrently from another.
type Results struct {
	stream  engine.Stream
	tok     *tokenizer.BPE
	filters []func(string) bool
	dedup   bool
	seen    map[string]bool
	trace   *trace.Trace // nil when the query was not sampled

	mu  sync.Mutex
	err error // first non-exhaustion stream error
}

// ErrExhausted is returned by Next when the query space has been fully
// explored (deterministic traversals).
var ErrExhausted = engine.ErrExhausted

// Next returns the next match, or ErrExhausted.
func (r *Results) Next() (*Match, error) {
	for {
		res, err := r.stream.Next()
		if err != nil {
			if !errors.Is(err, ErrExhausted) {
				r.recordErr(err)
			}
			r.trace.Finish() // terminal for this stream either way
			return nil, err
		}
		m := &Match{
			PrefixText:    r.tok.Decode(res.Prefix),
			PatternText:   r.tok.Decode(res.Pattern),
			Tokens:        res.Tokens(),
			PatternTokens: res.Pattern,
			LogProb:       res.LogProb,
			Canonical:     tokenizer.IsCanonical(r.tok, res.Pattern),
		}
		m.Text = m.PrefixText + m.PatternText
		// Deferred filters run before dedup bookkeeping: a filter-dropped
		// match must not consume a dedup slot, so the seen map grows only
		// with matches actually emitted.
		dropped := false
		for _, f := range r.filters {
			if !f(m.Text) {
				dropped = true
				break
			}
		}
		if dropped {
			continue
		}
		if r.dedup {
			if r.seen == nil {
				r.seen = map[string]bool{}
			}
			if r.seen[m.Text] {
				continue
			}
			r.seen[m.Text] = true
		}
		return m, nil
	}
}

// Take drains up to n matches. It stops at the first error from Next —
// clean exhaustion or a real failure — and records the latter, so callers
// can distinguish "the language ran out" from "the engine was cancelled or
// failed" by checking Err afterwards.
func (r *Results) Take(n int) []*Match {
	var out []*Match
	for i := 0; i < n; i++ {
		m, err := r.Next()
		if err != nil {
			break
		}
		out = append(out, m)
	}
	return out
}

// Err reports the first error, other than exhaustion, that terminated the
// stream: a cancelled or expired context, or an engine failure. It returns
// nil while the stream is live and after clean exhaustion.
func (r *Results) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

func (r *Results) recordErr(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// Close cancels the underlying traversal and releases its resources. A
// concurrent Next unblocks with a cancellation error at its next expansion
// round; subsequent Next calls fail immediately. Close is idempotent and
// safe from any goroutine. Always close a Results you do not drain to
// exhaustion.
func (r *Results) Close() error {
	err := r.stream.Close()
	r.trace.Finish()
	return err
}

// Stats exposes the underlying engine counters.
func (r *Results) Stats() engine.Stats { return r.stream.Stats() }

// TraceID returns the identifier of this query's trace in the model's trace
// ring, or "" when the query was not sampled. The trace becomes retrievable
// (GET /v1/trace/{id}) once the stream finishes: exhaustion, a terminal
// error, or Close.
func (r *Results) TraceID() string { return r.trace.ID() }

// Trace finishes and returns this query's span tree, or nil when the query
// was not sampled. Spans opened after the first call are dropped.
func (r *Results) Trace() *trace.Data { return r.trace.Finish() }

// Tracing returns the query's live trace handle so serving layers can add
// their own spans (stream emission, for example); nil when the query was not
// sampled. Spans must be ended before the stream reaches its terminal state —
// the trace snapshot freezes when the stream finishes.
func (r *Results) Tracing() *trace.Trace { return r.trace }

// Search compiles and launches a query against a model, returning a result
// stream. Compilation follows §3.1's pipeline: regex -> Natural Language
// Automaton -> (preprocessors) -> LLM Automaton -> executor.
func Search(m *Model, q SearchQuery) (*Results, error) {
	r, err := lower(m, &q, searchRun)
	if err != nil {
		return nil, err
	}
	var stream engine.Stream
	switch q.Strategy {
	case ShortestPath:
		stream = engine.ShortestPath(m.Dev, &r.eq)
	case BeamSearch:
		stream = engine.Beam(m.Dev, &r.eq, engine.BeamOptions{Width: r.eq.BatchExpand})
	case RandomSampling:
		opts := engine.SamplerOptions{Seed: q.Seed}
		if r.walks != nil {
			// Sample prefixes uniformly over the *byte-level* prefix
			// automaton (each string is exactly one byte path, giving the
			// uniform-over-strings semantics of §3.3), then encode the
			// sampled string canonically for the model context.
			opts.PrefixWalks = r.walks
			opts.PrefixEncode = m.Tok.Encode
		}
		stream = engine.Sample(m.Dev, &r.eq, opts)
	}
	return &Results{stream: stream, tok: m.Tok, filters: q.DeferredFilters, dedup: q.DedupByText, trace: r.eq.Trace}, nil
}

// EscapeLiteral escapes a string for literal use inside a pattern.
func EscapeLiteral(s string) string { return regex.Escape(s) }

// DisjunctionOf builds the pattern (a)|(b)|... from literal options — the
// multiple-choice encoding of §2.4.
func DisjunctionOf(options ...string) string { return regex.Disjunction(options) }

// Preprocessor transforms the pattern's character automaton before token
// compilation (§3.4). Preprocessors are applied in sequence.
type Preprocessor interface {
	Transform(d *automaton.DFA) (*automaton.DFA, error)
	Name() string
}

// EditDistance is the Levenshtein preprocessor: it expands the language to
// all strings within K character edits (insert/delete/substitute over
// Alphabet): the language of K chained distance-1 automata (§3.4), built in
// one construction.
type EditDistance struct {
	K int
	// Alphabet restricts edit characters; nil means printable ASCII.
	Alphabet []byte
}

// Transform implements Preprocessor.
func (e EditDistance) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	if e.K < 0 {
		return nil, errors.New("relm: negative edit distance")
	}
	alpha := e.Alphabet
	if alpha == nil {
		alpha = levenshtein.PrintableASCII()
	}
	return levenshtein.ExpandK(d, alpha, e.K), nil
}

// Name implements Preprocessor.
func (e EditDistance) Name() string { return fmt.Sprintf("edit-distance-%d", e.K) }

// PlanKey implements PlanKeyer: the edit configuration is K plus the exact
// edit alphabet. Transform treats a nil alphabet as printable ASCII, so nil
// must key differently from an explicit empty alphabet.
func (e EditDistance) PlanKey() string {
	if e.Alphabet == nil {
		return fmt.Sprintf("edit:%d:default", e.K)
	}
	return fmt.Sprintf("edit:%d:%q", e.K, e.Alphabet)
}

// RemoveWords is the filter preprocessor: it subtracts the given literal
// strings from the language (§3.4: filters "remove stop words or toxic
// content from a query by mapping those strings to the empty string").
type RemoveWords struct {
	// Words is only read, so one list may serve any number of queries.
	Words []string
	// IgnoreCase also removes capitalized variants.
	IgnoreCase bool
}

// Transform implements Preprocessor.
func (r RemoveWords) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	if len(r.Words) == 0 {
		return d, nil
	}
	words := r.Words
	if r.IgnoreCase {
		seen := map[string]bool{}
		var expanded []string
		add := func(w string) {
			if !seen[w] {
				seen[w] = true
				expanded = append(expanded, w)
			}
		}
		for _, w := range words {
			add(w)
			add(strings.ToLower(w))
			if w != "" {
				add(strings.ToUpper(w[:1]) + w[1:])
			}
		}
		words = expanded
	}
	remove := automaton.FromStrings(words)
	alpha := levenshtein.SortedAlphabetUnion(levenshtein.AlphabetOf(d), levenshtein.AlphabetOf(remove))
	syms := make([]automaton.Symbol, len(alpha))
	for i, b := range alpha {
		syms[i] = int(b)
	}
	return automaton.Difference(d, remove, syms).Minimize(), nil
}

// Name implements Preprocessor.
func (r RemoveWords) Name() string { return "remove-words" }

// PlanKey implements PlanKeyer: IgnoreCase and a digest of Words, so a
// long stop list keys in the same few allocations as a short one.
func (r RemoveWords) PlanKey() string {
	if r.IgnoreCase {
		return wordListKey("remove-words:true:", r.Words)
	}
	return wordListKey("remove-words:false:", r.Words)
}

// PrependLiteral rewrites the language to lit·L, useful for adding a leading
// space or tag to every string in a pattern.
type PrependLiteral struct{ Lit string }

// Transform implements Preprocessor.
func (p PrependLiteral) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	lit, err := regex.Compile(regex.Escape(p.Lit))
	if err != nil {
		return nil, err
	}
	return automaton.Concat(lit, d), nil
}

// Name implements Preprocessor.
func (p PrependLiteral) Name() string { return "prepend-literal" }

// PlanKey implements PlanKeyer.
func (p PrependLiteral) PlanKey() string { return fmt.Sprintf("prepend:%q", p.Lit) }
