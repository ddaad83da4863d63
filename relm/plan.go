package relm

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/decoding"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/trace"
)

// compiled holds the products of pattern compilation, shared by Search,
// Explain, and Mass. A compiled plan is immutable once built — no DFA
// changes after its Builder makes it, and the filter is stateless — so one
// instance may be shared by any number of concurrent queries via the plan
// cache.
type compiled struct {
	char   *automaton.DFA // byte-alphabet automaton after preprocessors (minimized)
	token  *automaton.DFA // token-alphabet LLM automaton
	filter *compiler.CanonicalFilter
}

// runKind is what a query is lowered for.
type runKind uint8

const (
	searchRun runKind = iota // Search: streamed by the query's Strategy
	massRun                  // Mass: best-first refinement of its bounds
	planRun                  // Explain: described, never executed
)

// run is a query lowered to what executes it: the compiled pattern and
// prefix, and one engine.Query with every execution knob resolved, its
// BatchExpand the rows per device round for every strategy (Plan.BatchSize).
type run struct {
	comp   *compiled
	hit    bool                   // comp was served by the plan cache
	prefix *prefixLanguage        // nil when the query has no prefix
	walks  *automaton.WalkCounter // random sampling's prefix draws
	eq     engine.Query
}

// lower is the one place a query becomes a run (§3.1: regex -> natural
// language automaton -> preprocessors -> LLM automaton -> executor). Search
// and Mass execute what it returns and Explain only describes it, so a plan
// reports the run that executes. It applies q's defaults in place. A plan
// run opens no trace and never enumerates or encodes the prefix.
func lower(m *Model, q *SearchQuery, kind runKind) (run, error) {
	if m == nil || m.Tok == nil || m.Dev == nil {
		return run{}, errors.New("relm: model is incomplete")
	}
	applyDefaults(q)
	if err := q.Validate(); err != nil {
		return run{}, err
	}
	var batch int
	switch {
	case kind == massRun || q.Strategy == ShortestPath:
		batch = engine.EffectiveBatch(m.Dev, q.BatchExpand)
	case q.Strategy == BeamSearch:
		batch = cmp.Or(q.BeamWidth, 8) // a level is one device round
	case q.Strategy == RandomSampling:
		batch = 1 // one context per step
	default:
		return run{}, fmt.Errorf("relm: unknown search strategy %d", q.Strategy)
	}
	maxTokens := q.MaxTokens
	if maxTokens <= 0 {
		maxTokens = m.LM.MaxSeqLen()
	}

	// One trace (or nil) covers compile, prefix scoring, every round, emission.
	var tr *trace.Trace
	if kind != planRun {
		tr = m.tracer.NewTrace()
		tr.Annotate(trace.RootID, "pattern", q.Query.Pattern)
		if q.Query.Prefix != "" {
			tr.Annotate(trace.RootID, "prefix", q.Query.Prefix)
		}
	}
	// Both compilations go through the model's caches (DESIGN.md decision
	// 9). The prefix is itself a regex (§3.4) whose strings deterministic
	// traversals enumerate and encode and sampling draws as walks.
	compSpan := tr.Start(trace.RootID, "plan.compile")
	r := run{}
	var err error
	r.comp, r.hit, err = compileCached(m, q)
	if err == nil {
		r.prefix, err = compilePrefix(m, q)
	}
	var prefixes [][]model.Token
	if err == nil && r.prefix != nil && kind != planRun {
		if kind == searchRun && q.Strategy == RandomSampling {
			r.walks = r.prefix.Walks()
		} else {
			prefixes, err = r.prefix.Encode()
		}
	}
	if err != nil {
		tr.Finish()
		return run{}, err
	}
	tr.Annotate(compSpan, "cache_hit", strconv.FormatBool(r.hit))
	tr.End(compSpan)

	r.eq = engine.Query{
		Pattern:  r.comp.token,
		Prefixes: prefixes,
		Rule:     buildRule(q),
		Filter:   r.comp.filter,
		// Mass measures complete generations: the EOS that ends a match is
		// part of its probability and must pass the decision rules (§2.4).
		RequireEOS:  q.RequireEOS || kind == massRun,
		MaxTokens:   maxTokens,
		MaxNodes:    q.MaxNodes,
		BatchExpand: batch,
		Incremental: q.Incremental,
		KV:          m.kv,
		Context:     q.Context,
		Trace:       tr,
	}
	r.eq.Incremental = engine.EffectiveIncremental(m.Dev, &r.eq)
	return r, nil
}

func applyDefaults(q *SearchQuery) {
	if q.PrefixLimit <= 0 {
		q.PrefixLimit = 4096
	}
	if q.PrefixMaxLen <= 0 {
		q.PrefixMaxLen = 128
	}
}

// buildRule chains the query's decision rules (§2.4), or nil when none
// filters.
func buildRule(q *SearchQuery) decoding.Rule {
	var chain decoding.Chain
	if q.Temperature != 0 && q.Temperature != 1 {
		chain = append(chain, decoding.Temperature{T: q.Temperature})
	}
	if q.TopK > 0 {
		chain = append(chain, decoding.TopK{K: q.TopK})
	}
	if q.TopP > 0 && q.TopP < 1 {
		chain = append(chain, decoding.TopP{P: q.TopP})
	}
	if len(chain) == 0 {
		return nil
	}
	return chain
}

// enumerateLimit bounds the strings of a canonical language compilePattern
// enumerates.
const enumerateLimit = 50000

// compilePattern runs §3.1's pipeline up to the LLM automaton. The char
// automaton is minimized after preprocessors run: regex.Compile and the
// preprocessors that minimize their own output hand over an automaton marked
// minimal, which Minimize returns as it is, but a preprocessor (e.g.
// PrependLiteral's Concat) may return a non-minimal one, and the full token
// construction preserves minimality — two states distinguishable over bytes
// stay distinguishable over tokens, since every byte is itself a token — so
// minimizing at the char boundary yields minimal token automata on every
// path below (enumeration minimizes its own output). Minimal automata come in
// one canonical numbering, so the plan is a function of the language,
// not of the route that built it.
//
// Canonical tokenization has one rule (§3.2, DESIGN.md decision 2): a finite
// language of at most limit strings is enumerated in full and encoded; an
// infinite or larger one is the full automaton traversed under the runtime
// canonicality filter. Queries pass enumerateLimit; a test may pass less to
// take the filter on a small language.
func compilePattern(m *Model, q SearchQuery, limit int) (*compiled, error) {
	charDFA, err := regex.Compile(q.Query.Pattern)
	if err != nil {
		return nil, fmt.Errorf("relm: pattern: %w", err)
	}
	for _, p := range q.Preprocessors {
		charDFA, err = p.Transform(charDFA)
		if err != nil {
			return nil, fmt.Errorf("relm: preprocessor %s: %w", p.Name(), err)
		}
	}
	charDFA = charDFA.Minimize()
	c := &compiled{char: charDFA}

	var token *automaton.DFA
	switch q.Tokenization {
	case CanonicalTokens:
		longest := charDFA.LongestWord() // -1: the language is infinite
		if longest >= 0 {
			token, err = compiler.CompileCanonical(charDFA, m.Tok, longest, limit)
		}
		if longest < 0 || errors.Is(err, compiler.ErrLanguageTooLarge) {
			token, err = compiler.CompileFull(charDFA, m.Tok), nil
			c.filter = compiler.NewCanonicalFilter(m.Tok)
		}
		if err != nil {
			return nil, err
		}
	case AllTokens:
		token = compiler.CompileFull(charDFA, m.Tok)
	default:
		return nil, fmt.Errorf("relm: unknown tokenization strategy %d", q.Tokenization)
	}
	c.token = token
	return c, nil
}

// Plan describes how a query would execute, without executing it — the
// "additional logic for optimizing query execution" the paper's conclusion
// plans. Use it to diagnose pathological queries (exploding languages,
// degenerate prefixes, unexpected canonical fallbacks) before paying for
// model inference.
type Plan struct {
	// CharStates and CharEdges size the byte-alphabet automaton after
	// preprocessors ran.
	CharStates, CharEdges int
	// TokenStates and TokenEdges size the compiled LLM automaton.
	TokenStates, TokenEdges int
	// LanguageSize counts the pattern's strings: -1 when the language is
	// infinite or its count overflows int64.
	LanguageSize int64
	// Encodings counts token paths through the LLM automaton up to
	// MaxTokens (or the horizon below), measuring encoding ambiguity:
	// Encodings > LanguageSize means some strings have multiple encodings.
	// -1 when the count overflows int64.
	Encodings int64
	// Tokenization echoes the query's strategy.
	Tokenization TokenizationStrategy
	// DynamicFilter reports that runtime canonicality pruning is active: the
	// query is canonical and its language infinite or too large to
	// enumerate.
	DynamicFilter bool
	// PrefixStrings counts the enumerated prefix language (0 when the
	// query has no prefix; -1 when the prefix language exceeds the limit).
	PrefixStrings int64
	// Strategy echoes the traversal.
	Strategy SearchStrategy
	// BatchSize bounds the frontier rows each device round scores, per
	// strategy (DESIGN.md decision 6): for shortest path and Mass, the
	// query's BatchExpand, or the device batch limit when unset — for
	// shortest path, the nodes a round pops and the most rows one dispatch
	// carries; for beam search, the beam width, since a whole level is one
	// round; for random sampling, 1, since a walk scores one context per
	// step.
	BatchSize int
	// DeviceWorkers is the device-side scoring width: the size of
	// ModelOptions.Pool, or 1 without one.
	DeviceWorkers int
	// Incremental reports whether the query will run with KV prefix-state
	// reuse (engine.EffectiveIncremental: the query asked for it, the
	// model's arena is enabled, and the model keeps real prefix states).
	Incremental bool
	// PlanCacheHit reports whether this query's compilation was served from
	// the model's plan cache (an identical plan was cached, or another
	// in-flight query was compiling it). A hit means ~0 time was spent in
	// regex/token compilation for this call.
	PlanCacheHit bool
	// PlanCache snapshots the model's plan-cache counters, the prefix
	// cache's included, after this query's pattern and prefix resolved.
	PlanCache PlanCacheStats
	// Warnings lists conditions likely to make the query slow or empty.
	Warnings []string
}

// String renders the plan as an indented summary.
func (p *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan:\n")
	fmt.Fprintf(&b, "  char automaton:   %d states, %d edges\n", p.CharStates, p.CharEdges)
	fmt.Fprintf(&b, "  token automaton:  %d states, %d edges\n", p.TokenStates, p.TokenEdges)
	fmt.Fprintf(&b, "  language size:    %s\n", countStr(p.LanguageSize))
	fmt.Fprintf(&b, "  token encodings:  %s\n", countStr(p.Encodings))
	fmt.Fprintf(&b, "  tokenization:     %s\n", tokenizationName(p.Tokenization, p.DynamicFilter))
	fmt.Fprintf(&b, "  prefix strings:   %s\n", countStr(p.PrefixStrings))
	fmt.Fprintf(&b, "  traversal:        %s\n", strategyName(p.Strategy))
	fmt.Fprintf(&b, "  execution:        batch %d, %d device workers\n", p.BatchSize, p.DeviceWorkers)
	if p.Incremental {
		b.WriteString("  kv arena:         incremental\n")
	}
	hitMark := "miss (compiled now)"
	if p.PlanCacheHit {
		hitMark = "hit (compilation skipped)"
	}
	pc := p.PlanCache
	fmt.Fprintf(&b, "  plan cache:       %s; %d hits / %d misses, %d entries, %s compiling; prefixes %d hits / %d misses, %d entries\n",
		hitMark, pc.Hits, pc.Misses, pc.Entries, pc.CompileTime.Round(time.Microsecond), pc.PrefixHits, pc.PrefixMisses, pc.PrefixEntries)
	for _, w := range p.Warnings {
		fmt.Fprintf(&b, "  warning: %s\n", w)
	}
	return b.String()
}

func countStr(n int64) string {
	if n < 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%d", n)
}

func tokenizationName(t TokenizationStrategy, filter bool) string {
	switch {
	case t == AllTokens:
		return "all encodings"
	case filter:
		return "canonical (dynamic runtime filter)"
	default:
		return "canonical (enumerated)"
	}
}

func strategyName(s SearchStrategy) string {
	switch s {
	case ShortestPath:
		return "shortest path (Dijkstra)"
	case RandomSampling:
		return "random sampling"
	case BeamSearch:
		return "beam search"
	default:
		return fmt.Sprintf("unknown(%d)", int(s))
	}
}

// Explain lowers a query exactly as Search would and returns the execution
// plan instead of running it. No model inference is performed.
func Explain(m *Model, q SearchQuery) (*Plan, error) {
	r, err := lower(m, &q, planRun)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		CharStates:    r.comp.char.NumStates(),
		CharEdges:     r.comp.char.NumEdges(),
		TokenStates:   r.comp.token.NumStates(),
		TokenEdges:    r.comp.token.NumEdges(),
		Tokenization:  q.Tokenization,
		DynamicFilter: r.eq.Filter != nil,
		Strategy:      q.Strategy,
		BatchSize:     r.eq.BatchExpand,
		DeviceWorkers: m.Dev.Workers(),
		Incremental:   r.eq.Incremental,
		PlanCacheHit:  r.hit,
	}
	p.PlanCache = m.PlanCacheStats()
	p.LanguageSize = -1
	if longest := r.comp.char.LongestWord(); longest >= 0 {
		p.LanguageSize = r.comp.char.LanguageSize(longest)
	}
	p.Encodings = compiler.CountEncodings(r.comp.token, r.eq.MaxTokens)

	if r.prefix != nil {
		p.PrefixStrings = r.prefix.Size()
		switch p.PrefixStrings {
		case -1:
			p.Warnings = append(p.Warnings, fmt.Sprintf("prefix language exceeds PrefixLimit=%d; Search will refuse deterministic traversals", q.PrefixLimit))
		case 0:
			p.Warnings = append(p.Warnings, r.prefix.emptyReason()+"; Search will fail")
		}
		if r.prefix.char.HasCycle() {
			p.Warnings = append(p.Warnings, fmt.Sprintf("prefix language is infinite; only its strings of at most PrefixMaxLen=%d bytes are used", q.PrefixMaxLen))
		}
	}

	if r.comp.token.IsEmpty() {
		p.Warnings = append(p.Warnings, "pattern language is empty in token space; the query yields no matches")
	}
	if p.LanguageSize == 0 {
		p.Warnings = append(p.Warnings, "pattern language is empty")
	}
	if p.DynamicFilter {
		p.Warnings = append(p.Warnings, fmt.Sprintf("pattern language is infinite or exceeds %d strings; canonicality is checked at runtime, re-encoding partial matches", enumerateLimit))
	}
	if q.Tokenization == AllTokens && p.LanguageSize > 0 && p.Encodings >= 0 && p.Encodings > 8*p.LanguageSize {
		p.Warnings = append(p.Warnings, fmt.Sprintf("high encoding ambiguity (%d encodings for %d strings); deduplicate with DedupByText", p.Encodings, p.LanguageSize))
	}
	if q.Strategy == ShortestPath && q.TopK == 0 && q.TopP == 0 && p.LanguageSize < 0 {
		p.Warnings = append(p.Warnings, "unfiltered decoding over an unbounded (or astronomically large) language: every string has p>0, so exhaustion is impossible (§2.4); add TopK or bound the pattern")
	}
	return p, nil
}
