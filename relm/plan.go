package relm

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/engine"
	"repro/internal/regex"
)

// compiled holds the products of pattern compilation, shared by Search,
// Explain, and Mass. A compiled plan is immutable once built — the char
// automaton is fully constructed (read-only thereafter), the token automaton
// is frozen, and the filter is stateless — so one instance may be shared by
// any number of concurrent queries via the plan cache.
type compiled struct {
	char     *automaton.DFA    // byte-alphabet automaton after preprocessors (minimized)
	token    *automaton.Frozen // token-alphabet LLM automaton, minimized + frozen
	filter   *compiler.CanonicalFilter
	resolved CanonicalStrategy // which canonical construction actually ran
}

// compilePattern runs §3.1's pipeline up to the LLM automaton. The char
// automaton is minimized after preprocessors run: regex.Compile and the
// preprocessors that minimize their own output hand over an automaton marked
// minimal, which Minimize returns as it is, but a preprocessor (e.g.
// PrependLiteral's Concat) may return a non-minimal one, and the full token
// construction preserves minimality — two states distinguishable over bytes
// stay distinguishable over tokens, since every byte is itself a token — so
// minimizing at the char boundary yields minimal token automata on every
// path below (the enumerate and pairwise constructions minimize their own
// outputs). Minimal automata come in one canonical numbering, so the frozen
// plan is a function of the language, not of the route that built it.
func compilePattern(m *Model, q SearchQuery) (*compiled, error) {
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
		switch q.Canonical {
		case CanonicalAuto:
			canon, cerr := compiler.CompileCanonical(charDFA, m.Tok, q.PatternMaxLen, q.CanonicalLimit)
			if cerr == nil {
				token = canon
				c.resolved = CanonicalEnumerate
			} else if errors.Is(cerr, compiler.ErrLanguageTooLarge) {
				// Too large to enumerate: traverse the full automaton under
				// the lazy dynamic canonicality filter (§3.2 option 2).
				token = compiler.CompileFull(charDFA, m.Tok)
				c.filter = compiler.NewCanonicalFilter(m.Tok)
				c.resolved = CanonicalDynamic
			} else {
				return nil, cerr
			}
		case CanonicalEnumerate:
			canon, cerr := compiler.CompileCanonical(charDFA, m.Tok, q.PatternMaxLen, q.CanonicalLimit)
			if cerr != nil {
				return nil, cerr
			}
			token = canon
			c.resolved = CanonicalEnumerate
		case CanonicalPairwise:
			token = compiler.CompileCanonicalPairwise(charDFA, m.Tok)
			c.resolved = CanonicalPairwise
		case CanonicalDynamic:
			token = compiler.CompileFull(charDFA, m.Tok)
			c.filter = compiler.NewCanonicalFilter(m.Tok)
			c.resolved = CanonicalDynamic
		default:
			return nil, fmt.Errorf("relm: unknown canonical strategy %d", q.Canonical)
		}
	case AllTokens:
		token = compiler.CompileFull(charDFA, m.Tok)
	default:
		return nil, fmt.Errorf("relm: unknown tokenization strategy %d", q.Tokenization)
	}
	c.token = token.Freeze()
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
	// LanguageSize counts pattern strings up to PatternMaxLen bytes
	// (-1: infinite or beyond the horizon).
	LanguageSize int64
	// Encodings counts token paths through the LLM automaton up to
	// MaxTokens (or the horizon below), measuring encoding ambiguity:
	// Encodings > LanguageSize means some strings have multiple encodings.
	// -1 when the count overflows int64.
	Encodings int64
	// Tokenization echoes the query's strategy.
	Tokenization TokenizationStrategy
	// ResolvedCanonical reports which canonical construction ran (only
	// meaningful for CanonicalTokens; CanonicalAuto resolves to Enumerate
	// or Dynamic).
	ResolvedCanonical CanonicalStrategy
	// DynamicFilter reports that runtime canonicality pruning is active.
	DynamicFilter bool
	// PrefixStrings counts the enumerated prefix language (0 when the
	// query has no prefix; -1 when the prefix language exceeds the limit).
	PrefixStrings int64
	// Strategy echoes the traversal.
	Strategy SearchStrategy
	// BatchSize is the effective frontier batch per device round: the
	// query's BatchExpand, or the device batch limit when unset (DESIGN.md
	// decision 6).
	BatchSize int
	// Parallelism is the effective engine worker-pool width (1 when the
	// query leaves it unset).
	Parallelism int
	// DeviceWorkers is the device-side scoring pool width configured via
	// ModelOptions.Parallelism.
	DeviceWorkers int
	// Incremental reports whether the query will run with KV prefix-state
	// reuse (the query asked for it and the model's arena is enabled).
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
	fmt.Fprintf(&b, "  tokenization:     %s\n", tokenizationName(p.Tokenization, p.ResolvedCanonical, p.DynamicFilter))
	fmt.Fprintf(&b, "  prefix strings:   %s\n", countStr(p.PrefixStrings))
	fmt.Fprintf(&b, "  traversal:        %s\n", strategyName(p.Strategy))
	fmt.Fprintf(&b, "  execution:        batch %d, %d expansion workers, %d device workers\n",
		p.BatchSize, p.Parallelism, p.DeviceWorkers)
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

func tokenizationName(t TokenizationStrategy, c CanonicalStrategy, dyn bool) string {
	if t == AllTokens {
		return "all encodings"
	}
	switch c {
	case CanonicalEnumerate:
		return "canonical (enumerated)"
	case CanonicalPairwise:
		return "canonical (pairwise automaton)"
	case CanonicalDynamic:
		if dyn {
			return "canonical (dynamic runtime filter)"
		}
		return "canonical (dynamic)"
	default:
		return "canonical"
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

// Explain compiles a query exactly as Search would and returns the execution
// plan instead of running it. No model inference is performed.
func Explain(m *Model, q SearchQuery) (*Plan, error) {
	if m == nil || m.Tok == nil || m.Dev == nil {
		return nil, errors.New("relm: model is incomplete")
	}
	applyDefaults(&q)
	comp, hit, err := compileCached(m, &q)
	if err != nil {
		return nil, err
	}
	prefix, err := compilePrefix(m, &q)
	if err != nil {
		return nil, err
	}

	p := &Plan{
		CharStates:        comp.char.NumStates(),
		CharEdges:         comp.char.NumEdges(),
		TokenStates:       comp.token.NumStates(),
		TokenEdges:        comp.token.NumEdges(),
		Tokenization:      q.Tokenization,
		ResolvedCanonical: comp.resolved,
		DynamicFilter:     comp.filter != nil,
		Strategy:          q.Strategy,
		BatchSize:         engine.EffectiveBatch(m.Dev, q.BatchExpand),
		Parallelism:       engine.EffectiveParallelism(q.Parallelism),
		DeviceWorkers:     m.Dev.Workers(),
		Incremental:       q.Incremental && m.kv != nil,
		PlanCacheHit:      hit,
	}
	p.PlanCache = m.PlanCacheStats()
	p.LanguageSize = comp.char.LanguageSize(q.PatternMaxLen)
	maxToks := q.MaxTokens
	if maxToks <= 0 {
		maxToks = m.LM.MaxSeqLen()
	}
	p.Encodings = compiler.CountEncodings(comp.token, maxToks)

	if prefix != nil {
		p.PrefixStrings = prefix.Size()
		switch p.PrefixStrings {
		case -1:
			p.Warnings = append(p.Warnings, fmt.Sprintf("prefix language exceeds PrefixLimit=%d; Search will refuse deterministic traversals", q.PrefixLimit))
		case 0:
			p.Warnings = append(p.Warnings, "prefix language is empty; Search will fail")
		}
	}

	if comp.token.IsEmpty() {
		p.Warnings = append(p.Warnings, "pattern language is empty in token space; the query yields no matches")
	}
	if p.LanguageSize == 0 && !comp.char.HasCycle() {
		p.Warnings = append(p.Warnings, "pattern language is empty")
	}
	if p.DynamicFilter {
		p.Warnings = append(p.Warnings, "dynamic canonicality filtering re-encodes partial matches at runtime; prefer CanonicalPairwise for hot queries")
	}
	if q.Tokenization == AllTokens && p.LanguageSize > 0 && p.Encodings >= 0 && p.Encodings > 8*p.LanguageSize {
		p.Warnings = append(p.Warnings, fmt.Sprintf("high encoding ambiguity (%d encodings for %d strings); deduplicate with DedupByText", p.Encodings, p.LanguageSize))
	}
	if q.Strategy == ShortestPath && q.TopK == 0 && q.TopP == 0 && p.LanguageSize < 0 {
		p.Warnings = append(p.Warnings, "unfiltered decoding over an unbounded (or astronomically large) language: every string has p>0, so exhaustion is impossible (§2.4); add TopK or bound the pattern")
	}
	return p, nil
}
