package relm

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/lru"
)

// PlanCacheStats snapshots a model's compiled-plan cache counters. The
// paper's core claim is that regex-to-token-automaton compilation is the
// expensive, amortizable part of a validation query; these counters make the
// amortization observable — a serving layer exports them per model, under
// the names their JSON and metric tags give, and Explain reports them per
// query.
type PlanCacheStats struct {
	// Hits are compilations skipped because an identical plan was cached or
	// another query's compilation of it succeeded while this one waited.
	Hits int64 `json:"plan_hits" metric:"relm_plan_hits_total,counter,Plan-cache hits (compilation skipped)."`
	// Misses are compilations actually performed. A failed compilation
	// counts as a miss but is not cached; queries that waited on it count
	// as neither a hit nor a miss.
	Misses int64 `json:"plan_misses" metric:"relm_plan_misses_total,counter,Plan-cache misses (plan compiled)."`
	// Bypassed are queries that could not be keyed — a custom Preprocessor
	// without a PlanKey — and compiled outside the cache.
	Bypassed int64 `json:"plan_bypassed" metric:"relm_plan_bypassed_total,counter,Queries that bypassed the plan cache."`
	// Entries is the current number of cached plans.
	Entries int `json:"plan_entries" metric:"relm_plan_entries,gauge,Compiled plans resident."`
	// CompileTime is the cumulative wall time spent compiling misses. On a
	// warm cache it stops growing: repeat queries spend ~0 time compiling.
	CompileTime time.Duration `json:"-" metric:"-"`
	// PrefixHits, PrefixMisses and PrefixEntries count the same for the
	// model's prefix cache, which holds compiled prefix languages apart from
	// the pattern plans above; PlanCacheSize bounds each. Only a query whose
	// prefix repeats can hit.
	PrefixHits    int64 `json:"prefix_hits" metric:"-"`
	PrefixMisses  int64 `json:"prefix_misses" metric:"-"`
	PrefixEntries int   `json:"prefix_entries" metric:"-"`
}

// planCache is an lru.Map over compiled products, shared by every session of
// a Model: one instance holds pattern plans, another compiled prefixes.
// Concurrent queries for the same key wait on the first compilation instead
// of duplicating it; compile errors propagate to all waiters and are not
// cached.
type planCache[V any] struct {
	mu    sync.Mutex
	plans *lru.Map[V]

	hits, misses, bypassed, compileNS int64
}

func newPlanCache[V any](capacity int) *planCache[V] {
	return &planCache[V]{plans: lru.NewMap[V](capacity)}
}

// get returns the cached value for key, compiling it with compile on a miss.
// hit reports whether the value was served without compiling in this call —
// from the LRU or from another goroutine's in-flight compilation.
func (pc *planCache[V]) get(key []byte, compile func() (V, error)) (c V, hit bool, err error) {
	pc.mu.Lock()
	c, f, ok := pc.plans.Lookup(key)
	if f != nil {
		pc.mu.Unlock()
		if c, err = f.Wait(); err != nil {
			// The owner's compilation failed; nothing was served from a
			// cached plan, so this is neither a hit nor a miss.
			if op, ok := err.(*lru.OwnerPanic); ok {
				err = fmt.Errorf("relm: plan compilation panicked: %v", op.Value)
			}
			return c, false, err
		}
		pc.mu.Lock()
		ok = true
	}
	if ok {
		pc.hits++
		pc.mu.Unlock()
		return c, true, nil
	}
	f = pc.plans.Start(string(key))
	pc.misses++
	pc.mu.Unlock()

	//relm:allow(determinism) wall-clock feeds the compileNS metric only, never the plan bytes
	start := time.Now()
	// A panicking compile (a defective custom preprocessor, say) fails the
	// flight's waiters and unwedges the key before the panic propagates.
	pc.plans.Run(&pc.mu, []*lru.Entry[V]{f}, func() { c, err = compile() })
	//relm:allow(determinism) wall-clock feeds the compileNS metric only, never the plan bytes
	elapsed := time.Since(start)

	pc.mu.Lock()
	pc.compileNS += elapsed.Nanoseconds()
	if err == nil {
		pc.plans.Commit(f, c)
	} else {
		pc.plans.Drop(f, c, err)
	}
	pc.mu.Unlock()
	return c, false, err
}

func (pc *planCache[V]) noteBypass() {
	pc.mu.Lock()
	pc.bypassed++
	pc.mu.Unlock()
}

func (pc *planCache[V]) stats() PlanCacheStats {
	if pc == nil {
		return PlanCacheStats{}
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return PlanCacheStats{
		Hits:        pc.hits,
		Misses:      pc.misses,
		Bypassed:    pc.bypassed,
		Entries:     pc.plans.Len(),
		CompileTime: time.Duration(pc.compileNS),
	}
}

// cacheStats reports the pattern plans' counters with the prefix cache's
// beside them; both caches are nil when plan caching is disabled.
func cacheStats(plans *planCache[*compiled], prefixes *planCache[*prefixLanguage]) PlanCacheStats {
	s, p := plans.stats(), prefixes.stats()
	s.PrefixHits, s.PrefixMisses, s.PrefixEntries = p.Hits, p.Misses, p.Entries
	return s
}

// PlanKeyer is the opt-in a Preprocessor implements to make queries using it
// plan-cacheable. PlanKey must return a stable string that changes whenever
// the preprocessor's language transformation would change; two preprocessors
// with equal keys must produce identical automata from identical inputs. All
// built-in preprocessors implement it. Queries containing a preprocessor
// without a PlanKey bypass the cache (correct, just never amortized).
type PlanKeyer interface {
	PlanKey() string
}

// planKey derives the cache key for q's compilation products, or ok=false
// when the query is not cacheable. The key covers exactly the inputs
// compilePattern consumes: the pattern, the preprocessor chain, the
// tokenization and canonical strategies with their budgets, and the
// tokenizer fingerprint (a plan must never cross tokenizers — token IDs
// would silently mean different strings).
func planKey(m *Model, q *SearchQuery) ([]byte, bool) {
	// Normalize fields the selected compile branch never reads, so queries
	// differing only in ignored knobs share one plan: AllTokens ignores the
	// whole canonical configuration, and the pairwise/dynamic constructions
	// ignore the enumeration budgets.
	canon, climit, pmax := q.Canonical, q.CanonicalLimit, q.PatternMaxLen
	if q.Tokenization == AllTokens {
		canon, climit, pmax = 0, 0, 0
	} else if canon == CanonicalPairwise || canon == CanonicalDynamic {
		climit, pmax = 0, 0
	}
	b := fmt.Appendf(nil, "tok=%s;pat=%q;tz=%d;canon=%d;climit=%d;pmax=%d",
		m.Tok.Fingerprint(), q.Query.Pattern, q.Tokenization, canon, climit, pmax)
	for _, p := range q.Preprocessors {
		k, ok := p.(PlanKeyer)
		if !ok {
			return nil, false
		}
		b = fmt.Appendf(b, ";pp=%q", k.PlanKey())
	}
	return b, true
}

// compileCached resolves q's compilation through the model's plan cache:
// repeat and concurrent queries for the same (pattern, strategy, tokenizer,
// preprocessor, budget) tuple share one immutable compiled plan. hit reports
// whether this call skipped compilation.
func compileCached(m *Model, q *SearchQuery) (c *compiled, hit bool, err error) {
	if m.plans == nil {
		c, err = compilePattern(m, *q)
		return c, false, err
	}
	key, ok := planKey(m, q)
	if !ok {
		m.plans.noteBypass()
		c, err = compilePattern(m, *q)
		return c, false, err
	}
	return m.plans.get(key, func() (*compiled, error) { return compilePattern(m, *q) })
}

// prefixKey derives the prefix cache's key for q: exactly what a compiled
// prefix depends on — the tokenizer fingerprint (its encodings), both
// budgets, and the prefix regex, last, so the key needs no quoting.
func prefixKey(m *Model, q *SearchQuery) []byte {
	fp := m.Tok.Fingerprint()
	b := make([]byte, 0, len(fp)+len(q.Query.Prefix)+24)
	b = append(b, fp...)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(q.PrefixLimit), 10)
	b = append(b, ';')
	b = strconv.AppendInt(b, int64(q.PrefixMaxLen), 10)
	b = append(b, ';')
	return append(b, q.Query.Prefix...)
}

// sortedKeys returns m's keys in sorted order, for deterministic PlanKeys
// over map-typed preprocessor configuration.
func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
