package relm

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/internal/trace"
)

func TestExplainBasic(t *testing.T) {
	m := testModel(t)
	p, err := Explain(m, SearchQuery{
		Query: QueryString{Pattern: "(cat)|(dog)", Prefix: "The "},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.LanguageSize != 2 {
		t.Errorf("language size = %d, want 2", p.LanguageSize)
	}
	if p.PrefixStrings != 1 {
		t.Errorf("prefix strings = %d, want 1", p.PrefixStrings)
	}
	if p.TokenStates == 0 || p.TokenEdges == 0 {
		t.Error("token automaton not sized")
	}
	if p.DynamicFilter {
		t.Error("a 2-string language must be enumerated, not filtered")
	}
	if len(p.Warnings) != 0 {
		t.Errorf("unexpected warnings: %v", p.Warnings)
	}
	if s := p.String(); !strings.Contains(s, "canonical (enumerated)") {
		t.Errorf("String() = %q", s)
	}
}

func TestExplainAllTokensAmbiguity(t *testing.T) {
	m := testModel(t)
	p, err := Explain(m, SearchQuery{
		Query:        QueryString{Pattern: "The cat"},
		Tokenization: AllTokens,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.LanguageSize != 1 {
		t.Fatalf("language size = %d", p.LanguageSize)
	}
	if p.Encodings <= 1 {
		t.Fatalf("encodings = %d, want >1 for AllTokens", p.Encodings)
	}
}

func TestExplainUnboundedLanguageWarning(t *testing.T) {
	m := testModel(t)
	p, err := Explain(m, SearchQuery{
		Query: QueryString{Pattern: "[a-z]*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.LanguageSize >= 0 {
		t.Fatalf("language size = %d, want unbounded", p.LanguageSize)
	}
	found := false
	for _, w := range p.Warnings {
		if strings.Contains(w, "exhaustion is impossible") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing unbounded-language warning in %v", p.Warnings)
	}
}

func TestExplainHugePrefixWarning(t *testing.T) {
	m := testModel(t)
	p, err := Explain(m, SearchQuery{
		Query:       QueryString{Pattern: "x", Prefix: "[a-z]{10}"},
		PrefixLimit: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.PrefixStrings != -1 {
		t.Fatalf("prefix strings = %d, want -1", p.PrefixStrings)
	}
	if len(p.Warnings) == 0 {
		t.Fatal("expected a prefix warning")
	}
}

func TestExplainDynamicFilterResolution(t *testing.T) {
	m := testModel(t)
	p, err := Explain(m, SearchQuery{
		Query: QueryString{Pattern: "[a-z]{1,8}"}, // beyond enumeration
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.DynamicFilter || !strings.Contains(p.String(), "canonical (dynamic runtime filter)") {
		t.Fatalf("want the dynamic filter, got %v:\n%s", p.DynamicFilter, p)
	}
}

func TestExplainMatchesSearchBehavior(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "(cat)|(dog)", Prefix: "The "}}
	p, err := Explain(m, q)
	if err != nil {
		t.Fatal(err)
	}
	results, err := Search(m, q)
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(10)
	if int64(len(matches)) != p.LanguageSize {
		t.Fatalf("plan says %d strings; search yielded %d", p.LanguageSize, len(matches))
	}
}

func TestExplainErrors(t *testing.T) {
	m := testModel(t)
	if _, err := Explain(nil, SearchQuery{}); err == nil {
		t.Error("nil model must error")
	}
	if _, err := Explain(m, SearchQuery{Query: QueryString{Pattern: "("}}); err == nil {
		t.Error("bad pattern must error")
	}
	if _, err := Explain(m, SearchQuery{Query: QueryString{Pattern: "a", Prefix: "("}}); err == nil {
		t.Error("bad prefix must error")
	}
}

// TestEntryPointsRejectInvalidQueries: Search, Mass and Explain share one
// lowering, so each refuses every value SearchQuery.Validate rules out, and
// refuses it before compiling anything.
func TestEntryPointsRejectInvalidQueries(t *testing.T) {
	m := testModel(t)
	valid := SearchQuery{Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		bad  func(*SearchQuery)
	}{
		{"negative TopK", func(q *SearchQuery) { q.TopK = -3 }},
		{"negative Temperature", func(q *SearchQuery) { q.Temperature = -1 }},
		{"NaN Temperature", func(q *SearchQuery) { q.Temperature = math.NaN() }},
		{"TopP above 1", func(q *SearchQuery) { q.TopP = 1.7 }},
		{"negative TopP", func(q *SearchQuery) { q.TopP = -0.1 }},
		{"negative BeamWidth", func(q *SearchQuery) { q.BeamWidth = -2 }},
		{"negative BatchExpand", func(q *SearchQuery) { q.BatchExpand = -1 }},
	} {
		q := valid
		c.bad(&q)
		if q.Validate() == nil {
			t.Errorf("%s: Validate accepted it", c.name)
		}
		if _, err := Search(m, q); err == nil {
			t.Errorf("%s: Search accepted it", c.name)
		}
		if _, err := Mass(m, q, MassOptions{}); err == nil {
			t.Errorf("%s: Mass accepted it", c.name)
		}
		if _, err := Explain(m, q); err == nil {
			t.Errorf("%s: Explain accepted it", c.name)
		}
	}
	if s := m.PlanCacheStats(); s.Hits+s.Misses+s.PrefixHits+s.PrefixMisses != 0 {
		t.Errorf("an invalid query reached compilation: %+v", s)
	}
}

// TestExplainDescribesTheRun holds what Explain says equal to what the stream
// did, read from the query's own trace, across strategy × tokenization ×
// substrate × fusion. An explainer model and a runner model start alike, so
// the plan and the run see the same plan-cache state: cold on the first
// pass, warm on the second. The runner has no logit cache, so every round
// reaches the device (and the arena, when the run is incremental).
//   - Every round scores at most Plan.BatchSize rows, and the wide frontier
//     of these patterns fills one: rounds are the traversal's "round" spans,
//     and for sampling, whose walks score one context per step, the device
//     dispatches under the trace root.
//   - A "kv.acquire" span appears iff Plan.Incremental.
//   - "plan.compile"'s cache_hit is Plan.PlanCacheHit.
//   - A canonical arm resolves to the dynamic filter (Plan.DynamicFilter) and
//     emits canonical encodings only; an all-encodings arm has no filter and,
//     across the table, emits encodings that are not canonical.
//   - Explain publishes no trace.
func TestExplainDescribesTheRun(t *testing.T) {
	ngram, ngramTok := testNGram()
	transformer, transformerTok := trainIncrTransformer(t)
	substrates := []struct {
		name string
		lm   model.LanguageModel
		tok  *tokenizer.BPE
	}{{"ngram", ngram, ngramTok}, {"transformer", transformer, transformerTok}}
	nonCanonical := 0
	for _, sub := range substrates {
		for _, fused := range []bool{false, true} {
			for _, strategy := range []SearchStrategy{ShortestPath, BeamSearch, RandomSampling} {
				for _, tz := range []TokenizationStrategy{CanonicalTokens, AllTokens} {
					arm := fmt.Sprintf("%s/fused=%v/%s/tokenization=%d", sub.name, fused, strategyName(strategy), tz)
					opts := ModelOptions{CacheSize: -1, ContinuousBatching: fused}
					explainer, runner := NewModel(sub.lm, sub.tok, opts), NewModel(sub.lm, sub.tok, opts)
					for pass, incremental := range []bool{false, true} {
						q := SearchQuery{
							Query:        QueryString{Pattern: "[a-z]{1,4}"}, // beyond enumeration: the dynamic filter
							Strategy:     strategy,
							Tokenization: tz,
							MaxTokens:    3,
							Incremental:  incremental,
						}
						p, err := Explain(explainer, q)
						if err != nil {
							t.Fatalf("%s: %v", arm, err)
						}
						results, err := Search(runner, q)
						if err != nil {
							t.Fatalf("%s: %v", arm, err)
						}
						matches := results.Take(150)
						if err := results.Err(); err != nil {
							t.Fatalf("%s: %v", arm, err)
						}
						d := results.Trace()
						where := fmt.Sprintf("%s pass %d", arm, pass)

						width := 0
						for _, s := range d.Spans {
							n := 0
							switch {
							case s.Name == "round":
								n, _ = strconv.Atoi(s.Attr("nodes"))
							case s.Parent == trace.RootID && s.Attr("rows") != "":
								n, _ = strconv.Atoi(s.Attr("rows"))
								if r := s.Attr("requested"); r != "" {
									n, _ = strconv.Atoi(r)
								}
							}
							width = max(width, n)
						}
						if width != p.BatchSize {
							t.Errorf("%s: widest round scored %d rows, plan says %d", where, width, p.BatchSize)
						}
						if acquired := len(d.Find("kv.acquire")) > 0; acquired != p.Incremental {
							t.Errorf("%s: kv.acquire spans %v, plan says incremental %v", where, acquired, p.Incremental)
						}
						if c := d.Find("plan.compile"); len(c) != 1 || c[0].Attr("cache_hit") != strconv.FormatBool(p.PlanCacheHit) {
							t.Errorf("%s: plan.compile %+v, plan says cache hit %v", where, c, p.PlanCacheHit)
						}
						if p.PlanCacheHit != (pass == 1) {
							t.Errorf("%s: plan cache hit %v", where, p.PlanCacheHit)
						}
						if p.DynamicFilter != (tz == CanonicalTokens) {
							t.Errorf("%s: dynamic filter %v", where, p.DynamicFilter)
						}
						for _, mt := range matches {
							if !mt.Canonical {
								if p.DynamicFilter {
									t.Errorf("%s: non-canonical match %q under the dynamic filter", where, mt.PatternTokens)
								}
								nonCanonical++
							}
						}
					}
					if n := len(explainer.Tracer().Recent(0)); n != 0 {
						t.Errorf("%s: Explain published %d traces", arm, n)
					}
					explainer.Close()
					runner.Close()
				}
			}
		}
	}
	if nonCanonical == 0 {
		t.Error("no all-encodings arm emitted a non-canonical encoding: the filter check is vacuous")
	}
}

// TestLongLiteralIsSearchable: a finite pattern is enumerated in full, so a
// literal longer than any fixed byte budget (95 bytes here) compiles to a
// plan that accepts it, and Search returns it.
func TestLongLiteralIsSearchable(t *testing.T) {
	m := testModel(t)
	lit := strings.Repeat("the cat sat on the mat ", 5)[:95]
	q := SearchQuery{Query: QueryString{Pattern: lit}}
	p, err := Explain(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.LanguageSize != 1 || p.DynamicFilter {
		t.Fatalf("plan of a 95-byte literal: language size %d, dynamic filter %v; want 1, enumerated", p.LanguageSize, p.DynamicFilter)
	}
	results, err := Search(m, q)
	if err != nil {
		t.Fatal(err)
	}
	got := results.Take(2)
	if len(got) != 1 || got[0].Text != lit {
		t.Fatalf("Search(%q) = %v, want the literal once (err %v)", lit, got, results.Err())
	}
}

// TestCyclicPlanKeepsLongMembers: an infinite pattern is never enumerated
// up to a byte budget, so its plan accepts the canonical encoding of members
// of every length, here one of 71 bytes.
func TestCyclicPlanKeepsLongMembers(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "(the )+cat"}}
	p, err := Explain(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if p.LanguageSize != -1 || !p.DynamicFilter {
		t.Fatalf("plan of (the )+cat: language size %d, dynamic filter %v; want -1, dynamic", p.LanguageSize, p.DynamicFilter)
	}
	c, err := compilePattern(m, q, enumerateLimit)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 16, 17, 40} {
		s := strings.Repeat("the ", n) + "cat"
		toks := m.Tok.Encode(s)
		if !c.token.MatchSymbols(toks) {
			t.Fatalf("%d-byte member %q: token automaton rejects its canonical encoding", len(s), s)
		}
		for i := 1; i <= len(toks); i++ {
			if !c.filter.AllowPartial(toks[:i]) {
				t.Fatalf("%d-byte member: the runtime filter prunes its canonical encoding at token %d", len(s), i)
			}
		}
		if !c.filter.AllowFinal(toks) {
			t.Fatalf("%d-byte member: the runtime filter rejects its canonical encoding", len(s))
		}
	}
}
