package relm

import (
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

// testModel builds a small model over the bias corpus plus a few fixed
// sentences for the quickstart-style queries.
func testModel(tb testing.TB) *Model {
	tb.Helper()
	lm, tok := testNGram()
	return NewModel(lm, tok, ModelOptions{})
}

// testNGram trains testModel's substrate: the window model class, whose
// every scored row goes through the logit cache.
func testNGram() (*model.NGram, *tokenizer.BPE) {
	gen := corpus.NewGenerator(42)
	lines := gen.BuildBiasCorpus(corpus.BiasCorpusConfig{SentencesPerPair: 2})
	lines = append(lines,
		"My phone number is 555 555 5555",
		"My phone number is 555 555 5555",
		"My phone number is 412 268 7100",
		"The cat sat on the mat",
		"The dog sat on the mat",
	)
	tok := tokenizer.Train(lines, 300)
	return model.TrainNGram(lines, tok, model.NGramConfig{Order: 6, MaxSeqLen: 64}), tok
}

func TestSearchPhoneNumberQuickstart(t *testing.T) {
	// The paper's Figure 4 example.
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{
			Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
			Prefix:  "My phone number is",
		},
		TopK: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	match, err := results.Next()
	if err != nil {
		t.Fatal(err)
	}
	if match.Text != "My phone number is 555 555 5555" {
		t.Errorf("top match = %q, want the 2x-trained number", match.Text)
	}
	if match.PrefixText != "My phone number is" {
		t.Errorf("prefix text = %q", match.PrefixText)
	}
	if !match.Canonical {
		t.Error("canonical search should yield canonical matches")
	}
}

func TestSearchMultipleChoice(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{
			Pattern: " ((cat)|(dog)|(unseenword))",
			Prefix:  "The",
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(3)
	if len(matches) != 3 {
		t.Fatalf("got %d matches", len(matches))
	}
	// Trained words must outrank the unseen one.
	if strings.Contains(matches[0].Text, "unseenword") {
		t.Error("unseen option ranked first")
	}
	if matches[2].PatternText != " unseenword" {
		t.Errorf("unseen option should rank last, got %q", matches[2].PatternText)
	}
}

func TestSearchExhaustion(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{Pattern: "((cat)|(dog))"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(results.Take(10)); got != 2 {
		t.Fatalf("finite query yielded %d matches", got)
	}
	if _, err := results.Next(); err != ErrExhausted {
		t.Errorf("want ErrExhausted, got %v", err)
	}
}

func TestAllTokensYieldsNonCanonical(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:        QueryString{Pattern: "cat"},
		Tokenization: AllTokens,
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(50)
	if len(matches) < 2 {
		t.Fatalf("all-tokens query found %d encodings of 'cat'", len(matches))
	}
	nonCanon := 0
	for _, mt := range matches {
		if mt.PatternText != "cat" {
			t.Errorf("decoded %q, want cat", mt.PatternText)
		}
		if !mt.Canonical {
			nonCanon++
		}
	}
	if nonCanon == 0 {
		t.Error("expected non-canonical encodings in AllTokens mode")
	}
}

func TestRandomSamplingRespectsLanguage(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{
			Pattern: " was trained in ((art)|(science)|(math))",
			Prefix:  "The ((man)|(woman))",
		},
		Strategy: RandomSampling,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		mt, err := results.Next()
		if err != nil {
			t.Fatal(err)
		}
		okPrefix := mt.PrefixText == "The man" || mt.PrefixText == "The woman"
		if !okPrefix {
			t.Errorf("sampled prefix %q outside prefix language", mt.PrefixText)
		}
		if !strings.HasPrefix(mt.PatternText, " was trained in ") {
			t.Errorf("sampled pattern %q outside language", mt.PatternText)
		}
	}
}

func TestPreprocessorEditDistance(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:         QueryString{Pattern: "cat"},
		Preprocessors: []Preprocessor{EditDistance{K: 1, Alphabet: []byte("abcdt ")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, mt := range results.Take(1000) {
		seen[mt.PatternText] = true
	}
	if !seen["cat"] {
		t.Error("distance-0 string missing")
	}
	// At least one single-edit variant should appear.
	if !seen["bat"] && !seen["ct"] && !seen["caat"] && !seen["at"] && !seen["ca"] {
		t.Errorf("no edit variants found: %v", seen)
	}
}

func TestPreprocessorRemoveWords(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:         QueryString{Pattern: "((cat)|(dog)|(mat))"},
		Preprocessors: []Preprocessor{RemoveWords{Words: []string{"dog"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(10)
	if len(matches) != 2 {
		t.Fatalf("got %d matches after removal, want 2", len(matches))
	}
	for _, mt := range matches {
		if mt.PatternText == "dog" {
			t.Error("removed word still present")
		}
	}
}

func TestPrependLiteral(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:         QueryString{Pattern: "((cat)|(dog))"},
		Preprocessors: []Preprocessor{PrependLiteral{Lit: "The "}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mt := range results.Take(2) {
		if !strings.HasPrefix(mt.PatternText, "The ") {
			t.Errorf("match %q lacks prepended literal", mt.PatternText)
		}
	}
}

func TestDeferredFilters(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{Pattern: "((cat)|(dog))"},
		DeferredFilters: []func(string) bool{
			func(text string) bool { return text != "dog" },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(10)
	if len(matches) != 1 || matches[0].PatternText != "cat" {
		t.Errorf("deferred filter failed: %v", matches)
	}
}

func TestSearchErrors(t *testing.T) {
	m := testModel(t)
	if _, err := Search(nil, SearchQuery{Query: QueryString{Pattern: "a"}}); err == nil {
		t.Error("nil model should error")
	}
	if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: "(("}}); err == nil {
		t.Error("bad pattern should error")
	}
	if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: "a", Prefix: "(("}}); err == nil {
		t.Error("bad prefix should error")
	}
	// Infinite prefix language must be rejected for shortest path.
	if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: "a", Prefix: "x+"}, PrefixMaxLen: 8, PrefixLimit: 4}); err == nil {
		t.Error("oversized prefix language should error")
	}
}

func TestCanonicalFallbackToDynamicFilter(t *testing.T) {
	// A pattern too large to enumerate must still work via the dynamic
	// canonical filter, which the default rule picks on its own.
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "[a-z]{1,6}"}, MaxTokens: 8, MaxNodes: 3000}
	if p, err := Explain(m, q); err != nil {
		t.Fatal(err)
	} else if !p.DynamicFilter {
		t.Fatalf("a %d-string language must take the dynamic filter", p.LanguageSize)
	}
	results, err := Search(m, q)
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(5)
	if len(matches) == 0 {
		t.Fatal("dynamic-filter fallback yielded nothing")
	}
	for _, mt := range matches {
		if !mt.Canonical {
			t.Errorf("non-canonical match %q in canonical mode", mt.PatternText)
		}
	}
}

func TestInfiniteLanguageTakesDynamicFilter(t *testing.T) {
	// An infinite language cannot be enumerated, so the default rule runs
	// the dynamic filter; every match must still be canonical.
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "[a-z]+"}, MaxTokens: 8, MaxNodes: 3000}
	if p, err := Explain(m, q); err != nil {
		t.Fatal(err)
	} else if !p.DynamicFilter {
		t.Fatal("an infinite language must take the dynamic filter")
	}
	results, err := Search(m, q)
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(5)
	if len(matches) == 0 {
		t.Fatal("infinite canonical query yielded nothing")
	}
	for _, mt := range matches {
		if !mt.Canonical {
			t.Errorf("non-canonical match %q on an infinite language", mt.PatternText)
		}
	}
}

func TestDisjunctionOfAndEscape(t *testing.T) {
	if got := DisjunctionOf("a.b", "c"); got != "(a\\.b)|(c)" {
		t.Errorf("DisjunctionOf = %q", got)
	}
	if got := EscapeLiteral("a.b?"); got != "a\\.b\\?" {
		t.Errorf("EscapeLiteral = %q", got)
	}
}

func TestTemperatureAndTopPCompile(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:       QueryString{Pattern: "((cat)|(dog))"},
		Temperature: 2.0,
		TopP:        0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results.Take(2)) == 0 {
		t.Error("temperature+top-p query yielded nothing")
	}
}

func TestStatsExposed(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{Query: QueryString{Pattern: "cat"}})
	if err != nil {
		t.Fatal(err)
	}
	results.Take(1)
	if results.Stats().ModelCalls == 0 {
		t.Error("stats should count model calls")
	}
}

func TestRequireEOS(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:      QueryString{Pattern: " sat on the mat", Prefix: "The cat"},
		RequireEOS: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mt, err := results.Next()
	if err != nil {
		t.Fatal(err)
	}
	if mt.Text != "The cat sat on the mat" {
		t.Errorf("match = %q", mt.Text)
	}
}

func TestBeamSearchStrategy(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{
			Pattern: " ((cat)|(dog)|(unseenword))",
			Prefix:  "The",
		},
		Strategy:  BeamSearch,
		BeamWidth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(3)
	if len(matches) != 3 {
		t.Fatalf("beam found %d matches", len(matches))
	}
	if strings.Contains(matches[0].Text, "unseenword") {
		t.Error("beam ranked the unseen option first")
	}
	for i := 1; i < len(matches); i++ {
		if matches[i].LogProb > matches[i-1].LogProb+1e-9 {
			t.Error("beam results out of order")
		}
	}
}

func TestDedupByText(t *testing.T) {
	m := testModel(t)
	// AllTokens yields multiple encodings of "cat"; dedup collapses them.
	results, err := Search(m, SearchQuery{
		Query:        QueryString{Pattern: "cat"},
		Tokenization: AllTokens,
		DedupByText:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(50)
	if len(matches) != 1 {
		t.Fatalf("dedup left %d matches, want 1", len(matches))
	}
	if !matches[0].Canonical {
		t.Error("the surviving encoding should be the most likely (canonical)")
	}
}

// TestCanonicalStrategiesAgree: enumeration and the dynamic filter stream
// the same matches through Search. The language has two strings, so a query
// enumerates it; the filtered arm first puts a plan compiled with an
// enumeration limit of 1 into its model's plan cache under the query's key.
func TestCanonicalStrategiesAgree(t *testing.T) {
	q := SearchQuery{Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"}}
	run := func(limit int) []*Match {
		m := testModel(t)
		key, _ := planKey(m, &q)
		c, _, err := m.plans.get(key, func() (*compiled, error) { return compilePattern(m, q, limit) })
		if err != nil {
			t.Fatal(err)
		}
		if filtered := c.filter != nil; filtered != (limit < 2) {
			t.Fatalf("limit %d: dynamic filter %v", limit, filtered)
		}
		results, err := Search(m, q)
		if err != nil {
			t.Fatal(err)
		}
		if s := m.PlanCacheStats(); s.Hits != 1 {
			t.Fatalf("limit %d: Search compiled its own plan: %+v", limit, s)
		}
		return results.Take(5)
	}
	enum, dyn := run(enumerateLimit), run(1)
	if len(enum) != 2 || len(dyn) != 2 {
		t.Fatalf("strategy result counts differ: %d/%d", len(enum), len(dyn))
	}
	for i := range enum {
		if enum[i].PatternText != dyn[i].PatternText || enum[i].LogProb != dyn[i].LogProb || !dyn[i].Canonical {
			t.Errorf("strategies disagree at %d: enum=%+v dyn=%+v", i, enum[i], dyn[i])
		}
	}
}
