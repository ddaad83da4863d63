package relm

import (
	"errors"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

// familyCorpus is a tiny world shared by the cross-architecture tests.
func familyCorpus() []string {
	return []string{
		"the cat sat on the mat",
		"the cat sat on the mat",
		"the dog ran in the park",
		"the bird flew over the park",
	}
}

// searchTopChoice runs a two-way multiple choice and returns the winner.
func searchTopChoice(t *testing.T, m *Model) string {
	t.Helper()
	// The pattern starts at a word boundary ("the" + " cat") so the
	// canonical encodings match the training text's token boundaries.
	results, err := Search(m, SearchQuery{
		Query: QueryString{Pattern: "( cat)|( fox)", Prefix: "the"},
	})
	if err != nil {
		t.Fatal(err)
	}
	match, err := results.Next()
	if err != nil {
		t.Fatal(err)
	}
	return match.PatternText
}

// TestSearchAcrossModelFamilies runs the same query on all three model
// architectures: the engine must be model-agnostic (the paper's future-work
// direction of extending to other model families).
func TestSearchAcrossModelFamilies(t *testing.T) {
	lines := familyCorpus()
	tok := tokenizer.Train(lines, 60)

	families := map[string]model.LanguageModel{
		"ngram": model.TrainNGram(lines, tok, model.NGramConfig{Order: 4, MaxSeqLen: 32}),
		"lbl":   model.TrainLogBilinear(lines, tok, model.LBLConfig{Epochs: 10, Seed: 1}),
		"transformer": model.TrainTransformer(lines, tok, model.TransformerConfig{
			DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 24, Epochs: 30, LR: 5e-3, Seed: 1,
		}),
	}
	for name, lm := range families {
		m := NewModel(lm, tok, ModelOptions{})
		got := searchTopChoice(t, m)
		// "cat" is in-distribution; "fox" never occurs. Every trained family
		// must prefer the trained word.
		if got != " cat" {
			t.Errorf("%s: top choice %q, want ' cat'", name, got)
		}
	}
}

// TestRandomSamplingAcrossFamilies checks the sampler path is also
// architecture-agnostic and respects the pattern language.
func TestRandomSamplingAcrossFamilies(t *testing.T) {
	lines := familyCorpus()
	tok := tokenizer.Train(lines, 60)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 24, Epochs: 10, LR: 5e-3, Seed: 2,
	})
	m := NewModel(lm, tok, ModelOptions{})
	results, err := Search(m, SearchQuery{
		Query:    QueryString{Pattern: "(cat)|(dog)|(bird)", Prefix: "the "},
		Strategy: RandomSampling,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, match := range results.Take(10) {
		switch match.PatternText {
		case "cat", "dog", "bird":
		default:
			t.Fatalf("sampled string %q outside the pattern language", match.PatternText)
		}
	}
}

// TestMaxNodesBudgetTerminates injects a tiny node budget: the stream must
// end (not hang) even though the language is far from exhausted.
func TestMaxNodesBudgetTerminates(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:    QueryString{Pattern: "[a-z]{1,6}", Prefix: "The "},
		MaxNodes: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := results.Next()
		if err != nil {
			if !errors.Is(err, ErrExhausted) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		n++
		if n > 1000 {
			t.Fatal("node budget did not bound the stream")
		}
	}
}

// TestCacheDisabled exercises the negative-CacheSize path end to end.
func TestCacheDisabled(t *testing.T) {
	lines := familyCorpus()
	tok := tokenizer.Train(lines, 60)
	lm := model.TrainNGram(lines, tok, model.NGramConfig{Order: 4, MaxSeqLen: 32})
	m := NewModel(lm, tok, ModelOptions{CacheSize: -1})
	if got := searchTopChoice(t, m); got != " cat" {
		t.Errorf("uncached search top choice %q", got)
	}
}

// TestSearchRejectsUnknownEnums covers the default branches of the strategy
// switches.
func TestSearchRejectsUnknownEnums(t *testing.T) {
	m := testModel(t)
	if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: "a"}, Strategy: SearchStrategy(99)}); err == nil {
		t.Error("unknown search strategy accepted")
	}
	if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: "a"}, Tokenization: TokenizationStrategy(99)}); err == nil {
		t.Error("unknown tokenization strategy accepted")
	}
	if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: "a"}, Preprocessors: []Preprocessor{EditDistance{K: -1}}}); err == nil {
		t.Error("negative edit distance accepted")
	}
}

// TestEmptyPatternAfterFilter injects a preprocessor that empties the
// language; the search must surface it as exhaustion, not a crash.
func TestEmptyPatternAfterFilter(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:         QueryString{Pattern: "(cat)|(dog)"},
		Preprocessors: []Preprocessor{RemoveWords{Words: []string{"cat", "dog"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := results.Next(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("want ErrExhausted on an emptied language, got %v", err)
	}
}

// TestShortestPathEmissionOrder verifies the Dijkstra invariant at the API
// level: matches stream in nonincreasing log-probability order.
func TestShortestPathEmissionOrder(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query: QueryString{Pattern: " [a-z]{1,4}", Prefix: "The"},
	})
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	first := true
	for _, match := range results.Take(50) {
		if !first && match.LogProb > prev+1e-9 {
			t.Fatalf("emission order violated: %g after %g (%q)", match.LogProb, prev, match.Text)
		}
		prev = match.LogProb
		first = false
	}
}

// TestRandomSamplingSeedReproducible: the same seed must replay the same
// sample stream; different seeds should diverge.
func TestRandomSamplingSeedReproducible(t *testing.T) {
	m := testModel(t)
	draw := func(seed int64) []string {
		results, err := Search(m, SearchQuery{
			Query:    QueryString{Pattern: "((man)|(woman)) was trained in ((art)|(science)|(medicine))", Prefix: "The "},
			Strategy: RandomSampling,
			Seed:     seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, match := range results.Take(8) {
			out = append(out, match.Text)
		}
		return out
	}
	a1, a2, b := draw(11), draw(11), draw(12)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a1[i], a2[i])
		}
	}
	same := true
	for i := range a1 {
		if i >= len(b) || a1[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams (suspicious)")
	}
}
