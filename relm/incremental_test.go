package relm

import (
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
)

// trainIncrTransformer builds a tiny transformer — the prefix-stateful
// substrate the KV arena exists for.
func trainIncrTransformer(tb testing.TB) (*model.Transformer, *tokenizer.BPE) {
	tb.Helper()
	lines := []string{
		"The man was trained in engineering",
		"The woman was trained in medicine",
		"The man was trained in art",
		"The cat sat on the mat",
		"The dog sat on the mat",
	}
	tok := tokenizer.Train(lines, 150)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 48, Epochs: 2, Seed: 9,
	})
	return lm, tok
}

// TestSearchIncrementalEquivalence runs the public API with the Incremental
// knob off and on: identical matches, and the model's KV arena must show the
// reuse (commits and hits) only for the incremental run. Each arm runs on a
// model of its own, so the incremental one starts from a cold logit cache and
// computes every row it returns.
func TestSearchIncrementalEquivalence(t *testing.T) {
	lm, tok := trainIncrTransformer(t)

	run := func(m *Model, incremental bool) []*Match {
		results, err := Search(m, SearchQuery{
			Query:       QueryString{Pattern: " ((engineering)|(medicine)|(art))", Prefix: "The man was trained in"},
			Incremental: incremental,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer results.Close()
		return results.Take(3)
	}

	ref := NewModel(lm, tok, ModelOptions{})
	full := run(ref, false)
	if s := ref.KVStats(); s.Commits != 0 {
		t.Fatalf("full path touched the KV arena: %+v", s)
	}
	m := NewModel(lm, tok, ModelOptions{})
	incr := run(m, true)
	if len(full) != len(incr) {
		t.Fatalf("%d vs %d matches", len(full), len(incr))
	}
	for i := range full {
		if full[i].Text != incr[i].Text || full[i].LogProb != incr[i].LogProb {
			t.Fatalf("match %d differs: %q %v vs %q %v",
				i, full[i].Text, full[i].LogProb, incr[i].Text, incr[i].LogProb)
		}
	}
	s := m.KVStats()
	if s.Commits == 0 || s.Hits == 0 {
		t.Fatalf("incremental run left no arena activity: %+v", s)
	}
	if s.ResidentBytes > s.Budget {
		t.Fatalf("arena over budget: %+v", s)
	}
}

// TestIncrementalWindowModelBypassesArena: window substrates have no prefix
// state worth caching; the knob must be a transparent no-op for them (full
// path, empty arena, same answers).
func TestIncrementalWindowModelBypassesArena(t *testing.T) {
	lines := []string{"The cat sat on the mat", "The dog sat on the mat"}
	tok := tokenizer.Train(lines, 120)
	lm := model.TrainNGram(lines, tok, model.NGramConfig{Order: 4, MaxSeqLen: 48})
	m := NewModel(lm, tok, ModelOptions{})
	results, err := Search(m, SearchQuery{
		Query:       QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	if got := results.Take(2); len(got) != 2 {
		t.Fatalf("got %d matches", len(got))
	}
	if s := m.KVStats(); s.Commits != 0 || s.Hits != 0 {
		t.Fatalf("window model polluted the arena: %+v", s)
	}
}

// TestSessionsShareKVArena: sessions derived from one model share its logit
// cache and its arena. The second session's repeat of the first one's query
// makes no device dispatch and commits nothing; a third session's query that
// shares the prefix and then diverges extends states the first committed.
func TestSessionsShareKVArena(t *testing.T) {
	lm, tok := trainIncrTransformer(t)
	m := NewModel(lm, tok, ModelOptions{})

	search := func(pattern string) {
		t.Helper()
		r, err := Search(m.NewSession().Model, SearchQuery{
			Query:       QueryString{Pattern: pattern, Prefix: "The"},
			Incremental: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.Take(2)
		r.Close()
	}
	search(" ((cat)|(dog))")
	after1, dev1 := m.KVStats(), m.Dev.Stats()
	if after1.Commits == 0 {
		t.Fatalf("first session committed nothing: %+v", after1)
	}

	search(" ((cat)|(dog))")
	after2, dev2 := m.KVStats(), m.Dev.Stats()
	if dev2.Batches != dev1.Batches || after2.Commits != after1.Commits {
		t.Fatalf("second session's repeat dispatched %d batches and committed %d states, want none",
			dev2.Batches-dev1.Batches, after2.Commits-after1.Commits)
	}

	search(" ((man)|(woman))")
	if after3 := m.KVStats(); after3.Hits <= after2.Hits {
		t.Fatalf("a diverging query in a third session gained no arena hits: %+v -> %+v", after2, after3)
	}
}

// TestKVDisabled: a negative budget disables the arena; incremental queries
// silently run the full path and still answer correctly.
func TestKVDisabled(t *testing.T) {
	lm, tok := trainIncrTransformer(t)
	m := NewModel(lm, tok, ModelOptions{KVBudgetBytes: -1})
	results, err := Search(m, SearchQuery{
		Query:       QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	if got := results.Take(1); len(got) != 1 {
		t.Fatalf("got %v", got)
	}
	if s := m.KVStats(); s != (KVStats{}) {
		t.Fatalf("disabled arena reported stats: %+v", s)
	}
}
