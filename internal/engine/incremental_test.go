package engine

import (
	"math"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/tokenizer"
)

// transformerEnv builds a trained transformer behind the usual cache+device
// stack, so incremental equivalence is exercised on the substrate with real
// KV states.
type transformerEnv struct {
	tok *tokenizer.BPE
	lm  *model.Transformer
	dev *device.Device
}

func newTransformerEnv(tb testing.TB) *transformerEnv {
	tb.Helper()
	corpus := biasCorpus()
	tok := tokenizer.Train(corpus, 150)
	lm := model.TrainTransformer(corpus, tok, model.TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 2, DFF: 32, MaxSeqLen: 48, Epochs: 2, Seed: 11,
	})
	env := &transformerEnv{tok: tok, lm: lm}
	env.dev = env.coldDev()
	return env
}

// coldDev is a device over the env's model behind a logit cache of its own,
// still empty. A warm cache answers incremental contexts before the KV arena
// is asked (DESIGN.md decision 10), so an arm that must exercise the arena
// scores on a cold one.
func (e *transformerEnv) coldDev() *device.Device {
	return countingDevice(e.lm, 32)
}

// incrementalQuery mirrors a query with prefix-state reuse enabled.
func incrementalQuery(q *Query, kv *kvcache.Arena) *Query {
	cp := *q
	cp.Incremental = true
	cp.KV = kv
	return &cp
}

// TestEnginesIncrementalEquivalence runs every traversal with incremental
// decoding off and on (fresh arena per stream) and demands byte-identical
// result streams — the acceptance bar for prefix-state reuse. The n-gram
// substrate also exercises the PrefixStateful gate: a window model must
// treat the knob as a transparent no-op.
func TestEnginesIncrementalEquivalence(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	patterns := []string{
		" ((engineering)|(medicine)|(art))",
		" (engineering|medicine){1,2}",
		" [a-e]{1,3}",
	}
	prefix := env.tok.Encode("The man was trained in")
	for _, pat := range patterns {
		char := regex.MustCompile(pat)
		tokenDFA, err := compiler.CompileCanonical(char, env.tok, 24, 2000)
		if err != nil {
			t.Fatalf("%q: %v", pat, err)
		}
		query := func() *Query {
			return &Query{
				Pattern:   tokenDFA,
				Prefixes:  [][]model.Token{prefix},
				MaxTokens: 8,
			}
		}

		sameResults(t, pat+"/dijkstra",
			drain(t, ShortestPath(env.dev, query()), 12),
			drain(t, ShortestPath(env.dev, incrementalQuery(query(), kvcache.NewTiered(kvcache.Config{}))), 12))

		sameResults(t, pat+"/beam",
			drain(t, Beam(env.dev, query(), BeamOptions{Width: 6}), 12),
			drain(t, Beam(env.dev, incrementalQuery(query(), kvcache.NewTiered(kvcache.Config{})), BeamOptions{Width: 6}), 12))

		sameResults(t, pat+"/sampler",
			drain(t, Sample(env.dev, query(), SamplerOptions{Seed: 7}), 6),
			drain(t, Sample(env.dev, incrementalQuery(query(), kvcache.NewTiered(kvcache.Config{})), SamplerOptions{Seed: 7}), 6))
	}
}

// TestTransformerIncrementalEquivalence repeats the check on the transformer
// substrate — where incremental decoding takes the real KV-extension path —
// including under decision rules and RequireEOS, and verifies the arena
// actually served extensions (the fast path ran, it didn't just fall back).
// Each incremental arm scores on a cold logit cache, so no row it returns
// was computed by the full arm.
func TestTransformerIncrementalEquivalence(t *testing.T) {
	env := newTransformerEnv(t)
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	tokenDFA, err := compiler.CompileCanonical(char, env.tok, 24, 2000)
	if err != nil {
		t.Fatal(err)
	}
	prefix := env.tok.Encode("The woman was trained in")
	query := func() *Query {
		return &Query{
			Pattern:    tokenDFA,
			Prefixes:   [][]model.Token{prefix},
			RequireEOS: true,
			MaxTokens:  8,
		}
	}
	kv := kvcache.NewTiered(kvcache.Config{})
	sameResults(t, "transformer/dijkstra",
		drain(t, ShortestPath(env.dev, query()), 12),
		drain(t, ShortestPath(env.coldDev(), incrementalQuery(query(), kv)), 12))
	if s := kv.Stats(); s.Hits == 0 || s.Commits == 0 {
		t.Fatalf("arena never served the traversal: %+v", s)
	}

	kv2 := kvcache.NewTiered(kvcache.Config{})
	sameResults(t, "transformer/sampler",
		drain(t, Sample(env.dev, query(), SamplerOptions{Seed: 3}), 5),
		drain(t, Sample(env.coldDev(), incrementalQuery(query(), kv2), SamplerOptions{Seed: 3}), 5))
	if s := kv2.Stats(); s.Commits == 0 {
		t.Fatalf("arena never served the sampler: %+v", s)
	}
}

// TestIncrementalEvictionRecompute runs the traversal on an arena so small
// that states are constantly evicted: results must stay byte-identical (the
// prefill fallback recomputes what eviction dropped) and the resident size
// must respect the budget. The incremental arm scores on a cold logit cache.
func TestIncrementalEvictionRecompute(t *testing.T) {
	env := newTransformerEnv(t)
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	tokenDFA, err := compiler.CompileCanonical(char, env.tok, 24, 2000)
	if err != nil {
		t.Fatal(err)
	}
	prefix := env.tok.Encode("The man was trained in")
	query := func() *Query {
		return &Query{Pattern: tokenDFA, Prefixes: [][]model.Token{prefix}, MaxTokens: 8}
	}
	const budget = 2 << 10 // smaller than a single prefix state: constant churn
	kv := kvcache.NewTiered(kvcache.Config{BudgetBytes: budget})
	sameResults(t, "eviction/dijkstra",
		drain(t, ShortestPath(env.dev, query()), 12),
		drain(t, ShortestPath(env.coldDev(), incrementalQuery(query(), kv)), 12))
	s := kv.Stats()
	if s.ResidentBytes > budget {
		t.Fatalf("arena resident %d over budget %d", s.ResidentBytes, budget)
	}
	if s.Evictions == 0 {
		t.Fatalf("budget %d produced no evictions: %+v", budget, s)
	}
}

// TestIncrementalSharedArenaRace runs concurrent queries over one shared
// arena (and one shared device/cache), checking byte-identical streams per
// query under -race.
func TestIncrementalSharedArenaRace(t *testing.T) {
	env := newTransformerEnv(t)
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	tokenDFA, err := compiler.CompileCanonical(char, env.tok, 24, 2000)
	if err != nil {
		t.Fatal(err)
	}
	kv := kvcache.NewTiered(kvcache.Config{BudgetBytes: 32 << 10}) // small enough to force eviction races
	prefixes := []string{
		"The man was trained in",
		"The woman was trained in",
	}
	want := make([][]string, len(prefixes))
	for i, p := range prefixes {
		q := &Query{Pattern: tokenDFA, Prefixes: [][]model.Token{env.tok.Encode(p)}, MaxTokens: 8}
		want[i] = drain(t, ShortestPath(env.dev, q), 10)
	}
	cold := env.coldDev() // the workers' rows come from the arena, not from want's
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(prefixes)
			q := &Query{
				Pattern:     tokenDFA,
				Prefixes:    [][]model.Token{env.tok.Encode(prefixes[i])},
				MaxTokens:   8,
				Incremental: true,
				KV:          kv,
			}
			got := drain(t, ShortestPath(cold, q), 10)
			if len(got) != len(want[i]) {
				t.Errorf("worker %d: %d results, want %d", g, len(got), len(want[i]))
				return
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Errorf("worker %d: result %d differs", g, j)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestScoreSequencesAllPositionsEquivalence checks the decision-10 rewrite
// of scoreSequences (one causal forward per sequence) against the retained
// row-expanded oracle, bit for bit, on both substrates — including an
// over-window sequence that must take the fallback.
func TestScoreSequencesAllPositionsEquivalence(t *testing.T) {
	ngEnv := newNgramEnv(t, biasCorpus())
	trEnv := newTransformerEnv(t)
	for name, dev := range map[string]*device.Device{"ngram": ngEnv.dev, "transformer": trEnv.dev} {
		tok := ngEnv.tok
		if name == "transformer" {
			tok = trEnv.tok
		}
		long := make([]model.Token, dev.Model().MaxSeqLen()+5)
		for i := range long {
			t2 := tok.Encode("the")
			long[i] = t2[i%len(t2)]
		}
		seqs := [][]model.Token{
			tok.Encode("The man was trained in engineering"),
			tok.Encode("The woman was trained in medicine"),
			{},
			tok.Encode("art"),
			long,
		}
		got, gotCalls := must2(scoreSequences(dev, seqs))
		want, wantCalls := scoreSequencesExpanded(dev, seqs)
		if gotCalls != wantCalls {
			t.Fatalf("%s: context count %d vs %d", name, gotCalls, wantCalls)
		}
		for i := range seqs {
			if got[i] != want[i] {
				t.Fatalf("%s: seq %d total %v vs %v", name, i, got[i], want[i])
			}
		}
	}
}

// scoreSequencesExpanded is the pre-decision-10 path — every (sequence,
// position) context as its own device row — the oracle for the all-positions
// equivalence tests.
func scoreSequencesExpanded(dev *device.Device, seqs [][]model.Token) ([]float64, int64) {
	m := dev.Model()
	var ctxs [][]model.Token
	offsets := make([]int, len(seqs))
	for i, seq := range seqs {
		offsets[i] = len(ctxs)
		for p := range seq {
			ctxs = append(ctxs, model.ClampWindow(m, seq[:p]))
		}
	}
	totals := make([]float64, len(seqs))
	if len(ctxs) == 0 {
		return totals, 0
	}
	lps := must(dev.Forward(ctxs))
	for i, seq := range seqs {
		total := 0.0
		for p := range seq {
			total += lps[offsets[i]+p][seq[p]]
			if math.IsInf(total, -1) {
				total = model.NegInf
				break
			}
		}
		totals[i] = total
	}
	return totals, int64(len(ctxs))
}
