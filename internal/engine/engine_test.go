package engine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/tokenizer"
)

// must and must2 unwrap a call made with no fault armed; an error there is a
// bug, raised in whichever goroutine made the call.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func must2[A, B any](a A, b B, err error) (A, B) {
	if err != nil {
		panic(err)
	}
	return a, b
}

// charTok treats each printable byte as its own token (vocab 256 + EOS at
// 256), so character automata are directly LLM automata. Simplifies scripted
// model tests.
type charTok struct{}

func (charTok) Encode(s string) []tokenizer.Token {
	out := make([]tokenizer.Token, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int(s[i])
	}
	return out
}
func (charTok) Decode(toks []tokenizer.Token) string {
	b := make([]byte, 0, len(toks))
	for _, t := range toks {
		if t < 256 {
			b = append(b, byte(t))
		}
	}
	return string(b)
}
func (charTok) TokenBytes(t tokenizer.Token) string {
	if t >= 256 {
		return ""
	}
	return string([]byte{byte(t)})
}
func (charTok) VocabSize() int       { return 257 }
func (charTok) EOS() tokenizer.Token { return 256 }

// ngramEnv is a realistic environment: BPE + n-gram LM on a small corpus.
type ngramEnv struct {
	tok *tokenizer.BPE
	lm  *model.NGram
	dev *device.Device
}

func newNgramEnv(tb testing.TB, corpus []string) *ngramEnv {
	tb.Helper()
	tok := tokenizer.Train(corpus, 150)
	// Order 6 keeps the subject ("man"/"woman") inside the history window
	// for the template sentences used here.
	lm := model.TrainNGram(corpus, tok, model.NGramConfig{Order: 6, MaxSeqLen: 48})
	dev := countingDevice(lm, 32)
	return &ngramEnv{tok: tok, lm: lm, dev: dev}
}

func biasCorpus() []string {
	out := []string{}
	for i := 0; i < 6; i++ {
		out = append(out,
			"The man was trained in engineering",
			"The woman was trained in medicine",
		)
	}
	out = append(out,
		"The man was trained in medicine",
		"The woman was trained in engineering",
		"The man was trained in art",
		"The woman was trained in art",
	)
	return out
}

func collect(t *testing.T, s Stream, n int) []*Result {
	t.Helper()
	var out []*Result
	for i := 0; i < n; i++ {
		r, err := s.Next()
		if err != nil {
			break
		}
		out = append(out, r)
	}
	return out
}

// resultKey renders a Result for exact comparison: token sequences and
// probabilities must match bit for bit.
func resultKey(r *Result) string {
	return fmt.Sprintf("%v|%v|%v|%v", r.Prefix, r.Pattern, r.LogProb, r.PrefixLogProb)
}

func drain(t *testing.T, s Stream, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		r, err := s.Next()
		if err != nil {
			break
		}
		out = append(out, resultKey(r))
	}
	s.Close()
	return out
}

// sameResults demands two result streams be identical, row by row.
func sameResults(t *testing.T, name string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs:\n  %s\n  %s", name, i, a[i], b[i])
		}
	}
}

func TestShortestPathFindsTrainedCompletion(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	prefix := env.tok.Encode("The man was trained in")
	s := ShortestPath(env.dev, &Query{
		Pattern:  pat.Freeze(),
		Prefixes: [][]model.Token{prefix},
	})
	results := collect(t, s, 3)
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if got := env.tok.Decode(results[0].Pattern); got != " engineering" {
		t.Errorf("top completion for man = %q, want engineering (6x trained)", got)
	}
	// Results must be ordered by decreasing probability.
	for i := 1; i < len(results); i++ {
		if results[i].LogProb > results[i-1].LogProb+1e-9 {
			t.Errorf("results out of order: %f then %f", results[i-1].LogProb, results[i].LogProb)
		}
	}
}

func TestShortestPathExhausts(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("((art)|(medicine))")
	pat, err := compiler.CompileCanonical(char, env.tok, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := ShortestPath(env.dev, &Query{Pattern: pat.Freeze()})
	results := collect(t, s, 10)
	if len(results) != 2 {
		t.Fatalf("finite language yielded %d results, want 2", len(results))
	}
	if _, err := s.Next(); err != ErrExhausted {
		t.Errorf("expected ErrExhausted, got %v", err)
	}
}

func TestShortestPathOrderingWithScriptedModel(t *testing.T) {
	// Vocab {0,1,2,EOS=3}. Language: all 2-symbol strings over {0,1,2}.
	// Scripted distribution: p(0)=0.5, p(1)=0.3, p(2)=0.2 at every step.
	// Best-first order of pairs must be 00, 01, 02, 10, 11, ...
	vocab := 4
	dist := make([]float64, vocab)
	dist[0], dist[1], dist[2] = math.Log(0.5), math.Log(0.3), math.Log(0.2)
	dist[3] = model.NegInf
	m := &model.Table{Vocab: vocab, EOSTok: 3, SeqLen: 8, Dist: map[string][]float64{}}
	// All contexts get the same scripted distribution.
	m.KeyFunc = func([]model.Token) string { return "*" }
	m.Dist["*"] = dist

	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(false)
	s2 := n.AddState(true)
	n.SetStart(s0)
	for _, sym := range []int{0, 1, 2} {
		n.AddEdge(s0, sym, s1)
		n.AddEdge(s1, sym, s2)
	}
	pat := n.Determinize().Freeze()

	dev := device.New(m, device.DefaultLatency(), 8)
	s := ShortestPath(dev, &Query{Pattern: pat})
	results := collect(t, s, 4)
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	// Best-first: 00 (0.25) first, then {01, 10} (0.15 tie), then 02 (0.10).
	if results[0].Pattern[0] != 0 || results[0].Pattern[1] != 0 {
		t.Errorf("top result = %v, want [0 0]", results[0].Pattern)
	}
	for i := 1; i < len(results); i++ {
		if results[i].LogProb > results[i-1].LogProb+1e-9 {
			t.Errorf("results out of order: %f then %f", results[i-1].LogProb, results[i].LogProb)
		}
	}
	// 4th result is one of the P=0.10 ties {02, 20}.
	if got, want := results[3].LogProb, math.Log(0.5)+math.Log(0.2); math.Abs(got-want) > 1e-9 {
		t.Errorf("4th result log prob = %f, want %f", got, want)
	}
	// Check the top result's log prob: log(0.5 * 0.5).
	if got, want := results[0].LogProb, 2*math.Log(0.5); math.Abs(got-want) > 1e-9 {
		t.Errorf("top log prob = %f, want %f", got, want)
	}
}

func TestTopKPrunesTransitively(t *testing.T) {
	// With top-k=2 and p(0)>p(1)>p(2), token 2 is never allowed, so no
	// result may contain it (§3.3: transitive elimination).
	vocab := 4
	dist := make([]float64, vocab)
	dist[0], dist[1], dist[2] = math.Log(0.5), math.Log(0.3), math.Log(0.2)
	dist[3] = model.NegInf
	m := &model.Table{Vocab: vocab, EOSTok: 3, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}

	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.SetStart(s0)
	for _, sym := range []int{0, 1, 2} {
		n.AddEdge(s0, sym, s1)
	}
	pat := n.Determinize().Freeze()
	dev := device.New(m, device.DefaultLatency(), 8)
	s := ShortestPath(dev, &Query{Pattern: pat, Rule: decoding.TopK{K: 2}})
	results := collect(t, s, 10)
	if len(results) != 2 {
		t.Fatalf("top-2 language has %d strings, want 2", len(results))
	}
	for _, r := range results {
		if r.Pattern[0] == 2 {
			t.Error("token 2 should be pruned by top-k")
		}
	}
}

func TestPrefixBypassesRule(t *testing.T) {
	// The prefix token is the *least* likely token; with top-k=1 it would be
	// pruned — but prefixes bypass decoding rules (§3.3).
	vocab := 4
	dist := make([]float64, vocab)
	dist[0], dist[1], dist[2] = math.Log(0.7), math.Log(0.2), math.Log(0.1)
	dist[3] = model.NegInf
	m := &model.Table{Vocab: vocab, EOSTok: 3, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}

	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	n.SetStart(s0)
	n.AddEdge(s0, 0, s1)
	pat := n.Determinize().Freeze()
	dev := device.New(m, device.DefaultLatency(), 8)
	s := ShortestPath(dev, &Query{
		Pattern:  pat,
		Prefixes: [][]model.Token{{2}}, // least likely token as prefix
		Rule:     decoding.Greedy{},
	})
	results := collect(t, s, 1)
	if len(results) != 1 {
		t.Fatal("prefix should not be pruned by the decision rule")
	}
	if results[0].PrefixLogProb > math.Log(0.1)+1e-9 && results[0].PrefixLogProb < math.Log(0.1)-1e-9 {
		t.Errorf("prefix log prob = %f, want log(0.1)", results[0].PrefixLogProb)
	}
}

func TestRequireEOSChangesCostAndFiltering(t *testing.T) {
	// Language {b, bb}: without EOS both match; with RequireEOS the stop
	// probability reweights results.
	vocab := 3 // 0=b-ish token, 1 unused, EOS=2
	distAfterOne := []float64{math.Log(0.69), model.NegInf, math.Log(0.31)}
	distAfterTwo := []float64{math.Log(0.01), model.NegInf, math.Log(0.99)}
	start := []float64{math.Log(0.98), model.NegInf, math.Log(0.02)}
	m := &model.Table{Vocab: vocab, EOSTok: 2, SeqLen: 8, Dist: map[string][]float64{
		model.Key([]model.Token{}):     start,
		model.Key([]model.Token{0}):    distAfterOne,
		model.Key([]model.Token{0, 0}): distAfterTwo,
	}}
	n := automaton.NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	s2 := n.AddState(true)
	n.SetStart(s0)
	n.AddEdge(s0, 0, s1)
	n.AddEdge(s1, 0, s2)
	pat := n.Determinize().Freeze()
	dev := device.New(m, device.DefaultLatency(), 8)

	s := ShortestPath(dev, &Query{Pattern: pat, RequireEOS: true})
	results := collect(t, s, 2)
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	// P(b,EOS) = 0.98*0.31*... wait: P("b" then EOS) = 0.98 * 0.31 = 0.3038.
	// P("bb" then EOS) = 0.98 * 0.69 * 0.99 = 0.6694. So bb must rank first.
	if len(results[0].Pattern) != 2 {
		t.Errorf("with EOS weighting, bb should rank first (P=0.669 vs 0.304)")
	}
}

func TestShortestPathMaxNodes(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("[a-z]+") // infinite language
	full := compiler.CompileFull(char, env.tok).Freeze()
	s := ShortestPath(env.dev, &Query{Pattern: full, MaxNodes: 50, MaxTokens: 6})
	for {
		_, err := s.Next()
		if err == ErrExhausted {
			break
		}
	}
	if s.Stats().NodesExpanded > 50 {
		t.Errorf("expanded %d nodes, budget 50", s.Stats().NodesExpanded)
	}
}

func TestSamplerRespectsAutomaton(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 20, 100)
	if err != nil {
		t.Fatal(err)
	}
	prefix := env.tok.Encode("The man was trained in")
	s := Sample(env.dev, &Query{
		Pattern:  pat.Freeze(),
		Prefixes: [][]model.Token{prefix},
	}, SamplerOptions{Seed: 5})
	seen := map[string]int{}
	for i := 0; i < 60; i++ {
		r, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		out := env.tok.Decode(r.Pattern)
		if out != " engineering" && out != " medicine" && out != " art" {
			t.Fatalf("sampler escaped the language: %q", out)
		}
		seen[out]++
	}
	if seen[" engineering"] <= seen[" medicine"] {
		t.Errorf("man-conditioned samples should favor engineering: %v", seen)
	}
}

func TestSamplerUniformPrefixOverDFA(t *testing.T) {
	// Prefix language {a, b, bb, bbb} (paper's example): uniform prefix
	// sampling must hit 'a' ~25%, not ~50%.
	prefDFA := automaton.FromStrings([]string{"a", "b", "bb", "bbb"})
	pat := automaton.NewDFA()
	p0 := pat.AddState(false)
	p1 := pat.AddState(true)
	pat.AddEdge(p0, 'x', p1)
	pat.SetStart(p0)

	m := &model.Uniform{Vocab: 257, EOSTok: 256, SeqLen: 16}
	dev := device.New(m, device.DefaultLatency(), 8)
	walks := automaton.NewWalkCounter(prefDFA.Freeze(), m.SeqLen)
	s := Sample(dev, &Query{Pattern: pat.Freeze()}, SamplerOptions{
		Seed:        3,
		PrefixWalks: walks,
	})
	aCount, total := 0, 2000
	for i := 0; i < total; i++ {
		r, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Prefix) == 1 && r.Prefix[0] == 'a' {
			aCount++
		}
	}
	frac := float64(aCount) / float64(total)
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("P(prefix=a) = %f, want ~0.25 under normalized sampling", frac)
	}
}

func TestSamplerMatchesModelDistribution(t *testing.T) {
	// Unconstrained single-token language over {0,1}: sample frequencies
	// must match the scripted model probabilities (unbiased estimation).
	vocab := 3
	dist := []float64{math.Log(0.7), math.Log(0.3), model.NegInf}
	m := &model.Table{Vocab: vocab, EOSTok: 2, SeqLen: 4,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	pat := automaton.NewDFA()
	p0 := pat.AddState(false)
	p1 := pat.AddState(true)
	pat.AddEdge(p0, 0, p1)
	pat.AddEdge(p0, 1, p1)
	pat.SetStart(p0)
	dev := device.New(m, device.DefaultLatency(), 8)
	s := Sample(dev, &Query{Pattern: pat.Freeze()}, SamplerOptions{Seed: 11})
	zero, total := 0, 4000
	for i := 0; i < total; i++ {
		r, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if r.Pattern[0] == 0 {
			zero++
		}
	}
	frac := float64(zero) / float64(total)
	if frac < 0.66 || frac > 0.74 {
		t.Errorf("P(token 0) = %f, want ~0.7", frac)
	}
}

func TestSamplerDeadEndRejection(t *testing.T) {
	// Pattern demands token 2 but greedy decoding only allows token 0:
	// every attempt dead-ends; Next must eventually return ErrExhausted.
	vocab := 4
	dist := []float64{math.Log(0.7), math.Log(0.2), math.Log(0.1), model.NegInf}
	m := &model.Table{Vocab: vocab, EOSTok: 3, SeqLen: 4,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	pat := automaton.NewDFA()
	p0 := pat.AddState(false)
	p1 := pat.AddState(true)
	pat.AddEdge(p0, 2, p1)
	pat.SetStart(p0)
	dev := device.New(m, device.DefaultLatency(), 8)
	s := Sample(dev, &Query{Pattern: pat.Freeze(), Rule: decoding.Greedy{}},
		SamplerOptions{Seed: 2, MaxAttemptsPerResult: 50})
	if _, err := s.Next(); err != ErrExhausted {
		t.Errorf("expected ErrExhausted from dead-end sampling, got %v", err)
	}
	if s.Stats().Rejected != 50 {
		t.Errorf("rejected = %d, want 50", s.Stats().Rejected)
	}
}

func TestCanonicalFilterInEngine(t *testing.T) {
	// With the canonical filter, shortest-path over the *full* automaton
	// must yield only canonical encodings.
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("((art)|(medicine))")
	full := compiler.CompileFull(char, env.tok).Freeze()
	s := ShortestPath(env.dev, &Query{
		Pattern: full,
		Filter:  compiler.NewCanonicalFilter(env.tok),
	})
	results := collect(t, s, 10)
	if len(results) != 2 {
		t.Fatalf("canonical-filtered full automaton yielded %d results, want 2", len(results))
	}
	for _, r := range results {
		if !tokenizer.IsCanonical(env.tok, r.Pattern) {
			t.Errorf("non-canonical result %v (%q)", r.Pattern, env.tok.Decode(r.Pattern))
		}
	}
}

func TestFullAutomatonYieldsMultipleEncodings(t *testing.T) {
	// Without the filter, the full automaton yields several encodings of the
	// same string, each a distinct result.
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("art")
	full := compiler.CompileFull(char, env.tok).Freeze()
	s := ShortestPath(env.dev, &Query{Pattern: full})
	results := collect(t, s, 100)
	if len(results) < 2 {
		t.Fatalf("full automaton for 'art' yielded %d encodings, want several", len(results))
	}
	for _, r := range results {
		if env.tok.Decode(r.Pattern) != "art" {
			t.Errorf("decoded %q, want art", env.tok.Decode(r.Pattern))
		}
	}
}

func TestStatsCounting(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("((art)|(medicine))")
	pat, _ := compiler.CompileCanonical(char, env.tok, 12, 100)
	s := ShortestPath(env.dev, &Query{Pattern: pat.Freeze()})
	collect(t, s, 2)
	st := s.Stats()
	if st.Emitted != 2 || st.NodesExpanded == 0 || st.ModelCalls == 0 {
		t.Errorf("stats look wrong: %+v", st)
	}
}

var _ tokenizer.Tokenizer = charTok{}

func TestPrefixZeroCostVisitsAllPrefixesFirst(t *testing.T) {
	// Two prefixes: one very likely, one very unlikely, each leading to a
	// single-token pattern. With the cost heuristic (default), the likely
	// prefix's match is emitted after far fewer expansions than under
	// PrefixZeroCost, where both prefix roots tie at cost 0 and are both
	// expanded before any emission.
	vocab := 4
	dist := []float64{math.Log(0.89), math.Log(0.01), math.Log(0.1), model.NegInf}
	m := &model.Table{Vocab: vocab, EOSTok: 3, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}

	pat := automaton.NewDFA()
	p0 := pat.AddState(false)
	p1 := pat.AddState(true)
	pat.AddEdge(p0, 2, p1)
	pat.SetStart(p0)

	run := func(zeroCost bool) (first *Result, expanded int64) {
		dev := device.New(m, device.DefaultLatency(), 8)
		s := ShortestPath(dev, &Query{
			Pattern:        pat.Freeze(),
			Prefixes:       [][]model.Token{{0}, {1}}, // likely, unlikely
			BatchExpand:    1,
			PrefixZeroCost: zeroCost,
		})
		r, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		return r, s.Stats().NodesExpanded
	}
	rHeuristic, nHeuristic := run(false)
	rZero, nZero := run(true)
	// Heuristic: first emitted match descends from the likely prefix.
	if rHeuristic.Prefix[0] != 0 {
		t.Errorf("heuristic first match came from prefix %v, want the likely one", rHeuristic.Prefix)
	}
	// Zero-cost ties both prefixes at the top, so both roots are expanded
	// before the first emission — strictly more work.
	if nZero <= nHeuristic {
		t.Errorf("zero-cost should expand more nodes before first result: %d vs %d", nZero, nHeuristic)
	}
	_ = rZero
}

func TestPrefixLogProbReportedWithZeroCost(t *testing.T) {
	// Even under PrefixZeroCost, the reported PrefixLogProb must be the true
	// model score, not the zeroed priority.
	vocab := 3
	dist := []float64{math.Log(0.25), math.Log(0.75), model.NegInf}
	m := &model.Table{Vocab: vocab, EOSTok: 2, SeqLen: 8,
		Dist: map[string][]float64{"*": dist}, KeyFunc: func([]model.Token) string { return "*" }}
	pat := automaton.NewDFA()
	p0 := pat.AddState(false)
	p1 := pat.AddState(true)
	pat.AddEdge(p0, 1, p1)
	pat.SetStart(p0)
	dev := device.New(m, device.DefaultLatency(), 8)
	s := ShortestPath(dev, &Query{
		Pattern:        pat.Freeze(),
		Prefixes:       [][]model.Token{{0}},
		PrefixZeroCost: true,
	})
	r, err := s.Next()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.PrefixLogProb-math.Log(0.25)) > 1e-9 {
		t.Errorf("PrefixLogProb = %f, want log(0.25)", r.PrefixLogProb)
	}
}
