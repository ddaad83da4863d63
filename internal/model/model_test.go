package model

import (
	"math"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tokenizer"
)

func testTok(t testing.TB) *tokenizer.BPE {
	t.Helper()
	corpus := []string{
		"the cat sat on the mat",
		"the dog sat on the mat",
		"the man was trained in art",
		"the woman was trained in science",
	}
	return tokenizer.Train(corpus, 120)
}

func probsSumToOne(t *testing.T, lp []float64, label string) {
	t.Helper()
	sum := 0.0
	for _, x := range lp {
		if !math.IsInf(x, -1) {
			sum += math.Exp(x)
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("%s: probabilities sum to %f, want 1", label, sum)
	}
}

func TestUniform(t *testing.T) {
	u := &Uniform{Vocab: 10, EOSTok: 9, SeqLen: 8}
	lp := u.NextLogProbs(nil)
	probsSumToOne(t, lp, "uniform")
	for i := 1; i < len(lp); i++ {
		if lp[i] != lp[0] {
			t.Fatal("uniform model not uniform")
		}
	}
}

func TestLogSumExp(t *testing.T) {
	if got := LogSumExp([]float64{math.Log(0.25), math.Log(0.75)}); math.Abs(got) > 1e-9 {
		t.Errorf("LogSumExp(log .25, log .75) = %f, want 0", got)
	}
	if got := LogSumExp([]float64{NegInf, NegInf}); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp of impossible = %f, want -inf", got)
	}
	if got := LogSumExp([]float64{NegInf, 0}); math.Abs(got) > 1e-9 {
		t.Errorf("LogSumExp(-inf, 0) = %f, want 0", got)
	}
}

func TestNormalize(t *testing.T) {
	x := []float64{1, 2, 3, NegInf}
	Normalize(x)
	probsSumToOne(t, x, "normalize")
	if !math.IsInf(x[3], -1) {
		t.Error("Normalize should leave -inf entries impossible")
	}
}

func TestNGramNormalized(t *testing.T) {
	tok := testTok(t)
	m := TrainNGram([]string{"the cat sat on the mat"}, tok, NGramConfig{Order: 3})
	probsSumToOne(t, m.NextLogProbs(nil), "ngram empty ctx")
	ctx := tok.Encode("the cat")
	probsSumToOne(t, m.NextLogProbs(ctx), "ngram trained ctx")
	probsSumToOne(t, m.NextLogProbs([]Token{5, 77, 200}), "ngram unseen ctx")
}

func TestNGramMemorizes(t *testing.T) {
	tok := testTok(t)
	line := "the cat sat on the mat"
	m := TrainNGram([]string{line}, tok, NGramConfig{Order: 4})
	seq := tok.Encode(line)
	// Along the trained sequence, the next trained token must be the argmax.
	for i := 1; i < len(seq); i++ {
		lp := m.NextLogProbs(seq[:i])
		best := argmax(lp)
		if best != seq[i] {
			t.Errorf("position %d: argmax = %d, want trained token %d", i, best, seq[i])
		}
	}
	// EOS should be the most likely continuation at the end.
	lp := m.NextLogProbs(seq)
	if argmax(lp) != tok.EOS() {
		t.Error("trained line should be followed by EOS")
	}
}

// TestNGramRowIsItsOnlyAllocation: once its template row is built a row
// costs one allocation, the row itself, whether the histories were seen in
// training or not and with the context cache on.
func TestNGramRowIsItsOnlyAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tok := testTok(t)
	line := "the cat sat on the mat"
	m := TrainNGram([]string{line}, tok, NGramConfig{Order: 5, CacheWeight: 0.2})
	for _, ctx := range [][]Token{nil, tok.Encode(line), tok.Encode("zzq qqz the cat")} {
		m.NextLogProbs(ctx) // build the template row
		if allocs := testing.AllocsPerRun(100, func() { m.NextLogProbs(ctx) }); allocs != 1 {
			t.Errorf("NextLogProbs(%v) allocated %.1f objects, want 1 (its row)", ctx, allocs)
		}
	}
}

// TestNGramTemplatesBuiltConcurrently: goroutines that race to build a fresh
// model's template rows all score what a model scored one row at a time
// does (run under -race in CI).
func TestNGramTemplatesBuiltConcurrently(t *testing.T) {
	tok := testTok(t)
	lines := []string{"the cat sat on the mat", "the dog sat on the mat", "the man was trained in art"}
	cfg := NGramConfig{Order: 4, CacheWeight: 0.2}
	var ctxs [][]Token
	for _, line := range lines {
		seq := tok.Encode(line)
		for i := range len(seq) + 1 {
			ctxs = append(ctxs, seq[:i])
		}
	}
	serial := TrainNGram(lines, tok, cfg)
	want := make([][]float64, len(ctxs))
	for i, ctx := range ctxs {
		want[i] = serial.NextLogProbs(ctx)
	}
	m := TrainNGram(lines, tok, cfg)
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ctxs {
				i := (i + g) % len(ctxs)
				if got := m.NextLogProbs(ctxs[i]); !slices.Equal(got, want[i]) {
					t.Errorf("context %v: row differs from the serial model's", ctxs[i])
				}
			}
		}()
	}
	wg.Wait()
}

func TestNGramSequenceLogProbOrdering(t *testing.T) {
	tok := testTok(t)
	m := TrainNGram([]string{
		"the cat sat on the mat",
		"the cat sat on the mat",
		"the dog sat on the mat",
	}, tok, NGramConfig{Order: 3})
	catScore := SequenceLogProb(m, tok.Encode("the cat sat"))
	dogScore := SequenceLogProb(m, tok.Encode("the dog sat"))
	junkScore := SequenceLogProb(m, tok.Encode("zzq qqz"))
	if catScore <= dogScore {
		t.Errorf("2x-trained line should outscore 1x line: %f vs %f", catScore, dogScore)
	}
	if dogScore <= junkScore {
		t.Errorf("trained line should outscore junk: %f vs %f", dogScore, junkScore)
	}
}

func TestNGramBackoff(t *testing.T) {
	tok := testTok(t)
	m := TrainNGram([]string{"the cat sat on the mat"}, tok, NGramConfig{Order: 3})
	// An unseen history must still give elevated probability to tokens that
	// are frequent unigrams.
	lp := m.NextLogProbs([]Token{250, 251, 252})
	probsSumToOne(t, lp, "backoff")
	// The first token of the trained line is certainly a trained unigram.
	trainedTok := tok.Encode("the cat sat on the mat")[0]
	uniformLP := -math.Log(float64(m.VocabSize()))
	if lp[trainedTok] <= uniformLP {
		t.Error("backoff should favor frequent unigrams over uniform")
	}
}

func TestNGramOrderAffectsMemorization(t *testing.T) {
	// Higher order = sharper memorization (the XL-vs-small analog).
	tok := testTok(t)
	line := "the man was trained in art"
	small := TrainNGram([]string{line}, tok, NGramConfig{Order: 2})
	large := TrainNGram([]string{line}, tok, NGramConfig{Order: 5})
	s := SequenceLogProb(small, tok.Encode(line))
	l := SequenceLogProb(large, tok.Encode(line))
	if l <= s {
		t.Errorf("order-5 should memorize better than order-2: %f vs %f", l, s)
	}
}

func TestNGramObservedContexts(t *testing.T) {
	tok := testTok(t)
	m := TrainNGram([]string{"the cat"}, tok, NGramConfig{Order: 3})
	oc := m.ObservedContexts()
	if len(oc) != 3 || oc[0] != 1 {
		t.Errorf("ObservedContexts = %v; want length 3 with 1 empty context", oc)
	}
}

func TestTableModel(t *testing.T) {
	dist := make([]float64, 4)
	for i := range dist {
		dist[i] = NegInf
	}
	dist[2] = 0 // certain token 2 after context [1]
	m := &Table{Vocab: 4, EOSTok: 3, SeqLen: 8, Dist: map[string][]float64{
		Key([]Token{1}): dist,
	}}
	lp := m.NextLogProbs([]Token{1})
	if lp[2] != 0 || !math.IsInf(lp[0], -1) {
		t.Error("table model did not return scripted distribution")
	}
	probsSumToOne(t, m.NextLogProbs([]Token{0}), "table fallback")
}

func TestSequenceLogProbEmpty(t *testing.T) {
	u := &Uniform{Vocab: 4, EOSTok: 3, SeqLen: 8}
	if got := SequenceLogProb(u, nil); got != 0 {
		t.Errorf("empty sequence log prob = %f, want 0", got)
	}
}

func TestLogBilinearNormalized(t *testing.T) {
	tok := testTok(t)
	m := TrainLogBilinear([]string{"the cat sat"}, tok, LBLConfig{Epochs: 1, Seed: 3})
	probsSumToOne(t, m.NextLogProbs(nil), "lbl empty")
	probsSumToOne(t, m.NextLogProbs(tok.Encode("the")), "lbl ctx")
}

func TestLogBilinearLearns(t *testing.T) {
	tok := testTok(t)
	line := "the cat sat on the mat"
	seq := tok.Encode(line)
	untrained := TrainLogBilinear(nil, tok, LBLConfig{Epochs: 0, Seed: 3, Dim: 12})
	trained := TrainLogBilinear([]string{line, line, line}, tok, LBLConfig{Epochs: 12, Seed: 3, Dim: 12, LR: 0.08})
	before := SequenceLogProb(untrained, seq)
	after := SequenceLogProb(trained, seq)
	if after <= before {
		t.Errorf("training did not improve sequence likelihood: %f -> %f", before, after)
	}
}

func TestLogBilinearDeterministic(t *testing.T) {
	tok := testTok(t)
	a := TrainLogBilinear([]string{"the cat"}, tok, LBLConfig{Epochs: 2, Seed: 9})
	b := TrainLogBilinear([]string{"the cat"}, tok, LBLConfig{Epochs: 2, Seed: 9})
	la, lb := a.NextLogProbs(nil), b.NextLogProbs(nil)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same-seed training is nondeterministic")
		}
	}
}

func TestQuickNGramAlwaysNormalized(t *testing.T) {
	tok := testTok(t)
	m := TrainNGram([]string{"the cat sat on the mat"}, tok, NGramConfig{Order: 3})
	f := func(raw []uint8) bool {
		ctx := make([]Token, 0, 6)
		for i := 0; i < len(raw) && i < 6; i++ {
			ctx = append(ctx, int(raw[i])%m.VocabSize())
		}
		lp := m.NextLogProbs(ctx)
		sum := 0.0
		for _, x := range lp {
			sum += math.Exp(x)
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, x := range xs {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
