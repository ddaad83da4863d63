package model_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/model"
)

// oracleContexts builds the contexts the bit-identity oracle scores: the
// empty context, window-length windows of the training token stream and of
// random tokens, one-token-repeated contexts (every occurrence adds the same
// idf weight to one sum), prefixes of training lines, and contexts longer
// than the window with more distinct tokens than a window holds.
func oracleContexts(e *experiments.Env, m *model.NGram) [][]model.Token {
	V, W := m.VocabSize(), m.MaxSeqLen()
	rng := rand.New(rand.NewSource(7))
	ctxs := [][]model.Token{nil}
	var stream []model.Token
	for i, line := range e.Corpus {
		toks := e.Tok.Encode(line)
		stream = append(append(stream, toks...), m.EOS())
		if i%7 == 0 {
			for n := 1; n <= min(len(toks), W); n++ {
				ctxs = append(ctxs, toks[:n])
			}
		}
	}
	for lo := 0; lo+W <= len(stream) && lo < 300*W; lo += W / 2 {
		ctxs = append(ctxs, stream[lo:lo+W])
	}
	for i := 0; i < 200; i++ {
		ctx := make([]model.Token, W)
		for j := range ctx {
			ctx[j] = model.Token(rng.Intn(V))
		}
		ctxs = append(ctxs, ctx)
	}
	for t := 0; t < V; t += 17 {
		for _, n := range []int{1, 2, 5, W} {
			ctx := make([]model.Token, n)
			for j := range ctx {
				ctx[j] = model.Token(t)
			}
			ctxs = append(ctxs, ctx)
		}
	}
	for i := 0; i < 20; i++ {
		ctx := rng.Perm(V)[:2*W]
		long := make([]model.Token, len(ctx))
		for j, t := range ctx {
			long[j] = model.Token(t)
		}
		ctxs = append(ctxs, long)
	}
	return ctxs
}

// TestNGramMatchesReference: NextLogProbs is bit-identical, entry by entry,
// to the implementation it replaced, on both experiment-environment models
// (their different orders and context-cache weights) over every kind of
// context the engine sends and some it does not.
func TestNGramMatchesReference(t *testing.T) {
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	total := 0
	for _, env := range []struct {
		name string
		lm   model.LanguageModel
	}{{"large", e.Large.LM}, {"small", e.Small.LM}} {
		m, ok := env.lm.(*model.NGram)
		if !ok {
			t.Fatalf("%s model is %T, want *model.NGram", env.name, env.lm)
		}
		bad := 0
		for _, ctx := range oracleContexts(e, m) {
			total++
			got, want := m.NextLogProbs(ctx), m.NextLogProbsRef(ctx)
			if len(got) != len(want) {
				t.Fatalf("%s ctx %v: row length %d, want %d", env.name, ctx, len(got), len(want))
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					if bad++; bad <= 5 {
						t.Errorf("%s ctx (len %d) %v: token %d = %v, want %v", env.name, len(ctx), ctx, i, got[i], want[i])
					}
					break
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d contexts differ from the reference", env.name, bad)
		}
	}
	if total < 2000 {
		t.Errorf("oracle scored %d contexts, want >= 2000", total)
	}
	t.Logf("%d contexts compared", total)
}

// BenchmarkNGramRow scores every oracle context with the large model, as
// NextLogProbs does and as the reference does (maps of maps, every token
// scaled at each observed history, a log per entry).
func BenchmarkNGramRow(b *testing.B) {
	e := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	m := e.Large.LM.(*model.NGram)
	ctxs := oracleContexts(e, m)
	m.NextLogProbsRef(nil) // read the reference's maps outside the loop
	for _, c := range []struct {
		name  string
		score func([]model.Token) []float64
	}{{"current", m.NextLogProbs}, {"reference", m.NextLogProbsRef}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, ctx := range ctxs {
					c.score(ctx)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ctxs)), "ns/row")
		})
	}
}
