package model

import (
	"math"

	"repro/internal/tokenizer"
)

// NextLogProbsRef is NGram.NextLogProbs as it stood before the row was
// reused for the logs and the context-cache boost stopped building a map:
// a second V-sized row for the logs and a per-call map[Token]float64 for the
// boost. It is the bit-identity oracle for the current implementation
// (ngram_oracle_test.go); exported only to this package's external tests.
func (m *NGram) NextLogProbsRef(ctx []Token) []float64 {
	probs := make([]float64, m.vocab)
	uni := m.counts[0][""]
	denom := m.alpha * float64(m.vocab)
	if uni != nil {
		denom += float64(uni.total)
	}
	base := m.alpha / denom
	for i := range probs {
		probs[i] = base
	}
	if uni != nil {
		for t, c := range uni.next {
			probs[t] += float64(c) / denom
		}
	}
	for k := 1; k < m.order; k++ {
		if k > len(ctx) {
			break
		}
		hist := Key(ctx[len(ctx)-k:])
		sc, ok := m.counts[k][hist]
		if !ok || sc.total == 0 {
			continue
		}
		for i := range probs {
			probs[i] *= (1 - m.lambda)
		}
		for t, c := range sc.next {
			probs[t] += m.lambda * float64(c) / float64(sc.total)
		}
	}
	if m.cacheWeight > 0 && len(ctx) > 0 {
		uni := m.counts[0][""]
		idf := func(t Token) float64 {
			c := 0
			if uni != nil {
				c = uni.next[t]
			}
			v := 1 / float64(1+c)
			return v * v
		}
		cache := map[Token]float64{}
		total := 0.0
		for _, t := range ctx {
			w := idf(t)
			cache[t] += w
			total += w
		}
		if total > 0 {
			for i := range probs {
				probs[i] *= (1 - m.cacheWeight)
			}
			for t, w := range cache {
				probs[t] += m.cacheWeight * w / total
			}
		}
	}
	out := make([]float64, m.vocab)
	for i, p := range probs {
		out[i] = math.Log(p)
	}
	return out
}

// TrainNGramRef is TrainNGram as it stood before the histories were looked
// up through one pooled key: it builds a key string for every (position,
// history length). It is the count-table oracle for TrainNGram
// (TestTrainNGramMatchesReference); exported only to this package's
// external tests.
func TrainNGramRef(corpus []string, tok tokenizer.Tokenizer, cfg NGramConfig) *NGram {
	m := TrainNGrams(nil, tok, cfg)[0]
	for _, line := range corpus {
		seq := append(tok.Encode(line), tok.EOS())
		for i := 0; i < len(seq); i++ {
			for k := 0; k < m.order; k++ {
				if i-k < 0 {
					break
				}
				hist := Key(seq[i-k : i])
				sc, ok := m.counts[k][hist]
				if !ok {
					sc = &sparseCounts{next: map[Token]int{}}
					m.counts[k][hist] = sc
				}
				sc.next[seq[i]]++
				sc.total++
			}
		}
	}
	return m
}
