package model

import (
	"cmp"
	"math"

	"repro/internal/tokenizer"
)

// NGram is an interpolated back-off n-gram language model over tokens. It is
// the primary GPT-2 stand-in: training sequences are memorized (high
// conditional probability along trained continuations), unseen contexts back
// off smoothly to shorter histories, and every token retains nonzero
// probability via additive smoothing — so, as with a softmax LM, "most
// strings will have non-zero probability" (§2.4).
type NGram struct {
	order  int // maximum history length + 1 (order 3 = trigram)
	vocab  int
	eos    Token
	seqLen int
	// counts[k] maps a history of length k (encoded) to next-token counts.
	counts []map[string]*sparseCounts
	// lambda weights interpolation between orders (higher = trust longer
	// histories more when observed).
	lambda float64
	alpha  float64 // additive smoothing mass for the unigram floor
	// cacheWeight mixes in a unigram cache over the current context (Kuhn &
	// De Mori-style), giving the model the long-range copy/recall behaviour
	// transformers exhibit — a token mentioned earlier in the context
	// becomes likelier to recur. Zero disables.
	cacheWeight float64
}

type sparseCounts struct {
	total int
	next  map[Token]int
}

// NGramConfig configures training.
type NGramConfig struct {
	// Order is the n-gram order (3 = trigram). Larger orders memorize more
	// aggressively — the paper's GPT-2 XL analog uses a higher order than the
	// GPT-2 small analog.
	Order int
	// MaxSeqLen is the context window reported to the engine.
	MaxSeqLen int
	// Lambda is the interpolation weight given to an observed higher-order
	// estimate (default 0.85).
	Lambda float64
	// Alpha is the additive-smoothing pseudo-count spread over the
	// vocabulary at the unigram level (default 0.5).
	Alpha float64
	// CacheWeight mixes a unigram cache over the live context into the
	// prediction (0 disables; 0.1-0.3 is typical). This is the long-range
	// recall component: without it a back-off n-gram cannot refer back
	// further than its order.
	CacheWeight float64
}

// TrainNGram fits an n-gram model to the canonical token encodings of the
// corpus lines, appending EOS to each line.
func TrainNGram(corpus []string, tok tokenizer.Tokenizer, cfg NGramConfig) *NGram {
	return TrainNGrams(corpus, tok, cfg)[0]
}

// TrainNGrams fits one model per config to the same corpus, encoding each
// line once for all of them.
func TrainNGrams(corpus []string, tok tokenizer.Tokenizer, cfgs ...NGramConfig) []*NGram {
	seqs := make([][]Token, len(corpus))
	for i, line := range corpus {
		seqs[i] = append(tok.Encode(line), tok.EOS())
	}
	models := make([]*NGram, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Order = cmp.Or(max(cfg.Order, 0), 3)
		m := &NGram{
			order:       cfg.Order,
			vocab:       tok.VocabSize(),
			eos:         tok.EOS(),
			seqLen:      cmp.Or(max(cfg.MaxSeqLen, 0), 64),
			lambda:      cmp.Or(cfg.Lambda, 0.85),
			alpha:       cmp.Or(cfg.Alpha, 0.5),
			cacheWeight: cfg.CacheWeight,
			counts:      make([]map[string]*sparseCounts, cfg.Order),
		}
		for k := range m.counts {
			m.counts[k] = map[string]*sparseCounts{}
		}
		for _, seq := range seqs {
			m.observe(seq)
		}
		models[i] = m
	}
	return models
}

// observe counts each token of seq under its histories of every length the
// model keeps. The histories are suffixes of one key, built once per token
// in a pooled buffer, so a key string is allocated only for a new history.
func (m *NGram) observe(seq []Token) {
	buf := GetKeyBuf()
	defer PutKeyBuf(buf)
	for i, t := range seq {
		*buf = AppendKey((*buf)[:0], seq[max(0, i-m.order+1):i])
		for k := 0; k < m.order && k <= i; k++ {
			hist := (*buf)[len(*buf)-2*k:]
			sc, ok := m.counts[k][string(hist)]
			if !ok {
				sc = &sparseCounts{next: map[Token]int{}}
				m.counts[k][string(hist)] = sc
			}
			sc.next[t]++
			sc.total++
		}
	}
}

// VocabSize implements LanguageModel.
func (m *NGram) VocabSize() int { return m.vocab }

// EOS implements LanguageModel.
func (m *NGram) EOS() Token { return m.eos }

// MaxSeqLen implements LanguageModel.
func (m *NGram) MaxSeqLen() int { return m.seqLen }

// NextLogProbs implements LanguageModel with Jelinek-Mercer-style
// interpolation: starting from the smoothed unigram floor, each observed
// longer history re-mixes the estimate with weight lambda.
func (m *NGram) NextLogProbs(ctx []Token) []float64 {
	probs := make([]float64, m.vocab)
	// Unigram floor with additive smoothing.
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
	// Mix in higher orders when their history was observed. The histories
	// are looked up with a pooled key buffer, so no key string is built.
	buf := GetKeyBuf()
	defer PutKeyBuf(buf)
	for k := 1; k < m.order; k++ {
		if k > len(ctx) {
			break
		}
		*buf = AppendKey((*buf)[:0], ctx[len(ctx)-k:])
		sc, ok := m.counts[k][string(*buf)]
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
	// Context cache: boost tokens that already occurred in the window,
	// IDF-weighted so the boost concentrates on *rare* tokens (entities,
	// names) rather than function words — the long-range copy behaviour a
	// transformer learns. p_cache(t) ∝ count_ctx(t) / (1 + count_train(t)).
	if m.cacheWeight > 0 && len(ctx) > 0 {
		m.boostContext(probs, ctx, uni)
	}
	// The row is the probabilities' own: take the log in place.
	for i, p := range probs {
		probs[i] = math.Log(p)
	}
	return probs
}

// ctxWeight is one distinct context token's idf weight and its running sum
// over the token's occurrences.
type ctxWeight struct {
	tok    Token
	w, sum float64
}

// boostContext mixes the context cache into probs. Each distinct token's sum
// and the total accumulate in context order, one idf(t) per occurrence, and
// each token is boosted once, so every row is bit-identical to a per-token
// map's (TestNGramMatchesReference). Up to 64 distinct tokens live in a stack
// array, found by a linear scan, so a window-sized context allocates nothing.
func (m *NGram) boostContext(probs []float64, ctx []Token, uni *sparseCounts) {
	idf := func(t Token) float64 {
		c := 0
		if uni != nil {
			c = uni.next[t]
		}
		// Squared so the boost concentrates sharply on the rarest
		// context tokens (entities) over merely uncommon ones.
		v := 1 / float64(1+c)
		return v * v
	}
	var buf [64]ctxWeight
	seen := buf[:0]
	total := 0.0
	for _, t := range ctx {
		i := 0
		for i < len(seen) && seen[i].tok != t {
			i++
		}
		if i == len(seen) {
			seen = append(seen, ctxWeight{tok: t, w: idf(t)})
		}
		seen[i].sum += seen[i].w
		total += seen[i].w
	}
	if total > 0 {
		for i := range probs {
			probs[i] *= (1 - m.cacheWeight)
		}
		for _, s := range seen {
			probs[s.tok] += m.cacheWeight * s.sum / total
		}
	}
}

// ScoreBatch implements LanguageModel. Count tables are immutable after
// training, so the trivial loop is already concurrency-safe; there is no
// cross-row structure to exploit.
func (m *NGram) ScoreBatch(ctxs [][]Token) [][]float64 { return ScoreSerial(m, ctxs) }

// ObservedContexts reports how many distinct histories of each length were
// seen in training; useful for sizing diagnostics.
func (m *NGram) ObservedContexts() []int {
	out := make([]int, m.order)
	for k := 0; k < m.order; k++ {
		out[k] = len(m.counts[k])
	}
	return out
}
