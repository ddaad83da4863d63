package model

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

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
	// table holds the next-token counts of every history; the model reads
	// the histories shorter than its order. Models trained together share it.
	table *countTable
	// lambda weights interpolation between orders (higher = trust longer
	// histories more when observed).
	lambda float64
	alpha  float64 // additive smoothing mass for the unigram floor
	// cacheWeight mixes in a unigram cache over the current context (Kuhn &
	// De Mori-style), giving the model the long-range copy/recall behaviour
	// transformers exhibit — a token mentioned earlier in the context
	// becomes likelier to recur. Zero disables.
	cacheWeight float64
	// base is the smoothed floor alpha/denom every token gets, and a token
	// seen n times in training adds n/denom to it.
	base, denom float64
	// templates[2j+b] is the log row of a context with j observed histories,
	// boosted by the context cache when b is 1, at every token that no
	// observed history and no context token names. Each is built on first
	// use.
	templates []atomic.Pointer[[]float64]
}

// countTable is the frozen next-token count table of an n-gram model: a trie
// of the observed histories by reversed context. The root is the empty
// history; the child of a history's node under token t is the history one
// token longer whose oldest token is t. A context's observed histories are
// thus the nodes along one backward walk of the context. Nodes are laid out
// by history length, each length's nodes in order of their reversed
// histories, so every node's children form one run sorted by token.
type countTable struct {
	level []int32 // the nodes of histories k tokens long are level[k] to level[k+1]
	tok   []int32 // the oldest token of node n's history (unused at the root)
	kids  []int32 // node n's children are nodes kids[n] to kids[n+1], ascending by tok
	// total[n] is how often the history was observed, or -1 when the table
	// holds it only as a suffix of a longer one (a loaded artifact can list
	// an order-k history without its order-(k−1) suffix) or as the root of
	// an empty mix.
	total []int
	// Node n's next tokens, ascending, are next[run[n]:run[n+1]], and their
	// counts are count[run[n]:run[n+1]].
	run   []int32
	next  []int32
	count []int
	// unigram[t] is the root's count of token t, for every token.
	unigram []int
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

// TrainNGrams fits one model per config to the same corpus. The corpus is
// encoded and counted once, to the largest order, and the models share the
// table: a model of order n reads its histories of up to n−1 tokens.
func TrainNGrams(corpus []string, tok tokenizer.Tokenizer, cfgs ...NGramConfig) []*NGram {
	maxOrder := 0
	for _, cfg := range cfgs {
		maxOrder = max(maxOrder, cfg.order())
	}
	table := countMix(tokenizer.EncodeLines(tok, corpus, tok.EOS()), tok.VocabSize(), tok.EOS(), maxOrder-1)
	models := make([]*NGram, len(cfgs))
	for i, cfg := range cfgs {
		models[i] = newNGram(&NGram{
			order:       cfg.order(),
			vocab:       tok.VocabSize(),
			eos:         tok.EOS(),
			seqLen:      cmp.Or(max(cfg.MaxSeqLen, 0), 64),
			lambda:      cmp.Or(cfg.Lambda, 0.85),
			alpha:       cmp.Or(cfg.Alpha, 0.5),
			cacheWeight: cfg.CacheWeight,
			table:       table,
		})
	}
	return models
}

func (cfg NGramConfig) order() int { return cmp.Or(max(cfg.Order, 0), 3) }

// newNGram derives m's smoothing floor and template slots from its table.
func newNGram(m *NGram) *NGram {
	m.denom = m.alpha * float64(m.vocab)
	if uni := m.table.total[0]; uni >= 0 {
		m.denom += float64(uni)
	}
	m.base = m.alpha / m.denom
	// A context observes at most one history of each length from 1 to the
	// order or the table's depth, whichever is less.
	m.templates = make([]atomic.Pointer[[]float64], 2*min(m.order, len(m.table.level)-1))
	return m
}

// countMix counts seq, a mix of lines each ended by eos, into a table of
// every history of up to maxHist tokens within a line. It hashes nothing:
// each history length is two stable counting sorts of the positions by node,
// one to lay out the next length's nodes and one to count the next tokens.
func countMix(seq []Token, vocab int, eos Token, maxHist int) *countTable {
	n := len(seq)
	// hist[i] is how many tokens of its line precede position i, up to maxHist.
	hist := make([]int32, n)
	for i, start := 0, 0; i < n; i++ {
		hist[i] = int32(min(i-start, maxHist))
		if seq[i] == eos {
			start = i + 1
		}
	}
	// byNext lists the positions in ascending order of their token, so a
	// stable sort of it by node orders each node's positions by next token,
	// and a stable sort of it shifted k+1 positions on orders them by the
	// token k+1 back.
	buckets := make([]int32, max(vocab, n)+1)
	byNext := make([]int32, n)
	for _, t := range seq {
		buckets[t+1]++
	}
	for t := 1; t <= vocab; t++ {
		buckets[t] += buckets[t-1]
	}
	for i, t := range seq {
		byNext[buckets[t]] = int32(i)
		buckets[t]++
	}
	node := make([]int32, n) // position i's node at the current history length
	sorted := make([]int32, n)
	// byNode keeps the positions p of ps whose position i = p+shift has a
	// history of at least need tokens (a condition that only drops positions
	// as need and shift grow together), and stably sorts the positions i by
	// their nodes, numbered from lo.
	byNode := func(ps []int32, shift, need, lo, nodes int32) (kept, out []int32) {
		b := buckets[:nodes+1]
		clear(b)
		kept = ps[:0]
		for _, p := range ps {
			if i := p + shift; int(i) < n && hist[i] >= need {
				kept = append(kept, p)
				b[node[i]-lo+1]++
			}
		}
		for j := 1; j <= int(nodes); j++ {
			b[j] += b[j-1]
		}
		out = sorted[:len(kept)]
		for _, p := range kept {
			i := p + shift
			out[b[node[i]-lo]] = i
			b[node[i]-lo]++
		}
		return kept, out
	}
	// counted lists the positions with a history of k tokens, and back those
	// k+1 tokens back from a position with a history of k+1, both ascending
	// by token; byNode narrows them in place.
	counted, back := byNext, slices.Clone(byNext)
	t := &countTable{level: []int32{0, 1}, tok: []int32{-1}}
	parent := []int32{-1}
	for k := int32(0); ; k++ {
		lo, hi := t.level[k], t.level[k+1]
		// The next-token runs of this length's nodes, in node order.
		var out []int32
		counted, out = byNode(counted, 0, k, lo, hi-lo)
		pairs := 0
		for j, i := range out {
			if j == 0 || node[i] != node[out[j-1]] || seq[i] != seq[out[j-1]] {
				pairs++
			}
		}
		t.run, t.total = reserve(t.run, int(hi-lo)), reserve(t.total, int(hi-lo))
		t.next, t.count = reserve(t.next, pairs), reserve(t.count, pairs)
		for nd, j := lo, 0; nd < hi; nd++ {
			t.run = append(t.run, int32(len(t.next)))
			total := 0
			for j < len(out) && node[out[j]] == nd {
				next, c := seq[out[j]], 0
				for ; j < len(out) && node[out[j]] == nd && seq[out[j]] == next; j++ {
					c++
				}
				t.next = append(t.next, int32(next))
				t.count = append(t.count, c)
				total += c
			}
			if total == 0 {
				total = -1 // only the root of an empty mix
			}
			t.total = append(t.total, total)
		}
		if int(k) == maxHist {
			break
		}
		// The nodes one token longer: a new node for each distinct (node,
		// token k+1 back), in that order.
		back, out = byNode(back, k+1, k+1, lo, hi-lo)
		if len(out) == 0 {
			break
		}
		nodes := 0
		for j, i := range out {
			if j == 0 || node[i] != node[out[j-1]] || seq[int(i)-int(k)-1] != seq[int(out[j-1])-int(k)-1] {
				nodes++
			}
		}
		t.tok, parent = reserve(t.tok, nodes), reserve(parent, nodes)
		for j, i := range out {
			p, old := node[i], int32(seq[int(i)-int(k)-1])
			if j == 0 || p != parent[len(parent)-1] || old != t.tok[len(t.tok)-1] {
				t.tok = append(t.tok, old)
				parent = append(parent, p)
			}
			node[i] = int32(len(t.tok) - 1)
		}
		t.level = append(t.level, int32(len(t.tok)))
	}
	t.finish(parent, vocab)
	return t
}

// reserve returns s with room for n more elements. When it must grow it at
// least doubles, so a table laid out length by length copies little.
func reserve[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	return append(make([]E, 0, max(2*cap(s), len(s)+n)), s...)
}

// finish closes a table whose nodes, runs and totals are laid out: it places
// each node's children from parent (the node each non-root node extends, in
// node order), ends the run offsets and spreads the root's counts over the
// vocabulary.
func (t *countTable) finish(parent []int32, vocab int) {
	t.kids = make([]int32, len(t.tok)+1)
	for _, p := range parent[1:] {
		t.kids[p+1]++
	}
	t.kids[0] = 1
	for n := 1; n < len(t.kids); n++ {
		t.kids[n] += t.kids[n-1]
	}
	t.run = append(t.run, int32(len(t.next)))
	t.unigram = make([]int, vocab)
	for i := t.run[0]; i < t.run[1]; i++ {
		t.unigram[t.next[i]] = t.count[i]
	}
}

// child returns the node of the history n's history extended one token
// further back by tok.
func (t *countTable) child(n int32, tok Token) (int32, bool) {
	lo, hi := t.kids[n], t.kids[n+1]
	i, ok := slices.BinarySearch(t.tok[lo:hi], int32(tok))
	return lo + int32(i), ok
}

// countOf returns how often tok followed node n's history.
func (t *countTable) countOf(n int32, tok Token) (int, bool) {
	lo, hi := t.run[n], t.run[n+1]
	i, ok := slices.BinarySearch(t.next[lo:hi], int32(tok))
	if !ok {
		return 0, false
	}
	return t.count[lo+int32(i)], true
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
//
// Every token's probability goes through the same chain of operations: its
// floor, one (1−lambda) scaling per observed history plus that history's
// share when the token followed it, then the context cache's. So a token
// that no observed history and no context token names has the value a
// template row holds for the number of observed histories, and only the
// named tokens replay the chain — in the same order, so each row is
// bit-identical to scaling the whole row at every step
// (TestNGramMatchesReference).
func (m *NGram) NextLogProbs(ctx []Token) []float64 {
	// One backward walk of the context finds every observed history.
	var obsBuf [16]int32
	obs := obsBuf[:0]
	for n, k := int32(0), 1; k < m.order && k <= len(ctx); k++ {
		tok := ctx[len(ctx)-k]
		if tok < 0 || tok >= m.vocab {
			break
		}
		var ok bool
		if n, ok = m.table.child(n, tok); !ok {
			break
		}
		if m.table.total[n] > 0 {
			obs = append(obs, n)
		}
	}
	// Context cache: boost tokens that already occurred in the window,
	// IDF-weighted so the boost concentrates on *rare* tokens (entities,
	// names) rather than function words — the long-range copy behaviour a
	// transformer learns. p_cache(t) ∝ count_ctx(t) / (1 + count_train(t)).
	var wBuf [64]ctxWeight
	var weights []ctxWeight
	total := 0.0
	if m.cacheWeight > 0 && len(ctx) > 0 {
		weights, total = m.contextWeights(wBuf[:0], ctx)
	}
	boost := total > 0
	probs := make([]float64, m.vocab)
	copy(probs, m.template(len(obs), boost))
	for _, n := range obs {
		for _, t := range m.table.next[m.table.run[n]:m.table.run[n+1]] {
			probs[t] = math.Log(m.chain(Token(t), obs, boost))
		}
	}
	for _, w := range weights {
		probs[w.tok] = math.Log(m.chain(w.tok, obs, boost) + m.cacheWeight*w.sum/total)
	}
	return probs
}

// chain is token t's probability before the context cache adds its share:
// its floor, mixed at each observed history in order, then scaled for the
// cache when boost is set.
func (m *NGram) chain(t Token, obs []int32, boost bool) float64 {
	p := m.floor(t)
	for _, n := range obs {
		p *= (1 - m.lambda)
		if c, ok := m.table.countOf(n, t); ok {
			p += m.lambda * float64(c) / float64(m.table.total[n])
		}
	}
	if boost {
		p *= (1 - m.cacheWeight)
	}
	return p
}

// floor is token t's smoothed unigram probability.
func (m *NGram) floor(t Token) float64 {
	return m.base + float64(m.table.unigram[t])/m.denom
}

// template returns the log row of j observed histories (and the cache
// boost), building it on first use; concurrent first users build equal rows
// and keep the one stored first.
func (m *NGram) template(j int, boost bool) []float64 {
	slot := &m.templates[2*j+bool2int(boost)]
	if row := slot.Load(); row != nil {
		return *row
	}
	row := make([]float64, m.vocab)
	scale := func(p float64) float64 {
		for range j {
			p *= (1 - m.lambda)
		}
		if boost {
			p *= (1 - m.cacheWeight)
		}
		return p
	}
	for t := range row {
		row[t] = math.Log(scale(m.floor(t)))
	}
	slot.CompareAndSwap(nil, &row)
	return *slot.Load()
}

func bool2int(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ctxWeight is one distinct context token's idf weight and its running sum
// over the token's occurrences.
type ctxWeight struct {
	tok    Token
	w, sum float64
}

// contextWeights appends to seen the context cache's weights: each distinct
// token's sum and the total accumulate in context order, one idf(t) per
// occurrence, so every row is bit-identical to a per-token map's
// (TestNGramMatchesReference). A window's distinct tokens fit in a stack
// array the caller passes, found by a linear scan.
func (m *NGram) contextWeights(seen []ctxWeight, ctx []Token) ([]ctxWeight, float64) {
	idf := func(t Token) float64 {
		c := m.table.unigram[t]
		// Squared so the boost concentrates sharply on the rarest
		// context tokens (entities) over merely uncommon ones.
		v := 1 / float64(1+c)
		return v * v
	}
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
	return seen, total
}

// ScoreBatch implements LanguageModel. Count tables are immutable after
// training, so the trivial loop is already concurrency-safe; there is no
// cross-row structure to exploit.
func (m *NGram) ScoreBatch(ctxs [][]Token) [][]float64 { return ScoreSerial(m, ctxs) }

// ObservedContexts reports how many distinct histories of each length were
// seen in training; useful for sizing diagnostics.
func (m *NGram) ObservedContexts() []int {
	out := make([]int, m.order)
	for k := 0; k < m.order && k+1 < len(m.table.level); k++ {
		for n := m.table.level[k]; n < m.table.level[k+1]; n++ {
			if m.table.total[n] >= 0 {
				out[k]++
			}
		}
	}
	return out
}
