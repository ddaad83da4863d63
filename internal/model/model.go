// Package model provides the autoregressive language-model substrate that
// stands in for GPT-2 (see DESIGN.md, substitution table). ReLM consumes a
// model only through NextLogProbs: a distribution over the next token given
// a token context. Two trainable families are provided — an interpolated
// back-off n-gram model (the primary substrate: fast, deterministic, and
// memorizing, the property §4.1 probes) and a log-bilinear neural model
// trained with SGD (a second architecture exercising the same interface).
package model

import (
	"math"
	"slices"

	"repro/internal/tokenizer"
)

// Token aliases the tokenizer's token ID type.
type Token = tokenizer.Token

// LanguageModel is the contract the ReLM engine executes against. All
// probabilities are in natural-log space; a slice entry of math.Inf(-1)
// means "this token cannot follow".
type LanguageModel interface {
	// VocabSize reports the size of the token alphabet, including EOS.
	VocabSize() int
	// EOS returns the end-of-sequence token ID.
	EOS() Token
	// MaxSeqLen returns the model's context window in tokens.
	MaxSeqLen() int
	// NextLogProbs returns a normalized log-probability for every token in
	// the vocabulary, conditioned on ctx (oldest first). Every entry is a
	// log-probability, at most 0 and never NaN: shortest path files a node
	// under its own cost as a bound on its children's. The returned row is
	// read-only: a memoizing layer hands the same slice to every caller.
	NextLogProbs(ctx []Token) []float64
	// ScoreBatch returns NextLogProbs for every context in one call, row i
	// corresponding to ctxs[i]. Implementations exploit whatever batch-level
	// structure they have — the Transformer runs one packed forward pass, the
	// cache layer forwards only misses — and must be safe for concurrent use
	// (inference is read-only). Rows are read-only and may be shared between
	// callers and goroutines (DESIGN.md decision 4): a caller that needs to
	// reweight a row works on a copy (decoding.Allowed).
	ScoreBatch(ctxs [][]Token) [][]float64
}

// ScoreSerial implements ScoreBatch as a NextLogProbs loop — the correct
// (if unaccelerated) batch semantics for models with no batch-level
// structure to exploit.
func ScoreSerial(m LanguageModel, ctxs [][]Token) [][]float64 {
	out := make([][]float64, len(ctxs))
	for i, ctx := range ctxs {
		out[i] = m.NextLogProbs(ctx)
	}
	return out
}

// NegInf is the log-probability of an impossible event.
var NegInf = math.Inf(-1)

// LogSumExp computes log(Σ exp(x_i)) stably.
func LogSumExp(xs []float64) float64 {
	max := NegInf
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return NegInf
	}
	sum := 0.0
	for _, x := range xs {
		if !math.IsInf(x, -1) {
			sum += math.Exp(x - max)
		}
	}
	return max + math.Log(sum)
}

// Normalize shifts log weights so they sum (in probability space) to 1.
// All-impossible rows are left untouched.
func Normalize(logits []float64) {
	z := LogSumExp(logits)
	if math.IsInf(z, -1) {
		return
	}
	for i := range logits {
		if !math.IsInf(logits[i], -1) {
			logits[i] -= z
		}
	}
}

// SequenceLogProb scores a full token sequence under the model:
// Σ_i log p(x_i | x_<i). Contexts are truncated to the model window.
func SequenceLogProb(m LanguageModel, seq []Token) float64 {
	total := 0.0
	for i := range seq {
		ctx := seq[:i]
		if len(ctx) > m.MaxSeqLen() {
			ctx = ctx[len(ctx)-m.MaxSeqLen():]
		}
		lp := m.NextLogProbs(ctx)
		total += lp[seq[i]]
		if math.IsInf(total, -1) {
			return NegInf
		}
	}
	return total
}

// Uniform is a maximally simple model: every token is equally likely at
// every step. It exists for tests and as the degenerate baseline.
type Uniform struct {
	Vocab  int
	EOSTok Token
	SeqLen int
}

// VocabSize implements LanguageModel.
func (u *Uniform) VocabSize() int { return u.Vocab }

// EOS implements LanguageModel.
func (u *Uniform) EOS() Token { return u.EOSTok }

// MaxSeqLen implements LanguageModel.
func (u *Uniform) MaxSeqLen() int { return u.SeqLen }

// NextLogProbs implements LanguageModel.
func (u *Uniform) NextLogProbs(ctx []Token) []float64 {
	return slices.Repeat([]float64{-math.Log(float64(u.Vocab))}, u.Vocab)
}

// ScoreBatch implements LanguageModel.
func (u *Uniform) ScoreBatch(ctxs [][]Token) [][]float64 { return ScoreSerial(u, ctxs) }

// Table is a hand-scripted model for tests: a map from context (encoded as a
// string of token IDs) to explicit next-token distributions, with a uniform
// fallback.
type Table struct {
	Vocab   int
	EOSTok  Token
	SeqLen  int
	Dist    map[string][]float64 // context key -> log probs (len == Vocab)
	KeyFunc func([]Token) string
}

// Key encodes a context for Table lookup (and for every context-keyed map
// in the system: the logit cache, the KV arena, dedup sets).
func Key(ctx []Token) string {
	return string(AppendKey(make([]byte, 0, len(ctx)*2), ctx))
}

// AppendKey appends the Key encoding of ctx to dst and returns the extended
// slice. Hot paths reuse one buffer across rows and index maps with
// string(buf) directly — the compiler elides the conversion allocation for
// lookups — so only inserted keys pay a string allocation.
func AppendKey(dst []byte, ctx []Token) []byte {
	for _, t := range ctx {
		dst = append(dst, byte(t), byte(t>>8))
	}
	return dst
}

// VocabSize implements LanguageModel.
func (t *Table) VocabSize() int { return t.Vocab }

// EOS implements LanguageModel.
func (t *Table) EOS() Token { return t.EOSTok }

// MaxSeqLen implements LanguageModel.
func (t *Table) MaxSeqLen() int { return t.SeqLen }

// NextLogProbs implements LanguageModel.
func (t *Table) NextLogProbs(ctx []Token) []float64 {
	kf := t.KeyFunc
	if kf == nil {
		kf = Key
	}
	if d, ok := t.Dist[kf(ctx)]; ok {
		return slices.Clone(d)
	}
	return (&Uniform{Vocab: t.Vocab}).NextLogProbs(ctx)
}

// ScoreBatch implements LanguageModel.
func (t *Table) ScoreBatch(ctxs [][]Token) [][]float64 { return ScoreSerial(t, ctxs) }
