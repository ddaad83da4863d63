// Package tokenizer implements a byte-level Byte-Pair-Encoding (BPE)
// tokenizer trained from scratch, standing in for GPT-2's tokenizer. It is
// the transducer (§2.3) that the graph compiler composes with character
// automata: every token has a byte-string surface form, one string has many
// token encodings, and the tokenizer's Encode defines the unique canonical
// encoding (§3.2).
package tokenizer

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Token is a token ID. IDs are dense: [0, VocabSize).
type Token = int

// Tokenizer is the interface the engine and compiler consume. Both the
// merge-order BPE encoder and the greedy longest-match encoder implement it.
type Tokenizer interface {
	// Encode returns the canonical token sequence for s.
	Encode(s string) []Token
	// Decode returns the byte string a token sequence spells.
	Decode(toks []Token) string
	// TokenBytes returns the surface form of a single token.
	TokenBytes(t Token) string
	// VocabSize reports the number of tokens, including specials.
	VocabSize() int
	// EOS returns the end-of-sequence token ID.
	EOS() Token
}

// BPE is a trained byte-pair encoder. The first 256 tokens are the raw
// bytes; learned merge tokens follow; EOS is the final token.
type BPE struct {
	vocab  []string       // token ID -> surface bytes ("" for EOS)
	index  map[string]int // surface bytes -> token ID
	merges []mergeRule    // in priority order (rank = index)
	ranks  map[[2]Token]int
	eos    Token

	fpOnce sync.Once
	fp     string

	trieOnce sync.Once
	trie     *Trie
}

type mergeRule struct {
	left, right Token
	result      Token
}

// numByteTokens is the size of the base byte alphabet.
const numByteTokens = 256

// Pretokenize splits text into GPT-2-style pre-tokens: a word with its
// leading space (" engineering"), a digit run, a punctuation run, or bare
// whitespace. BPE merges never span pre-token boundaries, which gives the
// compositionality property the engine relies on — Encode(prefix + " word")
// = Encode(prefix) + Encode(" word") at word boundaries.
func Pretokenize(s string) []string {
	var out []string
	for i := 0; i < len(s); {
		end := pretokenEnd(s, i)
		out = append(out, s[i:end])
		i = end
	}
	return out
}

// Byte classes of the pre-tokenizer.
const (
	classLetter = iota
	classDigit
	classSpace
	classOther // punctuation and every byte >= 0x80
)

func byteClass(b byte) int {
	switch {
	case b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z':
		return classLetter
	case b >= '0' && b <= '9':
		return classDigit
	case b == ' ' || b == '\t' || b == '\n' || b == '\r':
		return classSpace
	default:
		return classOther
	}
}

// pretokenEnd returns the end of the pre-token that starts at s[i], for
// i < len(s): a run of one byte class, with a single leading space glued onto
// a following non-space run. It is the only statement of the pre-token rule;
// Encode, Canonical and Pretokenize all scan with it.
func pretokenEnd[S string | []byte](s S, i int) int {
	if s[i] == ' ' && i+1 < len(s) && byteClass(s[i+1]) != classSpace {
		i++
	}
	c := byteClass(s[i])
	for i < len(s) && byteClass(s[i]) == c {
		i++
	}
	return i
}

// Train learns numMerges BPE merges from corpus and returns the tokenizer.
// Training follows the standard BPE procedure (Gage 1994 as adapted for
// GPT-2): pre-tokenize, start from the byte alphabet, repeatedly merge the
// most frequent adjacent pair within pre-tokens. Ties break toward the
// lexicographically smaller pair so training is deterministic.
//
// Pair counts over the distinct pre-tokens (words) are kept across merges: a
// merge recounts only the words that hold its pair, found through the pair's
// word list, and the next pair comes off a max-heap that skips stale counts.
// The merges are those of recounting every pair before each merge.
func Train(corpus []string, numMerges int) *BPE {
	b := &BPE{
		index: make(map[string]int, numByteTokens+numMerges+1),
		ranks: make(map[[2]Token]int, numMerges),
	}
	for i := 0; i < numByteTokens; i++ {
		s := string([]byte{byte(i)})
		b.vocab = append(b.vocab, s)
		b.index[s] = i
	}

	freq := map[string]int{}
	for _, line := range corpus {
		for _, pre := range Pretokenize(line) {
			freq[pre]++
		}
	}
	words := make([]trainWord, 0, len(freq))
	for w, n := range freq {
		toks := make([]Token, len(w))
		for i := range toks {
			toks[i] = Token(w[i])
		}
		words = append(words, trainWord{toks, n})
	}

	stats := map[[2]Token]*pairStat{}
	var changed [][2]Token
	var h pairHeap
	// tally adds sign × the frequency of word w to each pair it holds, files
	// w under every pair that contains tok (every pair, for tok < 0) and
	// queues each pair whose count moved in generation gen.
	tally := func(w, sign, tok, gen int) {
		toks := words[w].toks
		for i := 0; i+1 < len(toks); i++ {
			p := [2]Token{toks[i], toks[i+1]}
			s := stats[p]
			if s == nil {
				s = &pairStat{gen: -1}
				stats[p] = s
			}
			s.count += sign * words[w].count
			if sign > 0 && (tok < 0 || p[0] == tok || p[1] == tok) {
				s.words = append(s.words, int32(w))
			}
			if s.gen != gen {
				s.gen = gen
				changed = append(changed, p)
			}
		}
	}
	requeue := func() {
		for _, p := range changed {
			if s := stats[p]; s.count > 0 {
				heap.Push(&h, pairEntry{s.count, p})
			} else {
				delete(stats, p)
			}
		}
		changed = changed[:0]
	}
	for w := range words {
		tally(w, 1, -1, 0)
	}
	requeue()

	for m := 1; m <= numMerges; m++ {
		best, ok := h.popLive(stats)
		if !ok || best.count < 2 {
			break // no productive merges left
		}
		surface := b.vocab[best.pair[0]] + b.vocab[best.pair[1]]
		id, exists := b.index[surface]
		if !exists {
			id = len(b.vocab)
			b.vocab = append(b.vocab, surface)
			b.index[surface] = id
		}
		// Converging merge paths record the rule against the existing ID.
		b.ranks[best.pair] = len(b.merges)
		b.merges = append(b.merges, mergeRule{best.pair[0], best.pair[1], id})
		for _, w := range stats[best.pair].words {
			if holds(words[w].toks, best.pair) {
				tally(int(w), -1, -1, m)
				words[w].toks = applyMerge(words[w].toks, best.pair, id)
				tally(int(w), 1, id, m)
			}
		}
		requeue()
	}

	b.eos = len(b.vocab)
	b.vocab = append(b.vocab, "") // EOS has empty surface form
	return b
}

// trainWord is a distinct pre-token's tokens so far and its corpus count.
type trainWord struct {
	toks  []Token
	count int
}

// pairStat is a pair's count, the words that have held it since its count
// was last 0, and the merge generation that last queued it for the heap.
type pairStat struct {
	count int
	words []int32
	gen   int
}

// holds reports whether p is adjacent somewhere in toks.
func holds(toks []Token, p [2]Token) bool {
	for i := 0; i+1 < len(toks); i++ {
		if toks[i] == p[0] && toks[i+1] == p[1] {
			return true
		}
	}
	return false
}

// pairEntry is a pair's count when it was pushed; the entry is live while
// the count is still current.
type pairEntry struct {
	count int
	pair  [2]Token
}

// pairHeap orders entries by count, highest first, then by the smaller pair:
// the order the merge loop takes pairs in.
type pairHeap []pairEntry

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	return h[i].count > h[j].count || h[i].count == h[j].count && lessPair(h[i].pair, h[j].pair)
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pairHeap) Push(x any)   { *h = append(*h, x.(pairEntry)) }
func (h *pairHeap) Pop() any {
	e := (*h)[len(*h)-1]
	*h = (*h)[:len(*h)-1]
	return e
}

// popLive pops entries until one whose count is current, and reports false
// when none is left.
func (h *pairHeap) popLive(stats map[[2]Token]*pairStat) (pairEntry, bool) {
	for h.Len() > 0 {
		e := heap.Pop(h).(pairEntry)
		if s := stats[e.pair]; s != nil && s.count == e.count {
			return e, true
		}
	}
	return pairEntry{}, false
}

func lessPair(a, b [2]Token) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func applyMerge(toks []Token, pair [2]Token, result Token) []Token {
	out := toks[:0]
	for i := 0; i < len(toks); {
		if i+1 < len(toks) && toks[i] == pair[0] && toks[i+1] == pair[1] {
			out = append(out, result)
			i += 2
		} else {
			out = append(out, toks[i])
			i++
		}
	}
	return out
}

// Encode produces the canonical encoding by pre-tokenizing and replaying
// learned merges in rank order within each pre-token, exactly as GPT-2's
// tokenizer does. A string of n bytes encodes to at most n tokens, so the
// result is the one allocation. The empty string encodes to nil.
func (b *BPE) Encode(s string) []Token {
	if s == "" {
		return nil
	}
	out := make([]Token, 0, len(s))
	for i := 0; i < len(s); {
		end := pretokenEnd(s, i)
		out = appendChunk(b, out, s[i:end])
		i = end
	}
	return out
}

// EncodeLines returns the encodings of lines, each followed by sep, as one
// slice. A BPE encoding is its pre-tokens' encodings end to end (merges never
// span a pre-token), so each distinct pre-token is encoded once and copied
// where it recurs: a training mix repeats a few hundred pre-tokens thousands
// of times. Any other tokenizer encodes line by line.
func EncodeLines(tok Tokenizer, lines []string, sep Token) []Token {
	var out []Token
	b, ok := tok.(*BPE)
	if !ok {
		for _, line := range lines {
			out = append(append(out, tok.Encode(line)...), sep)
		}
		return out
	}
	spans := map[string][2]int{} // pre-token -> its first encoding, out[lo:hi]
	for _, line := range lines {
		for i := 0; i < len(line); {
			end := pretokenEnd(line, i)
			if span, ok := spans[line[i:end]]; ok {
				out = append(out, out[span[0]:span[1]]...)
			} else {
				lo := len(out)
				out = appendChunk(b, out, line[i:end])
				spans[line[i:end]] = [2]int{lo, len(out)}
			}
			i = end
		}
		out = append(out, sep)
	}
	return out
}

// appendChunk appends the encoding of one pre-token to dst: it appends the
// chunk's bytes, then replays merges in place over the appended tail.
func appendChunk[S string | []byte](b *BPE, dst []Token, chunk S) []Token {
	start := len(dst)
	for i := 0; i < len(chunk); i++ {
		dst = append(dst, Token(chunk[i]))
	}
	for {
		toks := dst[start:]
		// Find the lowest-rank applicable merge.
		bestRank := -1
		for i := 0; i+1 < len(toks); i++ {
			if r, ok := b.ranks[[2]Token{toks[i], toks[i+1]}]; ok {
				if bestRank == -1 || r < bestRank {
					bestRank = r
				}
			}
		}
		if bestRank == -1 {
			return dst
		}
		rule := b.merges[bestRank]
		dst = dst[:start+len(applyMerge(toks, [2]Token{rule.left, rule.right}, rule.result))]
	}
}

// canonScratch is Canonical's working memory: the decoded text and one
// pre-token's encoding. It comes from canonPool and never escapes Canonical.
type canonScratch struct {
	text []byte
	enc  []Token
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

// Canonical reports whether toks is its own encoding: exactly
// Encode(Decode(toks)) == toks. It decodes into pooled scratch, encodes the
// text one pre-token at a time, compares each chunk's encoding with the
// matching span of toks and returns at the first mismatch; a warm pool makes
// it allocation-free. EOS decodes to "" and no encoding contains it, so an
// EOS anywhere in toks makes it false.
func (b *BPE) Canonical(toks []Token) bool {
	sc := canonPool.Get().(*canonScratch)
	defer canonPool.Put(sc)
	text := sc.text[:0]
	for _, t := range toks {
		text = append(text, b.vocab[t]...)
	}
	sc.text = text
	k := 0 // toks[:k] spells the chunks checked so far
	for i := 0; i < len(text); {
		end := pretokenEnd(text, i)
		sc.enc = appendChunk(b, sc.enc[:0], text[i:end])
		if k+len(sc.enc) > len(toks) || !slices.Equal(sc.enc, toks[k:k+len(sc.enc)]) {
			return false
		}
		k += len(sc.enc)
		i = end
	}
	return k == len(toks)
}

// Decode concatenates token surface forms. EOS decodes to "".
func (b *BPE) Decode(toks []Token) string {
	var sb strings.Builder
	for _, t := range toks {
		sb.WriteString(b.vocab[t])
	}
	return sb.String()
}

// TokenBytes returns the surface form of token t.
func (b *BPE) TokenBytes(t Token) string { return b.vocab[t] }

// VocabSize reports the total number of tokens including EOS.
func (b *BPE) VocabSize() int { return len(b.vocab) }

// EOS returns the end-of-sequence token.
func (b *BPE) EOS() Token { return b.eos }

// Fingerprint returns a stable content hash of the tokenizer — vocabulary,
// merge rules in rank order, and EOS. Two BPE instances with the same
// fingerprint produce identical encodings, so the fingerprint is a sound
// compiled-plan cache key component: a plan compiled against one tokenizer
// must never be served to a model wrapping a different one. Computed once
// and memoized; a BPE is immutable after Train/LoadBPE.
func (b *BPE) Fingerprint() string {
	b.fpOnce.Do(func() {
		h := sha256.New()
		var buf [8]byte
		writeStr := func(s string) {
			binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
			h.Write(buf[:])
			h.Write([]byte(s))
		}
		writeInt := func(v int) {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		writeInt(len(b.vocab))
		for _, s := range b.vocab {
			writeStr(s)
		}
		writeInt(len(b.merges))
		for _, m := range b.merges {
			writeInt(m.left)
			writeInt(m.right)
			writeInt(m.result)
		}
		writeInt(b.eos)
		b.fp = hex.EncodeToString(h.Sum(nil)[:16])
	})
	return b.fp
}

// NumMerges reports how many merge rules were learned.
func (b *BPE) NumMerges() int { return len(b.merges) }

// TokenID returns the ID of the token with the given surface form, if any.
func (b *BPE) TokenID(surface string) (Token, bool) {
	t, ok := b.index[surface]
	return t, ok
}

// MultiByteTokens returns all tokens whose surface form is longer than one
// byte, sorted by ID. These are the "shortcut" candidates of Appendix B.
func (b *BPE) MultiByteTokens() []Token {
	var out []Token
	for id, s := range b.vocab {
		if len(s) > 1 {
			out = append(out, id)
		}
	}
	return out
}

// MaxTokenLen returns the longest surface form length (the paper's m_max).
func (b *BPE) MaxTokenLen() int {
	m := 1
	for _, s := range b.vocab {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// IsCanonical reports whether toks is exactly the canonical encoding of the
// string it spells, allowing one trailing EOS. EOS anywhere else makes a
// sequence non-canonical (Canonical rejects it).
func IsCanonical(b *BPE, toks []Token) bool {
	if n := len(toks); n > 0 && toks[n-1] == b.eos {
		toks = toks[:n-1]
	}
	return b.Canonical(toks)
}

// String summarizes the tokenizer.
func (b *BPE) String() string {
	return fmt.Sprintf("BPE{vocab: %d, merges: %d, maxTokenLen: %d}",
		len(b.vocab), len(b.merges), b.MaxTokenLen())
}

// Greedy is a longest-match-first encoder over an existing BPE vocabulary.
// It serves as the alternative canonicalizer discussed in DESIGN.md (the
// WordPiece-style rule) and as a test oracle: both encoders must round-trip
// Decode∘Encode = identity.
type Greedy struct {
	b    *BPE
	trie *Trie
}

// NewGreedy builds a greedy longest-match encoder over b's vocabulary.
func NewGreedy(b *BPE) *Greedy {
	return &Greedy{b: b, trie: b.Trie()}
}

// Encode tokenizes by repeatedly taking the longest vocabulary entry that
// prefixes the remaining input. Single bytes are always in the vocabulary,
// so encoding never fails.
func (g *Greedy) Encode(s string) []Token {
	var out []Token
	for i := 0; i < len(s); {
		n := int32(0)
		bestTok, bestLen := -1, 0
		for j := i; j < len(s); j++ {
			child, ok := g.trie.Child(n, s[j])
			if !ok {
				break
			}
			n = child
			if tok := g.trie.Token(n); tok >= 0 {
				bestTok, bestLen = tok, j-i+1
			}
		}
		if bestTok < 0 {
			// Unreachable: byte tokens always match.
			bestTok, bestLen = int(s[i]), 1
		}
		out = append(out, bestTok)
		i += bestLen
	}
	return out
}

// Decode delegates to the underlying vocabulary.
func (g *Greedy) Decode(toks []Token) string { return g.b.Decode(toks) }

// TokenBytes delegates to the underlying vocabulary.
func (g *Greedy) TokenBytes(t Token) string { return g.b.TokenBytes(t) }

// VocabSize delegates to the underlying vocabulary.
func (g *Greedy) VocabSize() int { return g.b.VocabSize() }

// EOS delegates to the underlying vocabulary.
func (g *Greedy) EOS() Token { return g.b.EOS() }
