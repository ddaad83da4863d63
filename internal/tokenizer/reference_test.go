package tokenizer

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The reference encoder is the tokenizer as first written: a slice of
// pre-tokens, one token slice per chunk with its own merge loop, and
// canonicality as re-encoding the decoded text. It shares nothing with
// Encode and Canonical but the trained vocabulary and merge table, so the
// checks below hold the allocation-free scanner, merge loop and chunked check
// to it.

func refPretokenize(s string) []string {
	var out []string
	i := 0
	class := func(b byte) int {
		switch {
		case b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z':
			return 0 // letter
		case b >= '0' && b <= '9':
			return 1 // digit
		case b == ' ' || b == '\t' || b == '\n' || b == '\r':
			return 2 // space
		default:
			return 3 // punctuation / other
		}
	}
	for i < len(s) {
		start := i
		// A single leading space glues onto a following non-space run.
		if s[i] == ' ' && i+1 < len(s) && class(s[i+1]) != 2 {
			i++
		}
		c := class(s[i])
		for i < len(s) && class(s[i]) == c {
			i++
		}
		out = append(out, s[start:i])
	}
	return out
}

func refEncodeChunk(b *BPE, s string) []Token {
	toks := make([]Token, len(s))
	for i := 0; i < len(s); i++ {
		toks[i] = int(s[i])
	}
	for {
		bestRank := -1
		for i := 0; i+1 < len(toks); i++ {
			if r, ok := b.ranks[[2]Token{toks[i], toks[i+1]}]; ok && (bestRank == -1 || r < bestRank) {
				bestRank = r
			}
		}
		if bestRank == -1 {
			return toks
		}
		rule := b.merges[bestRank]
		var merged []Token
		for i := 0; i < len(toks); i++ {
			if i+1 < len(toks) && toks[i] == rule.left && toks[i+1] == rule.right {
				merged = append(merged, rule.result)
				i++
			} else {
				merged = append(merged, toks[i])
			}
		}
		toks = merged
	}
}

// referenceEncode is the reference for Encode.
func referenceEncode(b *BPE, s string) []Token {
	var out []Token
	for _, pre := range refPretokenize(s) {
		out = append(out, refEncodeChunk(b, pre)...)
	}
	return out
}

// referenceCanonical is the reference for Canonical: Encode(Decode(toks)) ==
// toks, with the reference encoder.
func referenceCanonical(b *BPE, toks []Token) bool {
	return slices.Equal(referenceEncode(b, b.Decode(toks)), toks)
}

// referenceIsCanonical is the reference for IsCanonical: a trailing EOS is
// allowed, one anywhere else is not.
func referenceIsCanonical(b *BPE, toks []Token) bool {
	body := toks
	if n := len(toks); n > 0 && toks[n-1] == b.EOS() {
		body = toks[:n-1]
	}
	if slices.Contains(body, b.EOS()) {
		return false
	}
	return referenceCanonical(b, body)
}

// randomText glues pieces the pre-tokenizer tells apart: whitespace runs,
// single spaces glued onto a word, digit runs, punctuation and bytes >= 0x80.
func randomText(rng *rand.Rand) string {
	pieces := []string{
		" ", "  ", "   ", "\t", "\n", " \n ", "\r\n", " \t",
		"the", "The", "cat", "mat", "dog", "park", "sat", "on", "www", "example", "com", "page", "phone",
		"a", "zq", "x",
		"5", "555", "2023", "0",
		".", "://", "/", "!", ",", "-", "'", "?!",
		"\xff", "\x80", "\xc3\xa9", "日本", "\x00",
	}
	var sb strings.Builder
	for n := rng.Intn(14); n > 0; n-- {
		if rng.Intn(3) == 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(pieces[rng.Intn(len(pieces))])
	}
	return sb.String()
}

// randomSplit spells text as a random sequence of vocabulary tokens: at each
// byte it takes one of the tokens that prefix the rest, so the result may
// re-split a canonical token or join what the merges keep apart.
func randomSplit(b *BPE, text string, rng *rand.Rand) []Token {
	var out []Token
	maxLen := b.MaxTokenLen()
	var cands []Token
	for i := 0; i < len(text); {
		cands = cands[:0]
		for j := i + 1; j <= len(text) && j-i <= maxLen; j++ {
			if t, ok := b.index[text[i:j]]; ok {
				cands = append(cands, t)
			}
		}
		t := cands[rng.Intn(len(cands))]
		out = append(out, t)
		i += len(b.vocab[t])
	}
	return out
}

// CheckAgainstReference holds Encode, Canonical and IsCanonical to the
// reference on n random strings and, for each, its canonical encoding, a
// random re-split, and both with EOS at the end and in the middle.
func CheckAgainstReference(t *testing.T, b *BPE, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	verdicts := map[bool]int{}
	check := func(toks []Token) {
		t.Helper()
		want := referenceCanonical(b, toks)
		verdicts[want]++
		if got := b.Canonical(toks); got != want {
			t.Fatalf("Canonical(%v) = %v, reference %v (text %q)", toks, got, want, b.Decode(toks))
		}
		if got, want := IsCanonical(b, toks), referenceIsCanonical(b, toks); got != want {
			t.Fatalf("IsCanonical(%v) = %v, reference %v (text %q)", toks, got, want, b.Decode(toks))
		}
	}
	check(nil)
	check([]Token{b.EOS()})
	for range n {
		s := randomText(rng)
		// Train pre-tokenizes with the scanner under test, so a broken rule
		// would also shape the merges; check the chunks themselves.
		if got, want := Pretokenize(s), refPretokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Pretokenize(%q) = %q, reference %q", s, got, want)
		}
		canon := referenceEncode(b, s)
		if got := b.Encode(s); !slices.Equal(got, canon) {
			t.Fatalf("Encode(%q) = %v, reference %v", s, got, canon)
		}
		for _, toks := range [][]Token{canon, randomSplit(b, s, rng)} {
			check(toks)
			check(append(slices.Clone(toks), b.EOS()))
			check(slices.Insert(slices.Clone(toks), rng.Intn(len(toks)+1), b.EOS()))
		}
	}
	if verdicts[true] < n/4 || verdicts[false] < n/4 {
		t.Fatalf("verdicts %v: the inputs no longer exercise both outcomes", verdicts)
	}
}

func TestEncodeAndCanonicalMatchReference(t *testing.T) {
	CheckAgainstReference(t, fuzzTokenizer(), 1, 2000)
}
