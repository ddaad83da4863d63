package tokenizer

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

var (
	fuzzTokOnce sync.Once
	fuzzTok     *BPE
)

func fuzzTokenizer() *BPE {
	fuzzTokOnce.Do(func() {
		fuzzTok = Train([]string{
			"the cat sat on the mat",
			"the dog ran in the park",
			"https://www.example.com/page",
			"My phone number is 555 555 5555",
		}, 80)
	})
	return fuzzTok
}

// FuzzEncodeDecodeRoundTrip checks Decode(Encode(s)) == s for arbitrary
// byte strings — the fundamental tokenizer invariant the graph compiler
// relies on (a byte-level BPE must represent every string).
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	for _, s := range []string{"", "the cat", "zzz unseen zzz", "日本語", "\x00\xff", "a b  c"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tok := fuzzTokenizer()
		toks := tok.Encode(s)
		if got := tok.Decode(toks); got != s {
			t.Fatalf("round trip: %q -> %v -> %q", s, toks, got)
		}
		// Canonical encodings must be stable under re-encoding (§3.2).
		if got := tok.Encode(tok.Decode(toks)); len(got) != len(toks) {
			t.Fatalf("canonical encoding unstable for %q", s)
		}
		if !IsCanonical(tok, toks) {
			t.Fatalf("Encode produced a non-canonical sequence for %q", s)
		}
	})
}

// FuzzCanonical holds the pre-tokenizer, Encode, Canonical and IsCanonical to
// the reference encoder on arbitrary text. The split seed spells the text as
// a random token sequence (randomSplit) and, when odd, puts an EOS in it. The
// seed corpus is testdata/fuzz/FuzzCanonical.
func FuzzCanonical(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, seed int64) {
		b := fuzzTokenizer()
		if got, want := Pretokenize(s), refPretokenize(s); !slices.Equal(got, want) {
			t.Fatalf("Pretokenize(%q) = %q, reference %q", s, got, want)
		}
		if got, want := b.Encode(s), referenceEncode(b, s); !slices.Equal(got, want) {
			t.Fatalf("Encode(%q) = %v, reference %v", s, got, want)
		}
		rng := rand.New(rand.NewSource(seed))
		toks := randomSplit(b, s, rng)
		if seed&1 == 1 {
			toks = slices.Insert(toks, rng.Intn(len(toks)+1), b.EOS())
		}
		if got, want := b.Canonical(toks), referenceCanonical(b, toks); got != want {
			t.Fatalf("Canonical(%v) = %v, reference %v (text %q)", toks, got, want, s)
		}
		if got, want := IsCanonical(b, toks), referenceIsCanonical(b, toks); got != want {
			t.Fatalf("IsCanonical(%v) = %v, reference %v (text %q)", toks, got, want, s)
		}
	})
}
