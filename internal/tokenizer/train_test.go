package tokenizer

import (
	"math/rand"
	"strings"
	"testing"
)

// randomCorpus builds a small corpus out of pieces that stress the trainer:
// runs of one letter (aaaa, whose pairs overlap), repeated units (abab,
// abcabc), short words over two letters (many tied counts), digit runs,
// punctuation, bytes of 0x80 and above, and space runs, so every pre-token
// class occurs. Some lines repeat, so counts pass 1 and tie.
func randomCorpus(rng *rand.Rand) []string {
	pick := func(alphabet string, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	piece := func() string {
		switch rng.Intn(7) {
		case 0:
			return strings.Repeat(pick("abc", 1), 1+rng.Intn(8))
		case 1:
			return strings.Repeat("abc"[:2+rng.Intn(2)], 1+rng.Intn(4))
		case 2:
			return pick("xy", 1+rng.Intn(4))
		case 3:
			return pick("0123", 1+rng.Intn(5))
		case 4:
			return pick(".,!-", 1+rng.Intn(3))
		case 5:
			return pick("\x80\xc3\xa9\xff", 1+rng.Intn(4))
		default:
			return pick(" \t\n\r", 1+rng.Intn(3))
		}
	}
	lines := make([]string, 1+rng.Intn(6))
	for i := range lines {
		var sb strings.Builder
		for n := rng.Intn(8); n >= 0; n-- {
			if rng.Intn(2) == 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(piece())
		}
		lines[i] = sb.String()
	}
	for n := rng.Intn(4); n > 0; n-- {
		lines = append(lines, lines[rng.Intn(len(lines))])
	}
	return lines
}

// TestTrainMatchesReference holds the incremental trainer to the reference
// on 600 seeded random corpora, each at no merges, a few, and more than the
// corpus can take: the same vocabulary, merge rules in the same order and
// the same EOS, which is what the fingerprint hashes.
func TestTrainMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	exhausted := 0
	for trial := 0; trial < 600; trial++ {
		corpus := randomCorpus(rng)
		for _, n := range []int{0, 1 + rng.Intn(24), 10000} {
			got, want := Train(corpus, n), trainReference(corpus, n)
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("trial %d, %d merges: Train learned %d merges %v, reference %d %v\ncorpus %q",
					trial, n, got.NumMerges(), got.merges, want.NumMerges(), want.merges, corpus)
			}
			if got.NumMerges() < n {
				exhausted++
			}
		}
	}
	if exhausted < 600 {
		t.Errorf("only %d runs ran out of productive merges; the corpora do not reach exhaustion", exhausted)
	}
}

// FuzzTrain holds the incremental trainer to the reference on arbitrary
// text, one corpus line per input line. The seed corpus is
// testdata/fuzz/FuzzTrain.
func FuzzTrain(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string, merges uint16) {
		corpus := strings.Split(text, "\n")
		n := int(merges % 1024)
		got, want := Train(corpus, n), trainReference(corpus, n)
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("%d merges: Train learned %v, reference %v", n, got.merges, want.merges)
		}
	})
}
