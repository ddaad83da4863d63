package compiler

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/automaton"
	"repro/internal/regex"
	"repro/internal/tokenizer"
)

// randomFinitePattern builds a small disjunction-of-literals pattern over a
// limited alphabet, guaranteed finite and enumerable. In about half the
// trials a run of two or three spaces and a word follow the disjunction, as
// in "(<disjunction>)  (cat)": a space run before a word is where the
// pre-tokenizer, not a merge, sets a token boundary.
func randomFinitePattern(rng *rand.Rand) (pattern string, members []string) {
	alpha := "catdoghes "
	n := 1 + rng.Intn(4)
	seen := map[string]bool{}
	var opts []string
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(6)
		b := make([]byte, l)
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		s := strings.TrimSpace(string(b))
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		opts = append(opts, s)
	}
	if len(opts) == 0 {
		opts = []string{"cat"}
	}
	pattern = alternation(opts)
	if rng.Intn(2) == 0 {
		tail := strings.Repeat(" ", 2+rng.Intn(2)) + []string{"cat", "dog", "the"}[rng.Intn(3)]
		pattern = "(" + pattern + ")" + regex.Escape(tail)
		for i := range opts {
			opts[i] += tail
		}
	}
	return pattern, opts
}

// alternation is the pattern matching exactly the literals lits.
func alternation(lits []string) string {
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = "(" + regex.Escape(l) + ")"
	}
	return strings.Join(parts, "|")
}

// checkAgainstOracle holds both canonical constructions to a brute-force
// oracle on a finite pattern: its canonical encodings are exactly the
// CompileFull paths that tokenizer.IsCanonical accepts. CompileCanonical must
// accept that set and nothing else; the runtime filter's AllowFinal must
// agree with it on every full path, and AllowPartial must keep every prefix
// of a canonical one.
func checkAgainstOracle(t *testing.T, bpe *tokenizer.BPE, pattern string) {
	t.Helper()
	char := regex.MustCompile(pattern)
	canon, err := CompileCanonical(char, bpe, 64, 50000)
	if err != nil {
		t.Fatalf("%q: %v", pattern, err)
	}
	f := NewCanonicalFilter(bpe)
	var oracle [][]automaton.Symbol
	for _, seq := range CompileFull(char, bpe).Enumerate(64, 0) {
		want := tokenizer.IsCanonical(bpe, seq)
		if got := canon.MatchSymbols(seq); got != want {
			t.Fatalf("%q: enumeration accepts %v (%q): %v, re-encoding says %v", pattern, seq, bpe.Decode(seq), got, want)
		}
		if got := f.AllowFinal(seq); got != want {
			t.Fatalf("%q: AllowFinal(%v) = %v, re-encoding says %v", pattern, seq, got, want)
		}
		if !want {
			continue
		}
		oracle = append(oracle, seq)
		for i := 1; i <= len(seq); i++ {
			if !f.AllowPartial(seq[:i]) {
				t.Fatalf("%q: canonical prefix %v of %q pruned", pattern, seq[:i], bpe.Decode(seq))
			}
		}
	}
	if !automaton.Equivalent(canon, automaton.FromSymbolSeqs(oracle)) {
		t.Fatalf("%q: enumeration accepts a sequence that is not a full path", pattern)
	}
}

// spaceRunCases are the fixed patterns with a space run before a word, on
// which judging each token pair alone drops canonical encodings.
var spaceRunCases = []string{"the  cat", "(a ee)|(d ea)|(ds   s)"}

func TestPropertyFullAutomatonSoundAndComplete(t *testing.T) {
	// For random finite languages:
	//  - soundness: every token path in the full automaton decodes to a
	//    member string;
	//  - completeness: for every member, both the canonical encoding and
	//    the raw byte spelling are accepted.
	bpe := testBPE(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		pattern, members := randomFinitePattern(rng)
		memberSet := map[string]bool{}
		for _, m := range members {
			memberSet[m] = true
		}
		char := regex.MustCompile(pattern)
		full := CompileFull(char, bpe)
		for _, seq := range full.Enumerate(12, 500) {
			if !memberSet[bpe.Decode(seq)] {
				t.Fatalf("trial %d (%s): full automaton accepts %v decoding to %q",
					trial, pattern, seq, bpe.Decode(seq))
			}
		}
		for _, m := range members {
			if !full.MatchSymbols(bpe.Encode(m)) {
				t.Fatalf("trial %d: canonical encoding of %q rejected", trial, m)
			}
			raw := make([]automaton.Symbol, len(m))
			for i := 0; i < len(m); i++ {
				raw[i] = int(m[i])
			}
			if !full.MatchSymbols(raw) {
				t.Fatalf("trial %d: byte spelling of %q rejected", trial, m)
			}
		}
	}
}

func TestPropertyCanonicalStrategiesAgree(t *testing.T) {
	// Enumerate-and-encode and the runtime filter must both agree with the
	// re-encoding oracle, on the fixed space-run cases and on random finite
	// languages.
	bpe := testBPE(t)
	for _, pattern := range spaceRunCases {
		checkAgainstOracle(t, bpe, pattern)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		pattern, _ := randomFinitePattern(rng)
		checkAgainstOracle(t, bpe, pattern)
	}
}

// FuzzCanonicalConstruction is TestPropertyCanonicalStrategiesAgree on
// fuzzed languages: the input, split at '|', gives up to four literals of at
// most ten bytes, each byte mapped into a small alphabet with ' ' and '.', so
// space runs and punctuation meet words. The seed corpus is under
// testdata/fuzz/FuzzCanonicalConstruction.
func FuzzCanonicalConstruction(f *testing.F) {
	bpe := testBPE(f)
	const alpha = "acdeghost ."
	f.Fuzz(func(t *testing.T, s string) {
		var lits []string
		for _, lit := range strings.Split(s, "|") {
			if len(lit) > 10 {
				return
			}
			b := []byte(lit)
			for i, c := range b {
				if strings.IndexByte(alpha, c) < 0 {
					b[i] = alpha[int(c)%len(alpha)]
				}
			}
			if len(b) > 0 {
				lits = append(lits, string(b))
			}
		}
		if len(lits) == 0 || len(lits) > 4 {
			return
		}
		checkAgainstOracle(t, bpe, alternation(lits))
	})
}

func TestPropertyEveryFullPathFiltersConsistently(t *testing.T) {
	// The dynamic canonical filter must accept exactly the canonical
	// sequences among the full automaton's paths.
	bpe := testBPE(t)
	f := NewCanonicalFilter(bpe)
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 15; trial++ {
		pattern, _ := randomFinitePattern(rng)
		char := regex.MustCompile(pattern)
		full := CompileFull(char, bpe)
		for _, seq := range full.Enumerate(10, 300) {
			want := tokenizer.IsCanonical(bpe, seq)
			got := f.AllowFinal(seq)
			if got != want {
				t.Fatalf("trial %d: AllowFinal(%v) = %v, IsCanonical = %v", trial, seq, got, want)
			}
			if want {
				// Canonical sequences must survive every partial check.
				for i := 1; i <= len(seq); i++ {
					if !f.AllowPartial(seq[:i]) {
						t.Fatalf("trial %d: canonical prefix %v pruned", trial, seq[:i])
					}
				}
			}
		}
	}
}

// randomBPE trains a tokenizer on a seeded random corpus over a small
// alphabet, so vocabularies differ from trial to trial.
func randomBPE(rng *rand.Rand) *tokenizer.BPE {
	alpha := "abcde  ."
	corpus := make([]string, 6)
	for i := range corpus {
		b := make([]byte, 20+rng.Intn(40))
		for j := range b {
			b[j] = alpha[rng.Intn(len(alpha))]
		}
		corpus[i] = string(b)
	}
	return tokenizer.Train(corpus, 10+rng.Intn(50))
}

func TestPropertyOneVerdictCoversEveryChild(t *testing.T) {
	// The traversal asks the filter once per expanded node. That is sound
	// only if AllowPartial(parent+tok) is the same for every tok in the
	// vocabulary — check it exhaustively on random vocabularies and random
	// token sequences, canonical and not.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		bpe := randomBPE(rng)
		f := NewCanonicalFilter(bpe)
		for seqs := 0; seqs < 40; seqs++ {
			parent := make([]tokenizer.Token, rng.Intn(7))
			for i := range parent {
				parent[i] = rng.Intn(bpe.VocabSize())
			}
			if rng.Intn(2) == 0 { // half the parents are canonical encodings
				parent = bpe.Encode(bpe.Decode(parent))
			}
			verdict := f.AllowChildren(parent)
			for tok := 0; tok < bpe.VocabSize(); tok++ {
				child := append(append([]tokenizer.Token{}, parent...), tok)
				if got := f.AllowPartial(child); got != verdict {
					t.Fatalf("trial %d: AllowChildren(%v) = %v but AllowPartial(%v) = %v", trial, parent, verdict, child, got)
				}
			}
			if got, want := f.AllowFinal(parent), tokenizer.IsCanonical(bpe, parent); got != want {
				t.Fatalf("trial %d: AllowFinal(%v) = %v, IsCanonical = %v", trial, parent, got, want)
			}
		}
	}
	var none *CanonicalFilter
	if !none.AllowChildren([]tokenizer.Token{1, 2, 3}) || !none.AllowFinal([]tokenizer.Token{1, 2, 3}) {
		t.Fatal("a nil filter must allow everything")
	}
}

// canonAndSplit returns encodings of random word sequences; about half have
// one token re-spelled as its bytes, which the filter must reject.
func canonAndSplit(bpe *tokenizer.BPE, rng *rand.Rand, n int) [][]tokenizer.Token {
	words := []string{"The", " cat", " sat", " on", " the", " mat", ".", " dog", " trained", "  ", " 42"}
	seqs := make([][]tokenizer.Token, n)
	for i := range seqs {
		var sb strings.Builder
		for k := rng.Intn(12); k > 0; k-- {
			sb.WriteString(words[rng.Intn(len(words))])
		}
		seq := bpe.Encode(sb.String())
		if k := len(seq); k > 0 && rng.Intn(2) == 0 {
			k = rng.Intn(k)
			var spelled []tokenizer.Token
			for _, c := range []byte(bpe.TokenBytes(seq[k])) {
				spelled = append(spelled, int(c))
			}
			seq = slices.Concat(seq[:k], spelled, seq[k+1:])
		}
		seqs[i] = seq
	}
	return seqs
}

// TestCanonicalCheckAllocatesNothing: on a warm scratch pool the filter's
// verdicts and Canonical allocate nothing, and Encode allocates only its
// result.
func TestCanonicalCheckAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	bpe := testBPE(t)
	f := NewCanonicalFilter(bpe)
	const text = "The cat sat on the mat. The dog was trained in science 42."
	canon := bpe.Encode(text)
	final := append(slices.Clone(canon), bpe.EOS())
	split := canonAndSplit(bpe, rand.New(rand.NewSource(47)), 16)
	for _, c := range []struct {
		name string
		max  float64
		call func()
	}{
		{"AllowChildren", 0, func() { f.AllowChildren(canon) }},
		{"AllowChildren/split", 0, func() {
			for _, s := range split {
				f.AllowChildren(s)
			}
		}},
		{"AllowFinal", 0, func() { f.AllowFinal(final) }},
		{"Canonical", 0, func() { bpe.Canonical(canon) }},
		{"Encode", 1, func() { bpe.Encode(text) }},
	} {
		if got := testing.AllocsPerRun(100, c.call); got > c.max {
			t.Errorf("%s: %.1f allocations per call, want <= %.0f", c.name, got, c.max)
		}
	}
}

// TestCanonicalFilterSharedAcrossGoroutines: concurrent expand slots ask one
// filter, and each call borrows pooled scratch. Eight goroutines must get the
// verdicts a serial run gets.
func TestCanonicalFilterSharedAcrossGoroutines(t *testing.T) {
	bpe := testBPE(t)
	f := NewCanonicalFilter(bpe)
	seqs := canonAndSplit(bpe, rand.New(rand.NewSource(43)), 400)
	verdicts := func() []bool {
		out := make([]bool, 0, 2*len(seqs))
		for _, s := range seqs {
			out = append(out, f.AllowChildren(s), f.AllowFinal(s))
		}
		return out
	}
	want := verdicts()
	if !slices.Contains(want, true) || !slices.Contains(want, false) {
		t.Fatal("the sequences no longer exercise both verdicts")
	}
	got := make([][]bool, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = verdicts()
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Fatalf("goroutine %d: verdicts differ from the serial run", g)
		}
	}
}
