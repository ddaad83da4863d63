package compiler

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/automaton"
	"repro/internal/regex"
	"repro/internal/tokenizer"
)

func testBPE(t testing.TB) *tokenizer.BPE {
	t.Helper()
	corpus := []string{
		"The cat sat on the mat. The cat was trained in art.",
		"The dog was trained in science. The dog sat.",
		"The The The the the cat cat dog dog",
		"Theory of The Thing. he he he Th Th",
	}
	return tokenizer.Train(corpus, 150)
}

// decodePath converts a token sequence to its surface string.
func decodePath(bpe *tokenizer.BPE, seq []automaton.Symbol) string {
	return bpe.Decode(seq)
}

func TestCompileFullPreservesLanguage(t *testing.T) {
	// Every token path in the full automaton must decode to a string in the
	// original language, and every original string must be reachable both as
	// bytes and via shortcuts.
	bpe := testBPE(t)
	char := regex.MustCompile("The ((cat)|(dog))")
	full := CompileFull(char, bpe)
	seqs := full.Enumerate(16, 0)
	if len(seqs) == 0 {
		t.Fatal("full automaton accepts nothing")
	}
	for _, seq := range seqs {
		s := decodePath(bpe, seq)
		if s != "The cat" && s != "The dog" {
			t.Fatalf("full automaton accepts %q (tokens %v)", s, seq)
		}
	}
	// The canonical encodings must be among the accepted paths.
	for _, s := range []string{"The cat", "The dog"} {
		if !full.MatchSymbols(bpe.Encode(s)) {
			t.Errorf("full automaton rejects canonical encoding of %q", s)
		}
	}
	// The pure byte paths must also be accepted.
	for _, s := range []string{"The cat", "The dog"} {
		raw := make([]automaton.Symbol, len(s))
		for i := 0; i < len(s); i++ {
			raw[i] = int(s[i])
		}
		if !full.MatchSymbols(raw) {
			t.Errorf("full automaton rejects byte encoding of %q", s)
		}
	}
}

func TestCompileFullAmbiguityGrowth(t *testing.T) {
	// §3.2: "The" has 4 encodings when T,h,e,Th,he,The are tokens: T-h-e,
	// Th-e, T-he, The. Build a vocabulary guaranteeing those tokens exist and
	// count paths.
	// Each line is its own pre-token, so merges for Th, he, and The are all
	// learned without leading spaces.
	corpus := []string{"The", "Th", "he", "The", "Th", "he", "The", "Th", "he", "The", "Th", "he"}
	bpe := tokenizer.Train(corpus, 60)
	for _, w := range []string{"Th", "he", "The"} {
		if _, ok := bpe.TokenID(w); !ok {
			t.Skipf("vocab lacks %q; corpus too small", w)
		}
	}
	char := regex.MustCompile("The")
	full := CompileFull(char, bpe)
	n := CountEncodings(full.Freeze(), 3)
	if n != 4 {
		t.Errorf("encodings of 'The' = %d, want 4 (T-h-e, Th-e, T-he, The)", n)
	}
}

func TestCompileFullMatchesNaive(t *testing.T) {
	// Ablation invariant: the walk over the tokenizer's shared trie and the
	// naive Algorithm-2 construction produce the same automaton — the same
	// states, edges and order, not merely the same language — on three
	// vocabularies, and from eight goroutines that meet on a tokenizer whose
	// trie nobody has built yet (run under -race).
	tiny := tokenizer.Train([]string{"The", "Th", "he", "The", "Th", "he", "The", "Th", "he"}, 60)
	wide := tokenizer.Train([]string{
		"https://www.example.com/a-b_c https://www.test.org/x%20y",
		"the theory of the thing; then there, thence: they thaw",
		"0123 456 789 00 11 22 2023-05-15 12:30",
	}, 400)
	for name, bpe := range map[string]*tokenizer.BPE{"words": testBPE(t), "tiny": tiny, "wide": wide} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, pattern := range []string{
					"The ((cat)|(dog))",
					"[a-z]{1,4}",
					"(he)+",
					"https://www.([a-z]|_|-|%)+",
				} {
					char := regex.MustCompile(pattern)
					fast, naive := CompileFull(char, bpe), CompileFullNaive(char, bpe)
					if fast.NumStates() != naive.NumStates() || fast.Start() != naive.Start() {
						t.Errorf("%s %q: %v vs naive %v", name, pattern, fast, naive)
						continue
					}
					for s := 0; s < fast.NumStates(); s++ {
						if fast.Accepting(s) != naive.Accepting(s) || !slices.Equal(fast.Edges(s), naive.Edges(s)) {
							t.Errorf("%s %q: state %d differs from the naive construction", name, pattern, s)
							break
						}
					}
				}
			}()
		}
		wg.Wait()
	}
}

func TestCompileCanonical(t *testing.T) {
	bpe := testBPE(t)
	char := regex.MustCompile("The ((cat)|(dog))")
	canon, err := CompileCanonical(char, bpe, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	seqs := canon.Enumerate(16, 0)
	if len(seqs) != 2 {
		t.Fatalf("canonical automaton has %d paths, want exactly 2", len(seqs))
	}
	for _, seq := range seqs {
		s := decodePath(bpe, seq)
		want := bpe.Encode(s)
		if len(want) != len(seq) {
			t.Fatalf("path for %q is not canonical: %v vs %v", s, seq, want)
		}
		for i := range seq {
			if seq[i] != want[i] {
				t.Fatalf("path for %q is not canonical: %v vs %v", s, seq, want)
			}
		}
	}
}

func TestCanonicalIsSubsetOfFull(t *testing.T) {
	bpe := testBPE(t)
	char := regex.MustCompile("The ((cat)|(dog))")
	full := CompileFull(char, bpe)
	canon, err := CompileCanonical(char, bpe, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	alpha := full.Alphabet()
	if !automaton.Difference(canon, full, alpha).IsEmpty() {
		t.Error("canonical automaton accepts sequences outside the full automaton")
	}
	if automaton.Equivalent(canon, full) {
		t.Error("canonical and full automata should differ (ambiguity exists)")
	}
}

func TestCompileCanonicalTooLarge(t *testing.T) {
	bpe := testBPE(t)
	char := regex.MustCompile("[a-z]{1,8}")
	_, err := CompileCanonical(char, bpe, 8, 100)
	if err == nil {
		t.Fatal("expected ErrLanguageTooLarge")
	}
}

func TestCanonicalFilter(t *testing.T) {
	bpe := testBPE(t)
	f := NewCanonicalFilter(bpe)
	canon := bpe.Encode("The cat sat on the mat.")
	if !f.AllowFinal(canon) {
		t.Error("canonical encoding rejected by AllowFinal")
	}
	for i := 1; i <= len(canon); i++ {
		if !f.AllowPartial(canon[:i]) {
			t.Errorf("canonical prefix of length %d rejected by AllowPartial", i)
		}
	}
	// A byte-spelled sequence of a mergeable string should be pruned once the
	// unstable window passes.
	s := "The cat sat"
	if len(bpe.Encode(s)) == len(s) {
		t.Skip("string not mergeable under this vocab")
	}
	raw := make([]tokenizer.Token, len(s))
	for i := 0; i < len(s); i++ {
		raw[i] = int(s[i])
	}
	if f.AllowPartial(raw) {
		t.Error("byte spelling of mergeable string should fail AllowPartial")
	}
	if f.AllowFinal(raw) {
		t.Error("byte spelling of mergeable string should fail AllowFinal")
	}
}

func TestIsPairCanonical(t *testing.T) {
	// A two-token sequence is canonical exactly when re-encoding its text
	// gives it back; the filter's final verdict must say the same.
	bpe := testBPE(t)
	f := NewCanonicalFilter(bpe)
	if _, ok := bpe.TokenID("he"); !ok {
		t.Fatal("test vocab lacks the 'he' merge")
	}
	he := []tokenizer.Token{'h', 'e'}
	if bpe.Canonical(he) || f.AllowFinal(he) {
		t.Error("(h, e) should be non-canonical when 'he' is a token")
	}
	qz := []tokenizer.Token{'q', 'z'}
	if !bpe.Canonical(qz) || !f.AllowFinal(qz) {
		t.Error("(q, z) should be canonical (no qz merge in this vocab)")
	}
}

func TestCanonicalFilterAgreesWithEnumeration(t *testing.T) {
	// Ground truth: traversing the full automaton under the dynamic filter
	// must accept exactly the canonical automaton's language.
	bpe := testBPE(t)
	char := regex.MustCompile("((cat)|(dog)|(The cat)|(The dog)|(sat))")
	full := CompileFull(char, bpe)
	canon, err := CompileCanonical(char, bpe, 16, 1000)
	if err != nil {
		t.Fatal(err)
	}
	f := NewCanonicalFilter(bpe)
	var accepted [][]automaton.Symbol
	for _, seq := range full.Enumerate(16, 0) {
		ok := true
		for i := 1; i <= len(seq); i++ {
			if !f.AllowPartial(seq[:i]) {
				ok = false
				break
			}
		}
		if ok && f.AllowFinal(seq) {
			accepted = append(accepted, seq)
		}
	}
	got := automaton.FromSymbolSeqs(accepted)
	if !automaton.Equivalent(got, canon) {
		t.Error("dynamic canonical filter disagrees with enumerate-and-encode")
	}
}

func TestShortcutEdgeCount(t *testing.T) {
	// Shortcut insertion must add at least one multi-byte edge for a trained
	// word, and never change the state count.
	bpe := testBPE(t)
	char := regex.MustCompile("The")
	full := CompileFull(char, bpe)
	if full.NumStates() != char.NumStates() {
		t.Errorf("shortcut insertion changed state count: %d -> %d", char.NumStates(), full.NumStates())
	}
	if full.NumEdges() <= char.NumEdges() {
		t.Error("no shortcut edges were added for a trained word")
	}
}

func TestFullAutomatonInfiniteLanguage(t *testing.T) {
	// Shortcuts must work on cyclic automata too: (he)+ has unbounded
	// strings; the 'he' token shortcut spans the cycle.
	bpe := testBPE(t)
	if _, ok := bpe.TokenID("he"); !ok {
		t.Skip("vocab lacks 'he'")
	}
	char := regex.MustCompile("(he)+")
	full := CompileFull(char, bpe)
	heTok, _ := bpe.TokenID("he")
	// The token path [he, he] must be accepted.
	if !full.MatchSymbols([]automaton.Symbol{heTok, heTok}) {
		t.Error("full automaton rejects he-token path on cyclic language")
	}
}
