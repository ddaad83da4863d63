package automaton

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// lineDFA builds a DFA accepting exactly the string s.
func lineDFA(s string) *DFA {
	return FromStrings([]string{s})
}

func TestNFADeterminizeSimple(t *testing.T) {
	// (a|ab) — classic nondeterminism.
	n := NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)  // after "a"
	s2 := n.AddState(false) // after "a" on the ab-branch
	s3 := n.AddState(true)  // after "ab"
	n.SetStart(s0)
	n.AddEdge(s0, 'a', s1)
	n.AddEdge(s0, 'a', s2)
	n.AddEdge(s2, 'b', s3)
	d := n.Determinize()
	for _, tc := range []struct {
		in   string
		want bool
	}{
		{"a", true}, {"ab", true}, {"", false}, {"b", false}, {"abb", false},
	} {
		if got := d.MatchString(tc.in); got != tc.want {
			t.Errorf("match %q = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestEpsilonClosure(t *testing.T) {
	n := NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(false)
	s2 := n.AddState(true)
	n.SetStart(s0)
	n.AddEdge(s0, Epsilon, s1)
	n.AddEdge(s1, Epsilon, s2)
	n.AddEdge(s1, 'x', s2)
	d := n.Determinize()
	if !d.MatchString("") {
		t.Error("epsilon chain to accept state should accept empty string")
	}
	if !d.MatchString("x") {
		t.Error("should accept x")
	}
	if d.MatchString("xx") {
		t.Error("should reject xx")
	}
}

func TestDFAStepMissing(t *testing.T) {
	d := lineDFA("hi")
	if _, ok := d.Step(d.Start(), 'z'); ok {
		t.Error("Step on absent symbol should report !ok")
	}
}

func TestDuplicateEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate (state, symbol) edge")
		}
	}()
	d := NewDFA()
	s := d.AddState(false)
	e := d.AddState(true)
	d.AddEdge(s, 'a', e)
	d.AddEdge(s, 'a', e)
}

func TestEpsilonEdgeInDFAPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on epsilon edge in DFA")
		}
	}()
	d := NewDFA()
	s := d.AddState(false)
	d.AddEdge(s, Epsilon, s)
}

func TestIntersect(t *testing.T) {
	a := FromStrings([]string{"cat", "dog", "cow"})
	b := FromStrings([]string{"dog", "cow", "hen"})
	got := Intersect(a, b).EnumerateStrings(10, 0)
	sort.Strings(got)
	want := []string{"cow", "dog"}
	if len(got) != len(want) {
		t.Fatalf("intersection = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("intersection = %v, want %v", got, want)
		}
	}
}

func TestUnion(t *testing.T) {
	a := FromStrings([]string{"a"})
	b := FromStrings([]string{"b"})
	u := Union(a, b)
	for _, s := range []string{"a", "b"} {
		if !u.MatchString(s) {
			t.Errorf("union should accept %q", s)
		}
	}
	if u.MatchString("ab") {
		t.Error("union should reject ab")
	}
}

func TestDifference(t *testing.T) {
	a := FromStrings([]string{"x", "y", "z"})
	b := FromStrings([]string{"y"})
	diff := Difference(a, b, a.Alphabet())
	got := diff.EnumerateStrings(5, 0)
	sort.Strings(got)
	if len(got) != 2 || got[0] != "x" || got[1] != "z" {
		t.Fatalf("difference = %v, want [x z]", got)
	}
}

func TestComplement(t *testing.T) {
	a := FromStrings([]string{"aa"})
	alpha := []Symbol{'a'}
	c := a.Complement(alpha)
	cases := map[string]bool{"": true, "a": true, "aa": false, "aaa": true}
	for in, want := range cases {
		if got := c.MatchString(in); got != want {
			t.Errorf("complement match %q = %v, want %v", in, got, want)
		}
	}
}

func TestConcat(t *testing.T) {
	a := FromStrings([]string{"ab", "a"})
	b := FromStrings([]string{"c", "bc"})
	cat := Concat(a, b)
	for _, s := range []string{"abc", "ac", "abbc", "abc"} {
		if !cat.MatchString(s) {
			t.Errorf("concat should accept %q", s)
		}
	}
	for _, s := range []string{"a", "c", "ab", "abcc"} {
		if cat.MatchString(s) {
			t.Errorf("concat should reject %q", s)
		}
	}
}

func TestMinimizeEquivalence(t *testing.T) {
	// Build a redundant DFA for a(a|b)* and verify minimization preserves the
	// language while shrinking states.
	n := NewNFA()
	s0 := n.AddState(false)
	s1 := n.AddState(true)
	s2 := n.AddState(true) // duplicate of s1
	n.SetStart(s0)
	n.AddEdge(s0, 'a', s1)
	n.AddEdge(s1, 'a', s2)
	n.AddEdge(s1, 'b', s2)
	n.AddEdge(s2, 'a', s1)
	n.AddEdge(s2, 'b', s1)
	d := n.Determinize()
	m := d.Minimize()
	if m.NumStates() >= d.NumStates() && d.NumStates() > 2 {
		t.Errorf("minimize did not shrink: %d -> %d", d.NumStates(), m.NumStates())
	}
	if !Equivalent(d, m) {
		t.Error("minimized DFA not equivalent to original")
	}
	if m.NumStates() != 2 {
		t.Errorf("minimal DFA for a(a|b)* should have 2 states, got %d", m.NumStates())
	}
}

func TestTrimEmptyLanguage(t *testing.T) {
	d := NewDFA()
	s0 := d.AddState(false)
	s1 := d.AddState(false) // dead loop, never accepting
	d.SetStart(s0)
	d.AddEdge(s0, 'a', s1)
	d.AddEdge(s1, 'a', s1)
	tr := d.Trim()
	if !tr.IsEmpty() {
		t.Error("trimmed empty language should be empty")
	}
	if tr.NumStates() != 1 {
		t.Errorf("trim of empty language should leave 1 state, got %d", tr.NumStates())
	}
}

func TestHasCycle(t *testing.T) {
	if lineDFA("abc").HasCycle() {
		t.Error("single-string DFA should be acyclic")
	}
	n := NewNFA()
	s := n.AddState(true)
	n.SetStart(s)
	n.AddEdge(s, 'a', s)
	if !n.Determinize().HasCycle() {
		t.Error("a* should be cyclic")
	}
}

func TestLongestWord(t *testing.T) {
	for _, c := range []struct {
		strs []string
		want int
	}{{nil, 0}, {[]string{""}, 0}, {[]string{"abc"}, 3}, {[]string{"a", "abcd", "xyz"}, 4}} {
		if got := FromStrings(c.strs).LongestWord(); got != c.want {
			t.Errorf("LongestWord(%q) = %d, want %d", c.strs, got, c.want)
		}
	}
	// A dead branch longer than every accepted string does not count.
	n := NewNFA()
	s, acc, dead := n.AddState(false), n.AddState(true), n.AddState(false)
	n.SetStart(s)
	n.AddEdge(s, 'a', acc)
	n.AddEdge(s, 'b', dead)
	n.AddEdge(dead, 'b', n.AddState(false))
	if got := n.Determinize().LongestWord(); got != 1 {
		t.Errorf("LongestWord with a dead branch = %d, want 1", got)
	}
	n = NewNFA()
	s = n.AddState(false)
	n.SetStart(s)
	n.AddEdge(s, 'a', s)
	n.AddEdge(s, 'b', n.AddState(true))
	if got := n.Determinize().LongestWord(); got != -1 {
		t.Errorf("LongestWord(a*b) = %d, want -1", got)
	}
}

func TestEnumerateShortlex(t *testing.T) {
	d := FromStrings([]string{"b", "a", "aa", "ab"})
	got := d.EnumerateStrings(5, 0)
	want := []string{"a", "b", "aa", "ab"}
	if len(got) != len(want) {
		t.Fatalf("enumerate = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("enumerate order = %v, want %v", got, want)
		}
	}
}

func TestEnumerateLimit(t *testing.T) {
	d := FromStrings([]string{"a", "b", "c", "d"})
	got := d.EnumerateStrings(5, 2)
	if len(got) != 2 {
		t.Fatalf("limit ignored: got %d results", len(got))
	}
}

func TestLanguageSize(t *testing.T) {
	d := FromStrings([]string{"a", "bb", "ccc"})
	if got := d.LanguageSize(3); got != 3 {
		t.Errorf("LanguageSize = %d, want 3", got)
	}
	if got := d.LanguageSize(1); got != 1 {
		t.Errorf("LanguageSize(1) = %d, want 1", got)
	}
}

// bigLanguageSize is LanguageSizeOf as it was: the big.Int walk counter, -1
// when the start state's count leaves int64.
func bigLanguageSize(f *Frozen, maxLen int) int64 {
	c := newBigWalkCounter(f, maxLen).Count()
	if !c.IsInt64() {
		return -1
	}
	return c.Int64()
}

// binaryChain has states 0..n with edges 0 and 1 from each state to the
// next; accepting every state counts the strings of length <= maxLen,
// accepting only the last counts those of length exactly n.
func binaryChain(n int, acceptAll bool) *DFA {
	d := NewDFA()
	for i := 0; i <= n; i++ {
		d.AddState(acceptAll || i == n)
	}
	d.SetStart(0)
	for i := 0; i < n; i++ {
		d.AddEdge(i, 0, i+1)
		d.AddEdge(i, 1, i+1)
	}
	return d
}

func TestLanguageSizeMatchesWalkCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	overflowed := 0
	for trial := 0; trial < 150; trial++ {
		d := randomDFA(rng, 2+rng.Intn(15), 1+rng.Intn(6), 5+rng.Intn(60))
		maxLen := rng.Intn(90)
		want := bigLanguageSize(d.Freeze(), maxLen)
		if want < 0 {
			overflowed++
		}
		if got := d.LanguageSize(maxLen); got != want {
			t.Fatalf("trial %d: DFA.LanguageSize(%d) = %d, walk counter says %d", trial, maxLen, got, want)
		}
		if got := LanguageSizeOf(d.Freeze(), maxLen); got != want {
			t.Fatalf("trial %d: LanguageSizeOf(frozen, %d) = %d, walk counter says %d", trial, maxLen, got, want)
		}
	}
	if overflowed < 10 || overflowed > 140 {
		t.Fatalf("%d of 150 trials overflowed: the mix no longer covers both sides", overflowed)
	}

	// The int64 boundary, exactly: 2^63-1 strings of length <= 62, 2^63 of
	// length exactly 63, 2^64-1 of length <= 63.
	for _, c := range []struct {
		d      *Frozen
		maxLen int
		want   int64
	}{
		{binaryChain(62, true).Freeze(), 62, math.MaxInt64},
		{binaryChain(63, false).Freeze(), 63, -1},
		{binaryChain(63, true).Freeze(), 63, -1},
		{binaryChain(63, false).Freeze(), 62, 0},
	} {
		if big := bigLanguageSize(c.d, c.maxLen); big != c.want {
			t.Fatalf("oracle disagrees with the construction: %d, want %d", big, c.want)
		}
		if got := LanguageSizeOf(c.d, c.maxLen); got != c.want {
			t.Errorf("LanguageSizeOf(chain, %d) = %d, want %d", c.maxLen, got, c.want)
		}
	}

	// A state whose count overflows but which the start state never reaches
	// must not turn a small language into "huge".
	d := FromStrings([]string{"a", "bb"})
	loop := d.AddState(true)
	d.AddEdge(loop, 0, loop)
	d.AddEdge(loop, 1, loop)
	if got, want := LanguageSizeOf(d.Freeze(), 100), bigLanguageSize(d.Freeze(), 100); got != 2 || want != 2 {
		t.Errorf("unreachable overflow: LanguageSizeOf = %d, walk counter = %d, want 2", got, want)
	}
}

// sameDraws checks that the table NewWalkCounter builds for d holds the
// big.Int reference's counts and draws what it draws: the same SampleUniform
// and SampleUnnormalized sequences from generators of one seed, which it
// leaves in the same state.
func sameDraws(t *testing.T, name string, d *DFA, maxLen int, seed int64) {
	t.Helper()
	got, ref := NewWalkCounter(d.Freeze(), maxLen), newBigWalkCounter(d.Freeze(), maxLen)
	if got.Count().Cmp(ref.Count()) != 0 {
		t.Fatalf("%s: count %v, big.Int reference %v", name, got.Count(), ref.Count())
	}
	for _, uniform := range []bool{true, false} {
		a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i := 0; i < 40; i++ {
			var x, y []Symbol
			if uniform {
				x, y = got.SampleUniform(a), ref.SampleUniform(b)
			} else {
				x, y = got.SampleUnnormalized(a), ref.SampleUnnormalized(b)
			}
			if !slices.Equal(x, y) || (x == nil) != (y == nil) {
				t.Fatalf("%s: draw %d (uniform %v) = %v, big.Int reference %v", name, i, uniform, x, y)
			}
		}
		if a.Int63() != b.Int63() {
			t.Fatalf("%s: uniform %v left the generator in another state than the reference", name, uniform)
		}
	}
}

// TestWalkCounterWordsDrawLikeBigInt: a table whose counts fit machine words
// keeps them as uint64 and samples exactly as the big.Int table does, so no
// sampled stream can tell the two apart; a table with one count past 2⁶⁴−1
// falls back to big.Int.
func TestWalkCounterWordsDrawLikeBigInt(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var words, cyclicWords, fallback int
	for trial := 0; trial < 150; trial++ {
		d := randomDFA(rng, 2+rng.Intn(15), 1+rng.Intn(6), 5+rng.Intn(60))
		maxLen := rng.Intn(90)
		switch w := NewWalkCounter(d.Freeze(), maxLen); {
		case w.words == nil:
			fallback++
		case d.HasCycle():
			cyclicWords++
			fallthrough
		default:
			words++
		}
		sameDraws(t, fmt.Sprintf("trial %d", trial), d, maxLen, int64(trial))
	}
	if words < 20 || cyclicWords < 10 || fallback < 10 {
		t.Fatalf("the mix took the word table %d times (%d cyclic) and fell back %d times: it no longer covers both paths",
			words, cyclicWords, fallback)
	}

	// The uint64 boundary, exactly: 2⁶⁴−1 strings of length <= 63 fit, so
	// every draw is 8 bytes wide; 2⁶⁵−1 of length <= 64 do not.
	if w := NewWalkCounter(binaryChain(63, true).Freeze(), 63); w.words == nil || w.Count().Cmp(new(big.Int).SetUint64(math.MaxUint64)) != 0 {
		t.Fatalf("2⁶⁴−1 walks: word table %v, count %v", w.words != nil, w.Count())
	}
	if w := NewWalkCounter(binaryChain(64, true).Freeze(), 64); w.words != nil {
		t.Fatal("2⁶⁵−1 walks kept the word table")
	}
	sameDraws(t, "binaryChain(63)", binaryChain(63, true), 63, 1)
	sameDraws(t, "binaryChain(64)", binaryChain(64, true), 64, 1)
}

func TestWalkCounterPaperExample(t *testing.T) {
	// The paper's example: language {a, b, bb, bbb}. Uniform sampling of the
	// first transition is 50/50, but a leads to 1 string and b to 3. The walk
	// counter must weight the b edge at 3/4.
	d := FromStrings([]string{"a", "b", "bb", "bbb"})
	w := NewWalkCounter(d.Freeze(), 3)
	if got := w.Count(); got.Int64() != 4 {
		t.Fatalf("total walks = %v, want 4", got)
	}
	_, probs := w.EdgeProbabilities(d.Start(), 3)
	edges := d.Edges(d.Start())
	for i, e := range edges {
		switch e.Sym {
		case 'a':
			if probs[i] < 0.24 || probs[i] > 0.26 {
				t.Errorf("P(a-edge) = %f, want 0.25", probs[i])
			}
		case 'b':
			if probs[i] < 0.74 || probs[i] > 0.76 {
				t.Errorf("P(b-edge) = %f, want 0.75", probs[i])
			}
		}
	}
}

func TestWalkCounterExact(t *testing.T) {
	d := FromStrings([]string{"a", "b", "bb", "bbb"})
	w := NewWalkCounter(d.Freeze(), 5)
	wantByLen := map[int]int64{0: 0, 1: 2, 2: 1, 3: 1, 4: 0}
	for n, want := range wantByLen {
		if got := w.CountExact(n); got.Int64() != want {
			t.Errorf("CountExact(%d) = %v, want %d", n, got, want)
		}
	}
}

func TestSampleUniformDistribution(t *testing.T) {
	d := FromStrings([]string{"a", "b", "bb", "bbb"})
	w := NewWalkCounter(d.Freeze(), 3)
	rng := rand.New(rand.NewSource(7))
	counts := map[string]int{}
	const trials = 40000
	for i := 0; i < trials; i++ {
		seq := w.SampleUniform(rng)
		b := make([]byte, len(seq))
		for j, s := range seq {
			b[j] = byte(s)
		}
		counts[string(b)]++
	}
	if len(counts) != 4 {
		t.Fatalf("sampled %d distinct strings, want 4: %v", len(counts), counts)
	}
	for s, c := range counts {
		frac := float64(c) / trials
		if frac < 0.22 || frac > 0.28 {
			t.Errorf("P(%q) = %f, want ~0.25", s, frac)
		}
	}
}

func TestSampleUnnormalizedBias(t *testing.T) {
	// Unnormalized sampling over {a, b, bb, bbb} picks 'a' ~50% of the time —
	// the bias Appendix C documents. Verify it differs from uniform.
	d := FromStrings([]string{"a", "b", "bb", "bbb"})
	w := NewWalkCounter(d.Freeze(), 3)
	rng := rand.New(rand.NewSource(7))
	aCount := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		seq := w.SampleUnnormalized(rng)
		if len(seq) == 1 && seq[0] == 'a' {
			aCount++
		}
	}
	frac := float64(aCount) / trials
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("unnormalized P(a) = %f, want ~0.5 (the documented bias)", frac)
	}
}

func TestSampleUniformEmptyLanguage(t *testing.T) {
	d := NewDFA()
	d.SetStart(d.AddState(false))
	w := NewWalkCounter(d.Freeze(), 4)
	if seq := w.SampleUniform(rand.New(rand.NewSource(1))); seq != nil {
		t.Errorf("sampling empty language returned %v", seq)
	}
}

func TestWalkCounterCycle(t *testing.T) {
	// a* unrolled to maxLen 4 has 5 strings: "", a, aa, aaa, aaaa.
	n := NewNFA()
	s := n.AddState(true)
	n.SetStart(s)
	n.AddEdge(s, 'a', s)
	d := n.Determinize()
	w := NewWalkCounter(d.Freeze(), 4)
	if got := w.Count(); got.Int64() != 5 {
		t.Errorf("a* count within length 4 = %v, want 5", got)
	}
}

func TestEquivalent(t *testing.T) {
	a := FromStrings([]string{"ab", "ba"})
	b := FromStrings([]string{"ba", "ab"})
	c := FromStrings([]string{"ab"})
	if !Equivalent(a, b) {
		t.Error("identical languages should be equivalent")
	}
	if Equivalent(a, c) {
		t.Error("different languages should not be equivalent")
	}
}

func TestQuickFromStringsMatchesMembership(t *testing.T) {
	// Property: FromStrings(S) accepts exactly the members of S (restricted
	// to short lowercase strings to keep automata small).
	f := func(raw []string) bool {
		set := map[string]bool{}
		var strs []string
		for _, s := range raw {
			clean := sanitize(s, 6)
			if !set[clean] {
				set[clean] = true
				strs = append(strs, clean)
			}
		}
		if len(strs) == 0 {
			return true
		}
		d := FromStrings(strs)
		for s := range set {
			if !d.MatchString(s) {
				return false
			}
		}
		// Probe a few non-members.
		for _, probe := range []string{"zzzzzzz", "qq", ""} {
			if d.MatchString(probe) != set[probe] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(a, b string) bool {
		sa, sb := sanitize(a, 8), sanitize(b, 8)
		u := Union(FromStrings([]string{sa}), FromStrings([]string{sb}))
		return u.MatchString(sa) && u.MatchString(sb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickMinimizePreservesLanguage(t *testing.T) {
	f := func(raw []string) bool {
		var strs []string
		for _, s := range raw {
			strs = append(strs, sanitize(s, 5))
		}
		if len(strs) == 0 {
			strs = []string{"a"}
		}
		d := FromStrings(strs)
		m := d.Minimize()
		return Equivalent(d, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// sanitize maps arbitrary fuzz input to a short lowercase-letter string so
// automata stay small and deterministic.
func sanitize(s string, maxLen int) string {
	out := make([]byte, 0, maxLen)
	for i := 0; i < len(s) && len(out) < maxLen; i++ {
		out = append(out, 'a'+s[i]%4)
	}
	return string(out)
}

func TestDOTOutput(t *testing.T) {
	d := FromStrings([]string{"ab"})
	dot := d.DOT("test", nil)
	for _, want := range []string{"digraph", "doublecircle", "->"} {
		if !contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}

func contains(haystack, needle string) bool {
	return len(haystack) >= len(needle) && (func() bool {
		for i := 0; i+len(needle) <= len(haystack); i++ {
			if haystack[i:i+len(needle)] == needle {
				return true
			}
		}
		return false
	})()
}

func TestCompleteAddsDeadState(t *testing.T) {
	d := FromStrings([]string{"a"})
	c, dead := d.Complete([]Symbol{'a', 'b'})
	if dead == -1 {
		t.Fatal("expected a dead state")
	}
	if to, ok := c.Step(c.Start(), 'b'); !ok || to != dead {
		t.Error("missing transition should route to dead state")
	}
}

func TestAlphabet(t *testing.T) {
	d := FromStrings([]string{"ba", "ca"})
	got := d.Alphabet()
	want := []Symbol{'a', 'b', 'c'}
	if len(got) != len(want) {
		t.Fatalf("alphabet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alphabet = %v, want %v", got, want)
		}
	}
}
