package levenshtein

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/automaton"
	"repro/internal/regex"
)

// Distance computes the exact Levenshtein distance between two strings with
// the standard dynamic program: the oracle the expansions are held to.
func Distance(a, b string) int {
	la, lb := len(a), len(b)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func TestDistanceOracle(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"cat", "cat", 0},
		{"cat", "cut", 1},
		{"cat", "cats", 1},
		{"cat", "at", 1},
		{"abc", "cba", 2},
	}
	for _, tc := range cases {
		if got := Distance(tc.a, tc.b); got != tc.want {
			t.Errorf("Distance(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestExpandContainsOriginal(t *testing.T) {
	base := automaton.FromStrings([]string{"cat", "dog"})
	exp := Expand(base, []byte("abcdegot"))
	for _, s := range []string{"cat", "dog"} {
		if !exp.MatchString(s) {
			t.Errorf("distance-1 expansion rejects original %q", s)
		}
	}
}

func TestExpandSubstitutionInsertionDeletion(t *testing.T) {
	base := automaton.FromStrings([]string{"cat"})
	alpha := []byte("abcdt")
	exp := Expand(base, alpha)
	yes := []string{
		"cat",  // distance 0
		"bat",  // substitution
		"caat", // insertion
		"ct",   // deletion
		"at",   // deletion of first
		"cata", // insertion at end
	}
	no := []string{
		"dog", // distance 3
		"ca",  // wait: "ca" is distance 1 (delete t) — move to yes
	}
	_ = no
	yes = append(yes, "ca")
	for _, s := range yes {
		if !exp.MatchString(s) {
			t.Errorf("expansion should accept %q (distance %d)", s, Distance("cat", s))
		}
	}
	for _, s := range []string{"dog", "c", "caaat", "xyz"} {
		if exp.MatchString(s) {
			t.Errorf("expansion should reject %q (distance %d)", s, Distance("cat", s))
		}
	}
}

func TestExpandMatchesDistanceOracle(t *testing.T) {
	// Exhaustive agreement on short strings over a tiny alphabet.
	base := automaton.FromStrings([]string{"ab", "ba"})
	alpha := []byte("ab")
	exp := Expand(base, alpha)
	var probe func(prefix string, depth int)
	probe = func(prefix string, depth int) {
		want := Distance(prefix, "ab") <= 1 || Distance(prefix, "ba") <= 1
		if got := exp.MatchString(prefix); got != want {
			t.Errorf("expansion match %q = %v, oracle says %v", prefix, got, want)
		}
		if depth == 0 {
			return
		}
		for _, c := range alpha {
			probe(prefix+string(rune(c)), depth-1)
		}
	}
	probe("", 4)
}

func TestExpandK2ByComposition(t *testing.T) {
	base := automaton.FromStrings([]string{"hello"})
	alpha := []byte("helo")
	exp2 := ExpandK(base, alpha, 2)
	for _, tc := range []struct {
		s    string
		want bool
	}{
		{"hello", true},
		{"hell", true}, // 1 deletion
		{"hel", true},  // 2 deletions
		{"heo", false}, // wait: hello -> helo (del l) -> heo (del l) = 2. Actually distance("hello","heo") = 2.
		{"he", false},  // distance 3
		{"hellooo", true} /* 2 insertions */, {"olleh", false},
	} {
		got := exp2.MatchString(tc.s)
		want := Distance("hello", tc.s) <= 2
		if got != want {
			t.Errorf("ExpandK2 match %q = %v, oracle distance %d", tc.s, got, Distance("hello", tc.s))
		}
		_ = tc.want
	}
}

func TestExpandK0IsIdentity(t *testing.T) {
	base := automaton.FromStrings([]string{"xy", "yz"})
	exp := ExpandK(base, []byte("xyz"), 0)
	if !automaton.Equivalent(base.Minimize(), exp) {
		t.Error("ExpandK(0) changed the language")
	}
}

func TestQuickExpandSoundAndComplete(t *testing.T) {
	// Property: for random base word and probe word over a small alphabet,
	// membership in Expand == (min distance <= 1).
	alpha := []byte("ab")
	rng := rand.New(rand.NewSource(11))
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	for trial := 0; trial < 40; trial++ {
		base := word(1 + rng.Intn(4))
		d := automaton.FromStrings([]string{base})
		exp := Expand(d, alpha)
		for probeTrial := 0; probeTrial < 30; probeTrial++ {
			probe := word(rng.Intn(6))
			got := exp.MatchString(probe)
			want := Distance(base, probe) <= 1
			if got != want {
				t.Fatalf("base %q probe %q: expansion=%v oracle distance=%d",
					base, probe, got, Distance(base, probe))
			}
		}
	}
}

func TestQuickDistanceSymmetry(t *testing.T) {
	f := func(a, b string) bool {
		sa, sb := clip(a, 8), clip(b, 8)
		return Distance(sa, sb) == Distance(sb, sa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceTriangle(t *testing.T) {
	f := func(a, b, c string) bool {
		sa, sb, sc := clip(a, 6), clip(b, 6), clip(c, 6)
		return Distance(sa, sc) <= Distance(sa, sb)+Distance(sb, sc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clip(s string, n int) string {
	out := make([]byte, 0, n)
	for i := 0; i < len(s) && len(out) < n; i++ {
		out = append(out, 'a'+s[i]%3)
	}
	return string(out)
}

func TestEditPositions(t *testing.T) {
	base := automaton.FromStrings([]string{"hello"})
	if got := EditPositions(base, "hello"); got != -1 {
		t.Errorf("EditPositions of member = %d, want -1", got)
	}
	if got := EditPositions(base, "hxllo"); got != 1 {
		t.Errorf("EditPositions(hxllo) = %d, want 1", got)
	}
	if got := EditPositions(base, "xello"); got != 0 {
		t.Errorf("EditPositions(xello) = %d, want 0", got)
	}
	if got := EditPositions(base, "helloz"); got != 5 {
		t.Errorf("EditPositions(helloz) = %d, want 5", got)
	}
}

func TestPrintableASCII(t *testing.T) {
	a := PrintableASCII()
	if len(a) != 95 || a[0] != ' ' || a[len(a)-1] != '~' {
		t.Errorf("PrintableASCII = %d bytes [%c..%c]", len(a), a[0], a[len(a)-1])
	}
}

func TestAlphabetOf(t *testing.T) {
	d := automaton.FromStrings([]string{"ba"})
	got := AlphabetOf(d)
	if len(got) != 2 || got[0] != 'a' || got[1] != 'b' {
		t.Errorf("AlphabetOf = %v", got)
	}
}

func TestSortedAlphabetUnion(t *testing.T) {
	got := SortedAlphabetUnion([]byte("ba"), []byte("cb"))
	if string(got) != "abc" {
		t.Errorf("union = %q, want abc", got)
	}
}

// TestExpandKPrintableMatchesDistanceOracle: over the full printable edit
// alphabet — the compile chain's case — membership in ExpandK(base, k) is
// exactly "within k edits of some base string" by the dynamic-program oracle,
// for single words and 3-way disjunctions, k = 1 and 2. Probes are base
// strings put through zero to k+1 random edits, so both sides of the boundary
// are hit.
func TestExpandKPrintableMatchesDistanceOracle(t *testing.T) {
	alpha := PrintableASCII()
	rng := rand.New(rand.NewSource(15))
	word := func() string {
		b := make([]byte, 1+rng.Intn(5))
		for i := range b {
			b[i] = byte('a' + rng.Intn(4))
		}
		return string(b)
	}
	edit := func(s string) string {
		b, at := []byte(s), rng.Intn(len(s)+1)
		c := alpha[rng.Intn(len(alpha))]
		switch op := rng.Intn(3); {
		case op == 0 || len(b) == 0:
			return string(b[:at]) + string(c) + string(b[at:])
		case op == 1:
			at %= len(b)
			return string(b[:at]) + string(b[at+1:])
		default:
			b[at%len(b)] = c
			return string(b)
		}
	}
	for trial := 0; trial < 60; trial++ {
		words := []string{word()}
		if trial%2 == 1 {
			words = append(words, word(), word())
		}
		base := automaton.FromStrings(words)
		for k := 1; k <= 2; k++ {
			exp := ExpandK(base, alpha, k)
			for probe := 0; probe < 60; probe++ {
				s := words[rng.Intn(len(words))]
				for e := rng.Intn(k + 2); e > 0; e-- {
					s = edit(s)
				}
				want := false
				for _, w := range words {
					want = want || Distance(w, s) <= k
				}
				if got := exp.MatchString(s); got != want {
					t.Fatalf("base %q, k=%d, probe %q: expansion says %v, oracle %v", words, k, s, got, want)
				}
			}
		}
	}
}

// TestExpandKAllocsDoNotGrowWithStates: ExpandK builds no NFA; its one
// subset construction interns sets without a key each and sizes the builder
// it minimizes exactly, so two edits of a 605-state result take a bounded
// number of allocations, not a few per state (1 326 before the interning
// table; 168 allocations and 4 567 482 bytes when two chained distance-1
// constructions built it; 112 and 2 847 952 for the one construction).
func TestExpandKAllocsDoNotGrowWithStates(t *testing.T) {
	d := regex.MustCompile(" ((alpha)|(beta)|(gamma)) ((delta)|(kappa))")
	alpha := PrintableASCII()
	if n := ExpandK(d, alpha, 2).NumStates(); n != 605 {
		t.Fatalf("k=2 expansion has %d states, want 605", n)
	}
	expand := func() { ExpandK(d, alpha, 2) }
	allocs := testing.AllocsPerRun(5, expand)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	expand()
	runtime.ReadMemStats(&after)
	b := after.TotalAlloc - before.TotalAlloc
	t.Logf("ExpandK(k=2): %.0f allocations, %d bytes", allocs, b)
	if allocs > 150 || b > 3_200_000 {
		t.Errorf("ExpandK(k=2) of a 605-state result: %.0f allocations and %d bytes, want <= 150 and <= 3 200 000", allocs, b)
	}
}
