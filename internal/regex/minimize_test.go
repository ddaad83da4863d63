package regex

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMinimizeNoReverseBlowup: "the 25th symbol from the start is an a" has a
// 26-state minimal DFA, and its reversal needs 2^25 subsets. Brzozowski's
// double reversal — the minimizer Compile used to run — determinizes that
// reversal: [ab]{16}a[ab]* took 1.5 s and 4.2 M allocations for an 18-state
// answer and quadrupled with every +2 on the count, so one short pattern
// posted to /v1/search pinned a core. Partition refinement is linear in the
// forward DFA: this compile measures 118 allocations and under a millisecond.
func TestMinimizeNoReverseBlowup(t *testing.T) {
	const pattern = "[ab]{24}a[ab]*"
	t0 := time.Now()
	d, err := Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Errorf("compiling %s took %v, want well under a second", pattern, took)
	}
	if d.NumStates() != 26 {
		t.Errorf("%s: %d states, want 26", pattern, d.NumStates())
	}
	yes, no := strings.Repeat("b", 24)+"a", strings.Repeat("a", 24)+"b"
	if !d.MatchString(yes) || !d.MatchString(yes+"ab") || d.MatchString(no) || d.MatchString(yes[1:]) {
		t.Errorf("%s: wrong language", pattern)
	}
	if allocs := testing.AllocsPerRun(5, func() { _, _ = Compile(pattern) }); allocs > 300 {
		t.Errorf("compiling %s: %.0f allocations, want <= 300", pattern, allocs)
	}
}

// randomPattern draws from the grammar of FuzzCompile's seed corpus, over a
// small alphabet so that random probes hit the language.
func randomPattern(rng *rand.Rand, depth int) string {
	kind := rng.Intn(8)
	if depth == 0 {
		kind = rng.Intn(3)
	}
	switch kind {
	case 0, 1:
		return string(rune('a' + rng.Intn(3)))
	case 2:
		return []string{"[ab]", "[^a]", "[a-c]", "."}[rng.Intn(4)]
	case 3, 4:
		return randomPattern(rng, depth-1) + randomPattern(rng, depth-1)
	case 5:
		return "(" + randomPattern(rng, depth-1) + ")|(" + randomPattern(rng, depth-1) + ")"
	case 6:
		return "(" + randomPattern(rng, depth-1) + ")" + []string{"?", "*", "+"}[rng.Intn(3)]
	default:
		lo := rng.Intn(3)
		return fmt.Sprintf("(%s){%d,%d}", randomPattern(rng, depth-1), lo, lo+rng.Intn(3))
	}
}

// TestRandomPatternsAgreeWithStdlib runs the whole front end — parser,
// Thompson construction, subset construction, minimization — against Go's
// regexp package, which shares none of it, on seeded random patterns and
// random probe strings.
func TestRandomPatternsAgreeWithStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 400; trial++ {
		pattern := randomPattern(rng, 3)
		d, err := Compile(pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", pattern, err)
		}
		ref := regexp.MustCompile("^(?:" + pattern + ")$")
		for probe := 0; probe < 40; probe++ {
			b := make([]byte, rng.Intn(7))
			for i := range b {
				b[i] = byte('a' + rng.Intn(4))
			}
			if got, want := d.MatchBytes(b), ref.Match(b); got != want {
				t.Fatalf("pattern %q on %q: got %v, regexp says %v", pattern, b, got, want)
			}
		}
	}
}
