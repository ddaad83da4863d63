package automaton

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHopcroftMatchesBrzozowski(t *testing.T) {
	cases := [][]string{
		{"a"},
		{"ab", "ba"},
		{"cat", "dog", "cow"},
		{"a", "aa", "aaa"},
		{"x", "xy", "xyz", "xz"},
	}
	for _, strs := range cases {
		d := FromStrings(strs)
		h := d.Freeze().Thaw().Minimize() // Thaw: a copy without d's minimal mark
		b := d.minimizeBrzozowski()
		if !Equivalent(h, b) {
			t.Errorf("hopcroft and brzozowski disagree on %v", strs)
		}
		if h.NumStates() != b.NumStates() {
			t.Errorf("minimal state counts differ for %v: hopcroft %d, brzozowski %d",
				strs, h.NumStates(), b.NumStates())
		}
	}
}

func TestHopcroftOnCyclicLanguage(t *testing.T) {
	// (ab)* with a redundant duplicated state.
	n := NewNFA()
	s0 := n.AddState(true)
	s1 := n.AddState(false)
	s2 := n.AddState(true) // duplicate of s0 reachable after one loop
	n.SetStart(s0)
	n.AddEdge(s0, 'a', s1)
	n.AddEdge(s1, 'b', s2)
	n.AddEdge(s2, 'a', s1)
	d := n.Determinize()
	h := d.Minimize()
	if h.NumStates() != 2 {
		t.Errorf("(ab)* minimal DFA should have 2 states, got %d", h.NumStates())
	}
	for _, tc := range []struct {
		in   string
		want bool
	}{{"", true}, {"ab", true}, {"abab", true}, {"a", false}, {"aba", false}} {
		if got := h.MatchString(tc.in); got != tc.want {
			t.Errorf("match %q = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestHopcroftEmptyLanguage(t *testing.T) {
	d := NewDFA()
	d.SetStart(d.AddState(false))
	h := d.Minimize()
	if !h.IsEmpty() {
		t.Error("empty language should stay empty")
	}
}

func TestQuickHopcroftEquivalence(t *testing.T) {
	// Property: on random finite languages, both minimizers agree on
	// language and state count.
	f := func(raw []string) bool {
		var strs []string
		for _, s := range raw {
			strs = append(strs, sanitize(s, 5))
		}
		if len(strs) == 0 {
			strs = []string{"a"}
		}
		d := FromStrings(strs)
		h := d.Freeze().Thaw().Minimize()
		b := d.minimizeBrzozowski()
		return Equivalent(h, b) && h.NumStates() == b.NumStates()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickHopcroftRandomDFAs(t *testing.T) {
	// Random DFAs over a 2-symbol alphabet, arbitrary accepting sets.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(8)
		d := NewDFA()
		for i := 0; i < n; i++ {
			d.AddState(rng.Intn(2) == 0)
		}
		d.SetStart(0)
		for s := 0; s < n; s++ {
			for _, sym := range []Symbol{'a', 'b'} {
				if rng.Intn(4) > 0 { // 75% chance of having the edge
					d.AddEdge(s, sym, rng.Intn(n))
				}
			}
		}
		h := d.Minimize()
		b := d.minimizeBrzozowski()
		if !Equivalent(h, b) {
			t.Fatalf("trial %d: minimizers disagree on language", trial)
		}
		if h.NumStates() != b.NumStates() {
			t.Fatalf("trial %d: state counts differ: %d vs %d", trial, h.NumStates(), b.NumStates())
		}
	}
}

// TestStateSignatureIsomorphism: Minimize numbers states canonically, so
// equivalent minimal DFAs are equal as they stand (the signature this test
// once compared renumbered them first).
func TestStateSignatureIsomorphism(t *testing.T) {
	a := FromStrings([]string{"cat", "dog"})
	b := FromStrings([]string{"dog", "cat"})
	if err := equalDFA(a, b); err != nil {
		t.Errorf("equivalent minimal DFAs should be equal: %v", err)
	}
	c := FromStrings([]string{"cat"})
	if equalDFA(a, c) == nil {
		t.Error("different languages should have different automata")
	}
}
