package automaton_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/levenshtein"
	"repro/internal/regex"
)

// randomPattern draws from the grammar of the regex package's fuzz corpus,
// over a small alphabet.
func randomPattern(rng *rand.Rand, depth int) string {
	kind := rng.Intn(8)
	if depth == 0 {
		kind = rng.Intn(3)
	}
	switch kind {
	case 0, 1:
		return string(rune('a' + rng.Intn(3)))
	case 2:
		return []string{"[ab]", "[^a]", "[a-c]", "[ -c]"}[rng.Intn(4)]
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

// editNFA is the textbook one-edit product of d: layer 0 has used no edit,
// layer 1 one; from layer 0 a byte of alphabet may be inserted, substitute
// for an edge's own symbol, or an edge may be deleted. It lays one edit
// transition per edge, where the levenshtein package lays one per successor.
func editNFA(d *automaton.DFA, alphabet []byte) *automaton.NFA {
	n, states := automaton.NewNFA(), d.NumStates()
	for i := 0; i < 2*states; i++ {
		n.AddState(d.Accepting(i % states))
	}
	for q := 0; q < states; q++ {
		for _, b := range alphabet {
			n.AddEdge(q, int(b), q+states)
		}
		for _, e := range d.Edges(q) {
			n.AddEdge(q, e.Sym, e.To)
			n.AddEdge(q+states, e.Sym, e.To+states)
			n.AddEdge(q, automaton.Epsilon, e.To+states)
			for _, b := range alphabet {
				if int(b) != e.Sym {
					n.AddEdge(q, int(b), e.To+states)
				}
			}
		}
	}
	n.SetStart(d.Start())
	return n
}

// TestInterningMatchesStringKeyedReference: the subset construction interns
// subsets in a table over its own arena, where the reference keys a map by
// each subset's bytes. On the edit automata of seeded random patterns,
// Determinize numbers the same states with the same edges, and ExpandK —
// minimal, so numbered canonically — equals k rounds of the reference.
func TestInterningMatchesStringKeyedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	alphabet := []byte("ab ")
	for trial := 0; trial < 100; trial++ {
		pattern := randomPattern(rng, 3)
		d, err := regex.Compile(pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", pattern, err)
		}
		ref := d
		for k := 1; k <= 2; k++ {
			n := editNFA(ref, alphabet)
			det, detRef := n.Determinize(), automaton.DeterminizeRef(n)
			if err := automaton.EqualDFA(det, detRef); err != nil {
				t.Fatalf("%q, edit %d: Determinize differs from the string-keyed reference: %v", pattern, k, err)
			}
			ref = detRef.Minimize()
			if err := automaton.EqualDFA(levenshtein.ExpandK(d, alphabet, k), ref); err != nil {
				t.Fatalf("%q, k=%d: ExpandK differs from the reference: %v", pattern, k, err)
			}
		}
	}
}
