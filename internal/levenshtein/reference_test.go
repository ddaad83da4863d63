package levenshtein

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/regex"
)

// composedRef is the construction as the paper states it, kept as the oracle
// for ExpandK: k chained distance-1 automata, each the determinized and
// minimized product of the previous round's minimal DFA with an edit counter
// in {0, 1}.
func composedRef(d *automaton.DFA, alphabet []byte, k int) *automaton.DFA {
	cur := d.Minimize()
	for i := 0; i < k; i++ {
		cur = expandOnceRef(cur, alphabet)
	}
	return cur
}

// expandOnceRef builds the distance-1 NFA of d: state (q, layer) is q + layer
// * states. Edits available at layer 0: substitute (consume an alphabet byte
// and follow an edge whose label differs from it), insert (consume an
// alphabet byte, stay at q), delete (epsilon-advance across an edge). Edit
// transitions are laid per distinct successor, not per edge.
func expandOnceRef(d *automaton.DFA, alphabet []byte) *automaton.DFA {
	n := automaton.NewNFA()
	states := d.NumStates()
	id := func(q automaton.StateID, layer int) automaton.StateID { return q + layer*states }
	for layer := 0; layer < 2; layer++ {
		for q := 0; q < states; q++ {
			n.AddState(d.Accepting(q))
		}
	}
	type successor struct {
		to  automaton.StateID
		sym int // the one symbol that leads to it, -1 when several do
	}
	for q := 0; q < states; q++ {
		var succ []successor
		for _, e := range d.Edges(q) {
			for layer := 0; layer < 2; layer++ {
				n.AddEdge(id(q, layer), e.Sym, id(e.To, layer))
			}
			if i := slices.IndexFunc(succ, func(s successor) bool { return s.to == e.To }); i < 0 {
				succ = append(succ, successor{e.To, e.Sym})
			} else {
				succ[i].sym = -1
			}
		}
		for _, b := range alphabet {
			n.AddEdge(id(q, 0), int(b), id(q, 1))
			for _, s := range succ {
				if s.sym != int(b) {
					n.AddEdge(id(q, 0), int(b), id(s.to, 1))
				}
			}
		}
		for _, s := range succ {
			n.AddEdge(id(q, 0), automaton.Epsilon, id(s.to, 1))
		}
	}
	n.SetStart(id(d.Start(), 0))
	return n.Determinize().Minimize()
}

// sameDFA reports where a and b differ as automata — start, states, accepting
// marks or edges — or nil when they are equal state for state.
func sameDFA(a, b *automaton.DFA) error {
	if a.Start() != b.Start() || a.NumStates() != b.NumStates() {
		return fmt.Errorf("%v vs %v", a, b)
	}
	for s := range a.NumStates() {
		if a.Accepting(s) != b.Accepting(s) {
			return fmt.Errorf("state %d: accepting %v vs %v", s, a.Accepting(s), b.Accepting(s))
		}
		if !slices.Equal(a.Edges(s), b.Edges(s)) {
			return fmt.Errorf("state %d: edges %v vs %v", s, a.Edges(s), b.Edges(s))
		}
	}
	return nil
}

// randomPattern draws a regex over a small alphabet, with classes, options,
// stars and bounded repeats, so cyclic languages are drawn too.
func randomPattern(rng *rand.Rand, depth int) string {
	kind := rng.Intn(8)
	if depth == 0 {
		kind = rng.Intn(3)
	}
	switch kind {
	case 0, 1:
		return string(rune('a' + rng.Intn(3)))
	case 2:
		return []string{"[ab]", "[^a]", "[a-c]", "[ -c]", "x"}[rng.Intn(5)]
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

// TestExpandKMatchesComposedReference: the one subset construction and k
// chained distance-1 automata give the same minimal DFA, edge for edge, on
// seeded random patterns (cyclic ones among them) over printable, tiny,
// empty and disjoint edit alphabets, k = 0 to 3.
func TestExpandKMatchesComposedReference(t *testing.T) {
	alphabets := map[string][]byte{
		"printable": PrintableASCII(),
		"tiny":      []byte("ab "),
		"empty":     {},
		"disjoint":  []byte("XYZ"),
	}
	rng := rand.New(rand.NewSource(55))
	cyclic := 0
	for trial := 0; trial < 60; trial++ {
		pattern := randomPattern(rng, 3)
		d, err := regex.Compile(pattern)
		if err != nil {
			t.Fatalf("compile %q: %v", pattern, err)
		}
		if d.HasCycle() {
			cyclic++
		}
		for name, alphabet := range alphabets {
			for k := 0; k <= 3; k++ {
				if k == 3 && name == "printable" && trial%4 != 0 {
					continue // the reference's third printable round is slow; a quarter of the patterns suffice
				}
				got, want := ExpandK(d, alphabet, k), composedRef(d, alphabet, k)
				if err := sameDFA(got, want); err != nil {
					t.Fatalf("%q, %s alphabet, k=%d: ExpandK differs from the composed reference: %v", pattern, name, k, err)
				}
			}
		}
	}
	if cyclic == 0 {
		t.Fatal("no cyclic pattern drawn")
	}
}

// FuzzExpandK holds ExpandK to the composed reference on fuzzed patterns,
// edit alphabets and k in 0..2.
func FuzzExpandK(f *testing.F) {
	f.Add("cat", "abct", uint8(1))
	f.Add(" ((alpha)|(beta))", " abehlpt", uint8(2))
	f.Add("(ab)*c+", "ab", uint8(2))
	f.Add("[a-c]{1,3}x?", "", uint8(1))
	f.Add("hello", "XYZ", uint8(2))
	f.Fuzz(func(t *testing.T, pattern, alphabet string, k uint8) {
		if len(pattern) > 24 || len(alphabet) > 8 {
			return
		}
		d, err := regex.Compile(pattern)
		if err != nil || d.NumStates() > 24 {
			return
		}
		got, want := ExpandK(d, []byte(alphabet), int(k%3)), composedRef(d, []byte(alphabet), int(k%3))
		if err := sameDFA(got, want); err != nil {
			t.Fatalf("%q, alphabet %q, k=%d: %v", pattern, alphabet, k%3, err)
		}
	})
}
