package automaton

import (
	"math/rand"
	"slices"
	"testing"
)

// spreadCase draws a DFA over the symbols 0..syms-1 in which the symbols of
// class (ascending, a subset of them) behave alike: byteDFA is the DFA with an
// edge on every class symbol wherever it has one on class[0], and rep is the
// same DFA without the edges on class[1:].
func spreadCase(rng *rand.Rand, states, syms int, class []Symbol) (byteDFA, rep *DFA) {
	accept := make([]bool, states)
	for i := range accept {
		accept[i] = rng.Intn(3) == 0
	}
	byEdges, repEdges := make([][]Edge, states), make([][]Edge, states)
	for s := range states {
		for sym := range syms {
			if slices.Contains(class[1:], sym) || rng.Intn(3) == 0 {
				continue
			}
			to := rng.Intn(states)
			repEdges[s] = append(repEdges[s], Edge{Sym: sym, To: to})
			byEdges[s] = append(byEdges[s], Edge{Sym: sym, To: to})
			if sym == class[0] {
				for _, c := range class[1:] {
					byEdges[s] = append(byEdges[s], Edge{Sym: c, To: to})
				}
			}
		}
	}
	return build(byEdges, accept, 0), build(repEdges, accept, 0)
}

// checkSpread holds the spread of rep's minimal DFA to the minimal DFA of the
// byte automaton, edge for edge, and to the minimal mark.
func checkSpread(t *testing.T, byteDFA, rep *DFA, class []Symbol) {
	t.Helper()
	got := rep.Minimize().Spread(class)
	if err := equalDFA(got, byteDFA.Minimize()); err != nil {
		t.Fatalf("class %v: the spread differs from the byte DFA's minimization: %v", class, err)
	}
	if !got.minimal {
		t.Fatalf("class %v: the spread of a minimal DFA is not marked minimal", class)
	}
}

// TestSpreadMatchesMinimize: on seeded random DFAs in which a class of
// symbols behaves alike, minimizing over the class's smallest symbol and
// spreading gives the minimal DFA of the whole alphabet, edge for edge, and
// marks it minimal. Fixed classes over ten symbols cover a representative
// between other symbols, a state with several spread edges beside its own,
// and a one-symbol class (the spread is the identity).
func TestSpreadMatchesMinimize(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for _, class := range [][]Symbol{
		{3, 5, 7},       // the representative between other symbols, the class interleaved with them
		{2, 3, 4, 5, 6}, // four spread edges in a row in every state with one on 2
		{4},             // a one-symbol class
		{0, 9},          // the representative first, the class's last symbol last
	} {
		for range 40 {
			b, r := spreadCase(rng, 1+rng.Intn(12), 10, class)
			checkSpread(t, b, r, class)
		}
	}
	for range 200 {
		syms := 1 + rng.Intn(9)
		class := classOf(rng.Uint32(), syms)
		b, r := spreadCase(rng, 1+rng.Intn(12), syms, class)
		checkSpread(t, b, r, class)
	}
}

// classOf reads a class of the symbols 0..syms-1 off the bits of bits,
// symbol 0 when none of its low syms bits is set.
func classOf(bits uint32, syms int) []Symbol {
	var class []Symbol
	for sym := range syms {
		if bits>>sym&1 == 1 {
			class = append(class, sym)
		}
	}
	if len(class) == 0 {
		class = []Symbol{0}
	}
	return class
}

// FuzzSpread is TestSpreadMatchesMinimize on fuzzed seeds, sizes and
// classes.
func FuzzSpread(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(10), uint32(0b0010101000))
	f.Add(int64(2), uint8(12), uint8(10), uint32(0b0001111100))
	f.Add(int64(3), uint8(3), uint8(4), uint32(0b0100))
	f.Fuzz(func(t *testing.T, seed int64, states, syms uint8, bits uint32) {
		n, k := 1+int(states%16), 1+int(syms%12)
		class := classOf(bits, k)
		b, r := spreadCase(rand.New(rand.NewSource(seed)), n, k, class)
		checkSpread(t, b, r, class)
	})
}
