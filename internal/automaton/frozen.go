package automaton

import "fmt"

// form is either automaton representation, for the few read-only loops the
// mutable DFA and the immutable Frozen share, so the two cannot drift.
type form interface {
	*DFA | *Frozen
	Start() StateID
	NumStates() int
	Accepting(s StateID) bool
	Edges(s StateID) []Edge
	Step(s StateID, sym Symbol) (to StateID, ok bool)
}

// Frozen is an immutable, compact DFA in CSR (compressed sparse row) form:
// one flat edge array with per-state offsets, an accepting-state bitset, and
// a precomputed alphabet. Edges(s) is a contiguous, allocation-free view into
// the flat array and Step is a branch-light binary search, so the engines'
// hot loops touch two cache-friendly slices instead of a slice-of-slices.
// A Frozen has no mutating methods at all — sharing one across any number of
// concurrent traversals is safe by construction.
type Frozen struct {
	start     StateID
	numStates int
	edges     []Edge   // flat, grouped by state, sorted by symbol within a state
	views     [][]Edge // views[s] is the precomputed subslice of edges for state s
	accept    []uint64
	alphabet  []Symbol
}

// Freeze converts a fully constructed DFA into its immutable CSR form. The
// Frozen shares the edge array a Builder packed, which nothing writes into,
// and copies the edges of a DFA that AddState or AddEdge changed since; either
// way, mutating the DFA afterwards does not affect the Frozen.
func (d *DFA) Freeze() *Frozen {
	n := d.NumStates()
	f := &Frozen{
		start:     d.start,
		numStates: n,
		edges:     d.packed,
		views:     make([][]Edge, n),
		accept:    make([]uint64, (n+63)/64),
		alphabet:  d.Alphabet(),
	}
	if f.edges == nil {
		f.edges = make([]Edge, 0, d.NumEdges())
		for _, es := range d.edges {
			f.edges = append(f.edges, es...)
		}
	}
	lo := 0
	for s, es := range d.edges {
		hi := lo + len(es)
		f.views[s] = f.edges[lo:hi:hi]
		lo = hi
		if d.accept[s] {
			f.accept[s/64] |= 1 << uint(s%64)
		}
	}
	return f
}

// Start returns the initial state.
func (f *Frozen) Start() StateID { return f.start }

// NumStates reports the number of states.
func (f *Frozen) NumStates() int { return f.numStates }

// NumEdges reports the total number of transitions.
func (f *Frozen) NumEdges() int { return len(f.edges) }

// Accepting reports whether state s accepts.
func (f *Frozen) Accepting(s StateID) bool {
	return f.accept[s/64]&(1<<uint(s%64)) != 0
}

// Edges returns the outgoing edges of s as a contiguous view into the flat
// edge array. The slice must not be mutated.
func (f *Frozen) Edges(s StateID) []Edge {
	return f.views[s]
}

// Step follows the transition labeled sym out of s via binary search over the
// state's contiguous edge range.
func (f *Frozen) Step(s StateID, sym Symbol) (to StateID, ok bool) {
	es := f.views[s]
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].Sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].Sym == sym {
		return es[lo].To, true
	}
	return 0, false
}

// Alphabet returns the precomputed sorted symbol set. The slice must not be
// mutated.
func (f *Frozen) Alphabet() []Symbol { return f.alphabet }

// MatchBytes reports whether the automaton (over the byte alphabet) accepts s.
func (f *Frozen) MatchBytes(s []byte) bool { return matchBytes(f, s) }

// MatchString reports whether the automaton accepts the bytes of s.
func (f *Frozen) MatchString(s string) bool { return f.MatchBytes([]byte(s)) }

// MatchSymbols reports whether the automaton accepts the symbol sequence seq.
func (f *Frozen) MatchSymbols(seq []Symbol) bool { return matchSymbols(f, seq) }

// IsEmpty reports whether the language is empty (no accepting state is
// reachable).
func (f *Frozen) IsEmpty() bool { return isEmpty(f) }

// matchBytes, matchSymbols, and isEmpty are the traversal loops shared by
// DFA and Frozen.
func matchBytes[F form](w F, s []byte) bool {
	st := w.Start()
	for _, b := range s {
		next, ok := w.Step(st, int(b))
		if !ok {
			return false
		}
		st = next
	}
	return w.Accepting(st)
}

func matchSymbols[F form](w F, seq []Symbol) bool {
	st := w.Start()
	for _, sym := range seq {
		next, ok := w.Step(st, sym)
		if !ok {
			return false
		}
		st = next
	}
	return w.Accepting(st)
}

func isEmpty[F form](w F) bool {
	if w.NumStates() == 0 {
		return true
	}
	seen := make([]bool, w.NumStates())
	stack := []StateID{w.Start()}
	seen[w.Start()] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w.Accepting(s) {
			return false
		}
		for _, e := range w.Edges(s) {
			if !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	return true
}

// LanguageSize returns the exact number of accepted sequences of length at
// most maxLen, or -1 when the count exceeds int64.
func (f *Frozen) LanguageSize(maxLen int) int64 { return LanguageSizeOf(f, maxLen) }

// Thaw returns a mutable DFA copy of the frozen automaton, for callers that
// need to run algebraic operations on a traversal artifact.
func (f *Frozen) Thaw() *DFA {
	d := NewDFA()
	for s := 0; s < f.numStates; s++ {
		d.AddState(f.Accepting(s))
	}
	for s := 0; s < f.numStates; s++ {
		for _, e := range f.Edges(s) {
			d.AddEdge(s, e.Sym, e.To)
		}
	}
	d.SetStart(f.start)
	return d
}

// String renders a compact structural description.
func (f *Frozen) String() string {
	return fmt.Sprintf("Frozen{states: %d, edges: %d, start: %d}", f.numStates, len(f.edges), f.start)
}
