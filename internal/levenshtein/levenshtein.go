// Package levenshtein builds edit-distance automata, implementing the
// Levenshtein preprocessor of §3.4: given a language L as a byte DFA, it
// produces the DFA of all strings within edit distance k of some string in
// L. The paper chains k distance-1 automata ("an edit distance of 2
// corresponds to two chained Levenshtein automata"); ExpandK builds the same
// language in one subset construction over (state, edits used) pairs. An
// edit of a byte an earlier edit produced merges with that edit, so k chained
// edits reach exactly the strings that align to one of L with at most k
// insertions, deletions and substitutions, each inserted or substituted byte
// from the edit alphabet; and minimal DFAs are numbered canonically, so the
// two constructions give equal automata, edge for edge.
//
// The construction runs on byte classes, as RE2 does: the edit bytes no
// edge of the input carries all lead to the same place from every set, so
// they are one symbol, their smallest byte, until the minimal DFA is
// spread back to bytes. The result is byte-level at its boundary.
package levenshtein

import (
	"slices"
	"sync"

	"repro/internal/automaton"
)

// Expand returns a DFA accepting every string within edit distance 1
// (insertion, deletion, or substitution of one byte drawn from alphabet) of
// a string in L(d). The original strings (distance 0) are included.
func Expand(d *automaton.DFA, alphabet []byte) *automaton.DFA {
	return ExpandK(d, alphabet, 1)
}

// ExpandK returns the minimal DFA of strings within edit distance k of L(d),
// inserted and substituted bytes drawn from alphabet. The input is minimized
// first; at k = 0 that is the result.
//
// A state of the construction is a set of pairs (q, e), input state q reached
// with e edits, each q at its fewest. On byte b, (q, e) follows q's b-edge at
// e; with e < k and b in the alphabet it also inserts b (to q) or substitutes
// it (to any successor of q) at e+1. A set is closed under deletion: (q, e)
// with e < k moves to every successor at e+1. The edit moves are the same for
// every alphabet byte, so a set's target on the bytes none of its members'
// edges carries is computed once.
//
// The alphabet bytes no edge of the minimized input carries form one class:
// from every set they lead to that edit-only target or nowhere. The subset
// construction and its minimization see the class as one symbol, its
// smallest byte, and every other byte as its own; the minimal DFA is then
// spread to the class's other bytes once (automaton.DFA.Spread). The class
// is a congruence, so the spread is the minimal DFA of the byte language,
// and its smallest byte comes first, so a breadth-first pass by ascending
// byte numbers the spread as it would the byte-level DFA: the result is the
// one the construction gives over bytes, edge for edge.
func ExpandK(d *automaton.DFA, alphabet []byte, k int) *automaton.DFA {
	if k <= 0 {
		return d.Minimize()
	}
	d = d.Minimize()
	n, k1 := d.NumStates(), int32(k+1)
	x := &expander{k: int32(k), at: make([]int32, n+1), best: make([]int32, n), stamp: make([]uint32, n),
		gen: 1, sets: automaton.NewSubsets(n * (k + 1))}
	var inAlphabet, carried [256]bool
	for _, a := range alphabet {
		inAlphabet[a] = true
	}
	for q := range n {
		for _, e := range d.Edges(q) {
			if e.Sym < 256 {
				carried[e.Sym] = true
			}
			if !slices.Contains(x.succ[x.at[q]:], int32(e.To)) {
				x.succ = append(x.succ, int32(e.To))
			}
		}
		x.at[q+1] = int32(len(x.succ))
	}
	syms, class := editSymbols(&inAlphabet, &carried)

	// One pass numbers the sets and lays each one's edges in symbol order: on
	// the symbols its members' edges carry, and on the other edit symbols to
	// its edit-only target, interned when first needed. The edges go to
	// reused scratch, an Epsilon entry closing each set (To 1 when it
	// accepts), so the builder is sized exactly once the sets are known.
	laid := laidEdges.Get().(*[]automaton.Edge)
	edges := (*laid)[:0]
	var present []int
	var seeds []int32
	x.intern([]int32{int32(d.Start()) * k1})
	for from := 0; from < x.sets.Len(); from++ {
		set, accepting := x.sets.Set(from), false
		present, seeds = present[:0], seeds[:0]
		for _, c := range set {
			q, e := c/k1, c%k1
			accepting = accepting || d.Accepting(int(q))
			for _, ed := range d.Edges(int(q)) {
				present = append(present, ed.Sym)
			}
			if e < x.k { // an inserted byte keeps q, a substituted one moves on
				seeds = append(seeds, c+1)
				for _, r := range x.succ[x.at[q]:x.at[q+1]] {
					seeds = append(seeds, r*k1+e+1)
				}
			}
		}
		slices.Sort(present)
		present = slices.Compact(present)
		only, rest := -2, syms // -2: the edit-only target is not interned yet
		editOnly := func(sym int) {
			if only == -2 {
				only = x.intern(seeds)
			}
			if only >= 0 {
				edges = append(edges, automaton.Edge{Sym: sym, To: only})
			}
		}
		for _, sym := range present {
			for ; len(rest) > 0 && rest[0] < sym; rest = rest[1:] {
				editOnly(rest[0])
			}
			var edits []int32
			if len(rest) > 0 && rest[0] == sym {
				edits, rest = seeds, rest[1:]
			}
			for _, c := range set {
				if r, ok := d.Step(int(c/k1), sym); ok {
					x.add(int32(r), c%k1)
				}
			}
			edges = append(edges, automaton.Edge{Sym: sym, To: x.intern(edits)})
		}
		for _, sym := range rest {
			editOnly(sym)
		}
		accepts := 0
		if accepting {
			accepts = 1
		}
		edges = append(edges, automaton.Edge{Sym: automaton.Epsilon, To: accepts})
	}
	b := automaton.NewBuilder(x.sets.Len(), len(edges)-x.sets.Len())
	for _, e := range edges {
		if e.Sym == automaton.Epsilon {
			b.EndState(e.To == 1)
		} else {
			b.Edge(e.Sym, e.To)
		}
	}
	*laid = edges
	laidEdges.Put(laid)
	return b.Build(0).Minimize().Spread(class)
}

// laidEdges is ExpandK's edge scratch, reused across calls.
var laidEdges = sync.Pool{New: func() any { return new([]automaton.Edge) }}

// editSymbols lists, ascending, the symbols the construction edits on: the
// alphabet bytes an input edge carries and the smallest of the others; class
// lists those others. Both share one allocation.
func editSymbols(inAlphabet, carried *[256]bool) (syms, class []automaton.Symbol) {
	own, wide := 0, 0
	for a := range 256 {
		if inAlphabet[a] && carried[a] {
			own++
		} else if inAlphabet[a] {
			wide++
		}
	}
	own += min(wide, 1)
	buf := make([]automaton.Symbol, own+wide)
	syms, class = buf[:0:own], buf[own:own]
	for a := range 256 {
		if inAlphabet[a] && (carried[a] || len(class) == 0) {
			syms = append(syms, a)
		}
		if inAlphabet[a] && !carried[a] {
			class = append(class, a)
		}
	}
	return syms, class
}

// expander is the scratch of one ExpandK call. The set being built lists its
// states in members; stamp[q] == gen marks q as one, at best[q] edits.
type expander struct {
	k                  int32
	succ, at           []int32 // the distinct successors of q are succ[at[q]:at[q+1]]
	members, best, set []int32 // set: the last set closed, as sorted pairs q*(k+1)+e
	stamp              []uint32
	gen                uint32
	sets               *automaton.Subsets
}

// add puts (q, e) in the set being built.
func (x *expander) add(q, e int32) {
	if x.stamp[q] != x.gen {
		x.stamp[q], x.best[q] = x.gen, e
		x.members = append(x.members, q)
	} else if e < x.best[q] {
		x.best[q] = e
	}
}

// intern adds the pairs extra to the set being built, closes it under
// deletion an edit count at a time, numbers it (-1: empty) and empties it.
func (x *expander) intern(extra []int32) int {
	for _, c := range extra {
		x.add(c/(x.k+1), c%(x.k+1))
	}
	for e := int32(0); e < x.k; e++ {
		for i := 0; i < len(x.members); i++ {
			if q := x.members[i]; x.best[q] == e {
				for _, r := range x.succ[x.at[q]:x.at[q+1]] {
					x.add(r, e+1)
				}
			}
		}
	}
	if len(x.members) == 0 {
		return -1
	}
	slices.Sort(x.members)
	x.set = x.set[:0]
	for _, q := range x.members {
		x.set = append(x.set, q*(x.k+1)+x.best[q])
	}
	x.members = x.members[:0]
	x.gen++
	return x.sets.Intern(x.set)
}

// AlphabetOf extracts the byte alphabet used by a DFA, for callers that want
// edits restricted to the symbols the language already uses.
func AlphabetOf(d *automaton.DFA) []byte {
	alpha := d.Alphabet()
	out := make([]byte, 0, len(alpha))
	for _, s := range alpha {
		if s >= 0 && s < 256 {
			out = append(out, byte(s))
		}
	}
	return out
}

// PrintableASCII is the default edit alphabet: space through tilde. The
// paper's qualitative analysis (§4.3, Appendix G) observes edits drawn from
// punctuation and letters, so the full printable range is the faithful
// choice.
func PrintableASCII() []byte {
	out := make([]byte, 0, 95)
	for b := byte(' '); b <= '~'; b++ {
		out = append(out, b)
	}
	return out
}

// EditPositions reports, for a string accepted by the distance-1 expansion
// of base, the byte position at which an edit explains it: the first where s
// leaves every string of base (earliest-explanation convention), or -1 when s
// is in base. The fig9 experiment histograms it.
func EditPositions(base *automaton.DFA, s string) int {
	if base.MatchString(s) {
		return -1
	}
	// Find the longest prefix of s that is still viable in base.
	st, ok := base.Start(), true
	for i := 0; i < len(s); i++ {
		if st, ok = base.Step(st, int(s[i])); !ok {
			return i
		}
	}
	return len(s)
}

// SortedAlphabetUnion merges edit alphabets, deduplicating.
func SortedAlphabetUnion(as ...[]byte) []byte {
	out := slices.Concat(as...)
	slices.Sort(out)
	return slices.Compact(out)
}
