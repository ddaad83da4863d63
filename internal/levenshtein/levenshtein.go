// Package levenshtein builds edit-distance automata, implementing the
// Levenshtein preprocessor of §3.4: given a language L as a byte DFA, it
// produces the DFA of all strings within edit distance k of some string in
// L. Distance-k automata are obtained by composing the distance-1
// construction k times, exactly as the paper describes ("an edit distance of
// 2 corresponds to two chained Levenshtein automata").
package levenshtein

import (
	"slices"
	"sort"

	"repro/internal/automaton"
)

// Expand returns a DFA accepting every string within edit distance 1
// (insertion, deletion, or substitution of one byte drawn from alphabet) of
// a string in L(d). The original strings (distance 0) are included.
//
// The construction is an NFA product of d with an edit counter in {0, 1}:
// state (q, e). Edits available at e=0: substitute (consume a wrong byte on
// an existing transition), insert (consume any byte, stay at q), delete
// (epsilon-advance across a transition).
func Expand(d *automaton.DFA, alphabet []byte) *automaton.DFA {
	return ExpandK(d, alphabet, 1)
}

// ExpandK returns the minimal DFA of strings within edit distance k of L(d).
// The input is minimized first (for a minimal one, such as regex.Compile
// returns, that costs nothing): every expansion doubles its states. k = 0
// returns a copy, so the result is the caller's to mutate either way.
func ExpandK(d *automaton.DFA, alphabet []byte, k int) *automaton.DFA {
	if k <= 0 {
		return d.Clone().Minimize()
	}
	cur := d.Minimize()
	for i := 0; i < k; i++ {
		cur = expandOnce(cur, alphabet)
	}
	return cur
}

func expandOnce(d *automaton.DFA, alphabet []byte) *automaton.DFA {
	n := automaton.NewNFA()
	states := d.NumStates()
	// Layer 0: zero edits used. Layer 1: one edit used.
	id := func(q automaton.StateID, layer int) automaton.StateID {
		return q + layer*states
	}
	// succ lists the distinct successors of one state. An edit moves to a
	// successor whichever edge leads there, so the edit transitions are laid
	// per successor, not per edge: a state of an already expanded automaton
	// has an edge for every byte and only a handful of successors.
	type successor struct {
		to  automaton.StateID
		sym int // the one symbol that leads to it, -1 when several do
	}
	var succ []successor
	successors := func(q automaton.StateID) {
		succ = succ[:0]
		for _, e := range d.Edges(q) {
			if i := slices.IndexFunc(succ, func(s successor) bool { return s.to == e.To }); i < 0 {
				succ = append(succ, successor{e.To, e.Sym})
			} else {
				succ[i].sym = -1
			}
		}
	}

	// Count the transitions first, so the NFA is reserved once: per state,
	// its exact edges on both layers, an insertion per byte, a substitution
	// per byte and successor but the successor's one symbol, and a deletion
	// per successor.
	var inAlphabet [256]bool
	for _, b := range alphabet {
		inAlphabet[b] = true
	}
	edges := 0
	for q := 0; q < states; q++ {
		successors(q)
		edges += 2*len(d.Edges(q)) + len(alphabet)*(1+len(succ)) + len(succ)
		for _, s := range succ {
			if s.sym >= 0 && s.sym < 256 && inAlphabet[s.sym] {
				edges--
			}
		}
	}
	n.Grow(2*states, edges)

	for layer := 0; layer < 2; layer++ {
		for q := 0; q < states; q++ {
			n.AddState(d.Accepting(q))
		}
	}
	for q := 0; q < states; q++ {
		edges := d.Edges(q)
		for layer := 0; layer < 2; layer++ {
			// Exact transitions preserve the layer.
			for _, e := range edges {
				n.AddEdge(id(q, layer), e.Sym, id(e.To, layer))
			}
		}
		successors(q)
		// Edit transitions: layer 0 -> layer 1.
		for _, b := range alphabet {
			sym := int(b)
			// Insertion: consume b without advancing d.
			n.AddEdge(id(q, 0), sym, id(q, 1))
			// Substitution: consume b but advance along any edge whose label
			// differs from b.
			for _, s := range succ {
				if s.sym != sym {
					n.AddEdge(id(q, 0), sym, id(s.to, 1))
				}
			}
		}
		// Deletion: advance along an edge without consuming input.
		for _, s := range succ {
			n.AddEdge(id(q, 0), automaton.Epsilon, id(s.to, 1))
		}
	}
	n.SetStart(id(d.Start(), 0))
	return n.Determinize().Minimize()
}

// Distance computes the exact Levenshtein distance between two strings with
// the standard dynamic program; used as the test oracle for Expand.
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
			cur[j] = minInt(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

func minInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AlphabetOf extracts the byte alphabet used by a DFA, for callers that want
// edits restricted to the symbols the language already uses.
func AlphabetOf(d *automaton.DFA) []byte {
	syms := d.Alphabet()
	out := make([]byte, 0, len(syms))
	for _, s := range syms {
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
// of base, the set of byte positions at which an edit could explain the
// string (earliest-explanation convention: the first position where s
// diverges from its nearest base string). It returns -1 when s is in the
// base language (no edit needed). Used by the fig9 experiment to histogram
// edit locations.
func EditPositions(base *automaton.DFA, s string) int {
	if base.MatchString(s) {
		return -1
	}
	// Find the longest prefix of s that is still viable in base.
	st := base.Start()
	for i := 0; i < len(s); i++ {
		next, ok := base.Step(st, int(s[i]))
		if !ok {
			return i
		}
		st = next
	}
	return len(s)
}

// SortedAlphabetUnion merges edit alphabets, deduplicating.
func SortedAlphabetUnion(as ...[]byte) []byte {
	set := map[byte]bool{}
	for _, a := range as {
		for _, b := range a {
			set[b] = true
		}
	}
	out := make([]byte, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
