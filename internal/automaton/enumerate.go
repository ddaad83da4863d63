package automaton

import (
	"fmt"
	"math"
)

// Enumerate returns up to limit accepting symbol sequences of length at most
// maxLen, in shortlex (length, then lexicographic-by-symbol) order. It is the
// "materialize the language" primitive the paper uses for small sets (§3.2,
// canonical option 1). limit <= 0 means no limit; callers should only do that
// for finite languages.
func (d *DFA) Enumerate(maxLen, limit int) [][]Symbol {
	var out [][]Symbol
	type node struct {
		state StateID
		seq   []Symbol
	}
	frontier := []node{{state: d.Start()}}
	for depth := 0; depth <= maxLen && len(frontier) > 0; depth++ {
		var next []node
		for _, nd := range frontier {
			if d.Accepting(nd.state) {
				out = append(out, nd.seq)
				if limit > 0 && len(out) >= limit {
					return out
				}
			}
			if depth == maxLen {
				continue
			}
			for _, e := range d.Edges(nd.state) {
				seq := make([]Symbol, len(nd.seq)+1)
				copy(seq, nd.seq)
				seq[len(nd.seq)] = e.Sym
				next = append(next, node{state: e.To, seq: seq})
			}
		}
		frontier = next
	}
	return out
}

// EnumerateStrings enumerates a byte-alphabet DFA's language as strings.
func (d *DFA) EnumerateStrings(maxLen, limit int) []string {
	seqs := d.Enumerate(maxLen, limit)
	out := make([]string, len(seqs))
	for i, seq := range seqs {
		b := make([]byte, len(seq))
		for j, s := range seq {
			b[j] = byte(s)
		}
		out[i] = string(b)
	}
	return out
}

// LanguageSize returns the exact number of strings of length at most maxLen,
// or -1 when it exceeds int64.
func (d *DFA) LanguageSize(maxLen int) int64 { return languageSize(d, maxLen) }

// LanguageSizeOf counts the sequences f accepts of length at most maxLen,
// returning -1 when the count exceeds int64 (callers treat that as "huge").
func LanguageSizeOf(f *Frozen, maxLen int) int64 { return languageSize(f, maxLen) }

// languageSize is WalkCounter's recurrence (walkRow) on two rows of machine
// words that saturate one past MaxInt64, so a cell at the limit is exactly
// one whose count does not fit int64, and one that the start state never
// reaches spoils nothing. Every query with a prefix sizes its prefix
// language here, without building the whole table.
func languageSize[F form](w F, maxLen int) int64 {
	const over = uint64(math.MaxInt64) + 1
	n := w.NumStates()
	prev, cur := make([]uint64, n), make([]uint64, n)
	for rem := 0; rem <= maxLen; rem++ {
		walkRow(w, prev, cur, over) // at rem 0, prev is all zero
		prev, cur = cur, prev
	}
	if total := prev[w.Start()]; total < over {
		return int64(total)
	}
	return -1
}

// FromStrings builds a minimal DFA accepting exactly the given strings
// (interpreted as byte sequences).
func FromStrings(strs []string) *DFA {
	n := NewNFA()
	start := n.AddState(false)
	n.SetStart(start)
	for _, s := range strs {
		cur := start
		for i := 0; i < len(s); i++ {
			nxt := n.AddState(false)
			n.AddEdge(cur, int(s[i]), nxt)
			cur = nxt
		}
		n.SetAccepting(cur, true)
	}
	return n.Determinize().Minimize()
}

// FromSymbolSeqs builds a DFA accepting exactly the given symbol sequences.
func FromSymbolSeqs(seqs [][]Symbol) *DFA {
	n := NewNFA()
	start := n.AddState(false)
	n.SetStart(start)
	for _, seq := range seqs {
		cur := start
		for _, sym := range seq {
			nxt := n.AddState(false)
			n.AddEdge(cur, sym, nxt)
			cur = nxt
		}
		n.SetAccepting(cur, true)
	}
	return n.Determinize().Minimize()
}

// String renders a compact structural description, useful in test failures.
func (d *DFA) String() string {
	return fmt.Sprintf("DFA{states: %d, edges: %d, start: %d}", d.NumStates(), d.NumEdges(), d.start)
}
