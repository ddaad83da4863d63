// Package compiler implements ReLM's Graph Compiler (§3.2): it converts the
// byte-alphabet "Natural Language Automaton" produced by the regex frontend
// into a token-alphabet "LLM Automaton" executable against a language model.
//
// Two forms are produced, matching Figure 3:
//
//   - The full (ambiguous) automaton represents *every* token sequence whose
//     decoding lies in the language — the space of unconditional generation.
//     It is built by adding "shortcut" edges for multi-byte tokens
//     (Appendix B, Algorithms 1 and 2).
//
//   - The canonical automaton represents only the tokenizer's canonical
//     encoding of each string — the space of conditional generation. It is
//     built by enumerate-and-encode for small languages, with a dynamic
//     canonicality filter available for traversal of large ones.
package compiler

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/automaton"
	"repro/internal/tokenizer"
)

// byteTokenLimit is the number of single-byte tokens; token IDs below this
// value coincide with their byte value, so a byte-alphabet DFA is already a
// valid token automaton over single-byte tokens.
const byteTokenLimit = 256

// CompileFull builds the full/ambiguous token automaton from a byte DFA by
// inserting shortcut edges: for every state v and every multi-byte token w,
// if the bytes of w trace a path v -> u, an edge v --w--> u is added. The
// construction walks the tokenizer's vocabulary trie in tandem with the DFA,
// so each state costs O(reachable trie nodes) instead of the naive
// O(k·m_max) of Appendix B's Algorithm 2 (see CompileFullNaive for that
// variant). The trie belongs to the tokenizer — built on its first compile,
// read-only after — so concurrent compiles share it.
//
// The result is deterministic: the underlying byte walk for each token is
// unique, so (state, token) pairs never collide. Every multi-byte token's ID
// is above the byte symbols, so a state's list is its byte edges followed by
// its shortcuts in token order, and the builder takes both already sorted.
// Each state's walk runs once, into a compact scratch, before the builder is
// made: it is sized exactly, so the plan that keeps the result pins no spare
// room.
func CompileFull(char *automaton.DFA, bpe *tokenizer.BPE) *automaton.DFA {
	trie, n := bpe.Trie(), char.NumStates()
	w := shortcutWalk{found: make([]shortcut, 0, char.NumEdges())}
	ends := make([]int, n) // state v's shortcuts end at found[ends[v]]
	for v := range n {
		w.from(char, trie, v)
		ends[v] = len(w.found)
	}
	b := automaton.NewBuilder(n, char.NumEdges()+len(w.found))
	lo := 0
	for v := range n {
		for _, e := range char.Edges(v) {
			b.Edge(e.Sym, e.To)
		}
		for _, s := range w.found[lo:ends[v]] {
			b.Edge(int(s.tok), int(s.to))
		}
		lo = ends[v]
		b.EndState(char.Accepting(v))
	}
	return b.Build(char.Start())
}

// shortcutWalk is the scratch of one CompileFull: the walk stack, reused
// across states, and the shortcuts of every state, back to back.
type shortcutWalk struct {
	stack []shortcutFrame
	found []shortcut
}

// shortcut is an edge on a multi-byte token, half the size of an Edge.
type shortcut struct{ tok, to int32 }

type shortcutFrame struct {
	node  int32 // trie node
	state automaton.StateID
	depth int
}

// from walks the vocabulary trie and the DFA together from state v and
// appends to w.found, sorted by token, a shortcut for every multi-byte token
// whose surface bytes form a valid walk.
func (w *shortcutWalk) from(char *automaton.DFA, trie *tokenizer.Trie, v automaton.StateID) {
	lo := len(w.found)
	stack := append(w.stack[:0], shortcutFrame{state: v})
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tok := trie.Token(f.node); tok >= 0 && f.depth > 1 {
			w.found = append(w.found, shortcut{int32(tok), int32(f.state)})
		}
		// Pair the node's bytes with the state's edges from the shorter side.
		kids, edges := trie.Kids(f.node), char.Edges(f.state)
		if len(kids) <= len(edges) {
			for _, k := range kids {
				if to, ok := char.Step(f.state, int(k.Byte)); ok {
					stack = append(stack, shortcutFrame{k.Node, to, f.depth + 1})
				}
			}
			continue
		}
		for _, e := range edges {
			if e.Sym >= byteTokenLimit {
				break
			}
			if node, ok := trie.Child(f.node, byte(e.Sym)); ok {
				stack = append(stack, shortcutFrame{node, e.To, f.depth + 1})
			}
		}
	}
	w.stack = stack
	slices.SortFunc(w.found[lo:], func(a, b shortcut) int { return int(a.tok) - int(b.tok) })
}

// CompileFullNaive is Appendix B's Algorithm 2 taken literally: for every
// multi-byte token, DFS-match its surface form from every vertex. It has
// runtime O(V · k · m_max) and exists as the ablation baseline for the trie
// variant; both must produce identical automata. Each state's list is its
// byte edges, then its shortcuts in ascending token ID, which is the order
// MultiByteTokens returns them in.
func CompileFullNaive(char *automaton.DFA, bpe *tokenizer.BPE) *automaton.DFA {
	toks := bpe.MultiByteTokens()
	b := automaton.NewBuilder(char.NumStates(), char.NumEdges())
	for v := 0; v < char.NumStates(); v++ {
		for _, e := range char.Edges(v) {
			b.Edge(e.Sym, e.To)
		}
		for _, tok := range toks {
			// DFSMatch of Algorithm 1: follow the word's bytes from v.
			word := bpe.TokenBytes(tok)
			state := v
			ok := true
			for i := 0; i < len(word); i++ {
				next, stepped := char.Step(state, int(word[i]))
				if !stepped {
					ok = false
					break
				}
				state = next
			}
			if ok {
				b.Edge(tok, state)
			}
		}
		b.EndState(char.Accepting(v))
	}
	return b.Build(char.Start())
}

// ErrLanguageTooLarge is returned by CompileCanonical when the language
// exceeds the enumeration budget; callers fall back to dynamic traversal
// with a CanonicalFilter.
var ErrLanguageTooLarge = errors.New("compiler: language too large to enumerate; use the full automaton with a canonical filter")

// CompileCanonical builds the canonical token automaton by materializing the
// language (bounded by maxLen bytes per string and limit strings total) and
// encoding each string with the tokenizer (§3.2, option 1). The automaton
// accepts exactly {Encode(s) : s ∈ L}.
func CompileCanonical(char *automaton.DFA, tok tokenizer.Tokenizer, maxLen, limit int) (*automaton.DFA, error) {
	if limit <= 0 {
		limit = 1 << 20
	}
	// Count before enumerating: breadth-first enumeration of a 10^10-string
	// language would explode long before producing its first acceptance, so
	// the budget check must come from the walk-count DP (cheap: O(maxLen *
	// edges) big-int additions).
	size := char.LanguageSize(maxLen)
	if size < 0 || size > int64(limit) {
		return nil, fmt.Errorf("%w (%d strings > %d)", ErrLanguageTooLarge, size, limit)
	}
	strs := char.EnumerateStrings(maxLen, limit+1)
	seqs := make([][]automaton.Symbol, len(strs))
	for i, s := range strs {
		seqs[i] = tok.Encode(s)
	}
	return automaton.FromSymbolSeqs(seqs), nil
}

// lookback is how many trailing tokens of a partial sequence are exempt from
// the stability check. A BPE merge joins two adjacent symbols, so a token
// still to come can change the tokenizer's boundaries only inside the last
// token and between it and its left neighbour: everything before the last two
// tokens is settled.
const lookback = 2

// CanonicalFilter prunes non-canonical paths during dynamic traversal of the
// full automaton (§3.2, option 2: "backtracking during runtime when a
// non-canonical token is discovered"). A partial sequence survives if all of
// its boundaries except the last lookback are exactly the boundaries the
// tokenizer would choose for the decoded text; acceptance additionally
// requires full canonicality. A nil filter allows everything (the
// all-encodings query).
type CanonicalFilter struct {
	Tok *tokenizer.BPE
}

// NewCanonicalFilter returns a filter over tok's canonical encodings.
func NewCanonicalFilter(tok *tokenizer.BPE) *CanonicalFilter {
	return &CanonicalFilter{Tok: tok}
}

// AllowPartial reports whether a partial token sequence can still extend to
// a canonical encoding.
func (f *CanonicalFilter) AllowPartial(toks []tokenizer.Token) bool {
	return f.stable(toks, len(toks)-lookback)
}

// AllowChildren is AllowPartial(parent+tok) for every tok at once: with
// lookback >= 1 that predicate reads only parent[:len(parent)+1-lookback] and
// never tok, so a traversal asks once per expanded node and all the node's
// children share the verdict.
func (f *CanonicalFilter) AllowChildren(parent []tokenizer.Token) bool {
	return f.stable(parent, len(parent)+1-lookback)
}

// stable reports whether toks[:n] is the canonical encoding of its own text.
func (f *CanonicalFilter) stable(toks []tokenizer.Token, n int) bool {
	if f == nil || n <= 0 {
		return true
	}
	return f.Tok.Canonical(toks[:n])
}

// AllowFinal reports whether a complete token sequence is the canonical
// encoding of its string.
func (f *CanonicalFilter) AllowFinal(toks []tokenizer.Token) bool {
	return f == nil || tokenizer.IsCanonical(f.Tok, toks)
}

// CountEncodings returns the number of token sequences of length at most
// maxToks accepted by the full automaton — i.e. the total count of ambiguous
// encodings, which for a single string of length n is 2^(n-1) when every
// substring is a token (§3.2).
func CountEncodings(full *automaton.DFA, maxToks int) int64 {
	return full.LanguageSize(maxToks)
}
