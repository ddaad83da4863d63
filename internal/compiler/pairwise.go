package compiler

import (
	"repro/internal/automaton"
	"repro/internal/tokenizer"
)

// CompileCanonicalPairwise builds the canonical token automaton by string
// rewriting over the automaton itself — the paper's §3.2 option 3
// (transducer-composition-style obligatory replacement) realized as an
// intersection: the full/ambiguous automaton is intersected with the
// regular language of *locally canonical* token sequences, where a sequence
// is locally canonical iff every adjacent token pair (x, y), taken in
// isolation, re-encodes to itself (no merge rule would have fused material
// across or inside the boundary).
//
// Local canonicality is meant to be necessary for BPE canonicality in our
// tokenizer (merges are confined to pre-tokens, so a violated constraint
// anywhere falsifies the whole sequence), but the construction does not
// agree exactly with enumerate-and-encode ground truth. A pair is judged
// alone, and alone (␠, b) re-encodes as " b", because the pre-token rule
// glues one space onto the word after it; after another space that position
// is a pre-token boundary. So it rejects canonical encodings where two or
// more spaces precede a word: "a  b", "x  J", "the  cat", "a   b" (ROADMAP
// item 11 keys the constraint on the pre-token state to fix it). Unlike
// CompileCanonical it needs no enumeration, so it handles infinite
// languages; unlike the CanonicalFilter it needs no per-node work at
// traversal time.
func CompileCanonicalPairwise(char *automaton.DFA, bpe *tokenizer.BPE) *automaton.DFA {
	full := CompileFull(char, bpe)
	constraint := pairConstraintDFA(full, bpe)
	return automaton.Intersect(full, constraint).Minimize()
}

// pairConstraintDFA builds a DFA over the tokens used by full that accepts
// exactly the locally canonical sequences. States: "start" plus one state
// per token (remembering the previous token); the transition prev --y-->
// y exists iff the pair (prev, y) is canonical in isolation.
func pairConstraintDFA(full *automaton.DFA, bpe *tokenizer.BPE) *automaton.DFA {
	toks := full.Alphabet()
	d := automaton.NewDFA()
	start := d.AddState(true) // the empty sequence is canonical
	states := make(map[automaton.Symbol]automaton.StateID, len(toks))
	for _, t := range toks {
		states[t] = d.AddState(true) // every single token is canonical
	}
	d.SetStart(start)
	for _, t := range toks {
		d.AddEdge(start, t, states[t])
	}
	memo := map[[2]tokenizer.Token]bool{}
	pairOK := func(x, y tokenizer.Token) bool {
		k := [2]tokenizer.Token{x, y}
		if v, ok := memo[k]; ok {
			return v
		}
		v := isPairCanonical(bpe, x, y)
		memo[k] = v
		return v
	}
	for _, x := range toks {
		for _, y := range toks {
			if pairOK(x, y) {
				d.AddEdge(states[x], y, states[y])
			}
		}
	}
	return d
}

// isPairCanonical reports whether the two-token sequence [x, y] is its own
// canonical encoding.
func isPairCanonical(bpe *tokenizer.BPE, x, y tokenizer.Token) bool {
	return bpe.Canonical([]tokenizer.Token{x, y})
}
