// Package rewrite implements optional string rewriting over automata — the
// transducer mechanism §3.4 and Appendix B of the ReLM paper describe
// ("optional rewrite" after Mihov & Schulz). A rewrite rule (from → to)
// applied optionally to a language L yields every string obtainable from a
// string in L by replacing occurrences of `from` (matched as a path in L's
// automaton) with `to`. The original strings always remain in the result.
//
// This is the engine behind domain-invariance preprocessors: synonym
// substitution, case variants, and the homoglyph/leet misspellings the
// toxicity study (§4.3) observes in the wild (e.g. bordering or infixing
// words with *, @, #, -).
package rewrite

import (
	"sort"

	"repro/internal/automaton"
)

// Rule is one optional rewrite pair. From must be non-empty; To may be empty
// (an optional deletion).
type Rule struct {
	From string
	To   string
}

// Apply returns a DFA for the language of d augmented with every optional
// application of the rules: wherever a path spelling rule.From connects two
// states of d, an alternative path spelling rule.To is spliced between the
// same states (Appendix B's shortcut-edge construction, generalized from
// single tokens to arbitrary replacement strings).
//
// Rules are matched against paths of the *original* automaton only — one
// round of rewriting — so rules compose independently rather than cascading.
// Apply the function repeatedly for iterated rewriting.
func Apply(d *automaton.DFA, rules []Rule) *automaton.DFA {
	n := d.ToNFA()
	for _, r := range rules {
		if r.From == "" {
			continue
		}
		for u := 0; u < d.NumStates(); u++ {
			v, ok := followString(d, u, r.From)
			if !ok {
				continue
			}
			splice(n, u, v, r.To)
		}
	}
	return n.Determinize().Minimize()
}

// followString walks s through the DFA from state u, returning the end state.
func followString(d *automaton.DFA, u automaton.StateID, s string) (automaton.StateID, bool) {
	cur := u
	for i := 0; i < len(s); i++ {
		next, ok := d.Step(cur, int(s[i]))
		if !ok {
			return 0, false
		}
		cur = next
	}
	return cur, true
}

// splice adds a fresh chain spelling s from u to v in the NFA. An empty s
// becomes a single epsilon edge.
func splice(n *automaton.NFA, u, v automaton.StateID, s string) {
	if s == "" {
		n.AddEdge(u, automaton.Epsilon, v)
		return
	}
	cur := u
	for i := 0; i < len(s); i++ {
		var next automaton.StateID
		if i == len(s)-1 {
			next = v
		} else {
			next = n.AddState(false)
		}
		n.AddEdge(cur, int(s[i]), next)
		cur = next
	}
}

// Obligatory returns a DFA where every occurrence of rule.From must be
// rewritten: the result accepts the rewritten strings only (original paths
// through a matched occurrence are removed from the language when the
// occurrence is at a position the rule covers). It is implemented as the
// optional rewrite intersected with the complement of strings still
// containing any From as a factor. This is the functional (obligatory)
// variant §3.2 uses for canonical substitution.
func Obligatory(d *automaton.DFA, rules []Rule) *automaton.DFA {
	out := Apply(d, rules)
	alpha := out.Alphabet()
	for _, r := range rules {
		if r.From == "" {
			continue
		}
		// Strings containing From as a factor: Σ* From Σ*.
		contains := factorDFA(r.From, alpha)
		out = automaton.Difference(out, contains, alpha).Minimize()
	}
	return out
}

// factorDFA builds a DFA over alphabet, which is sorted, accepting Σ* s Σ*
// via the KMP failure function — states are match lengths 0..len(s), with
// len(s) absorbing.
func factorDFA(s string, alphabet []automaton.Symbol) *automaton.DFA {
	fail := kmpFailure(s)
	b := automaton.NewBuilder(len(s)+1, (len(s)+1)*len(alphabet))
	for i := 0; i < len(s); i++ {
		for _, sym := range alphabet {
			b.Edge(sym, kmpStep(s, fail, i, sym))
		}
		b.EndState(false)
	}
	for _, sym := range alphabet {
		b.Edge(sym, len(s))
	}
	b.EndState(true)
	return b.Build(0)
}

func kmpFailure(s string) []int {
	fail := make([]int, len(s))
	for i := 1; i < len(s); i++ {
		j := fail[i-1]
		for j > 0 && s[i] != s[j] {
			j = fail[j-1]
		}
		if s[i] == s[j] {
			j++
		}
		fail[i] = j
	}
	return fail
}

func kmpStep(s string, fail []int, matched int, sym automaton.Symbol) int {
	if sym < 0 || sym > 255 {
		return 0
	}
	c := byte(sym)
	j := matched
	for j > 0 && c != s[j] {
		j = fail[j-1]
	}
	if c == s[j] {
		j++
	}
	return j
}

// WordVariants expands each key of variants into an alternation with its
// values wherever the key occurs in d. It is Apply with rules built from a
// map, sorted for determinism.
func WordVariants(d *automaton.DFA, variants map[string][]string) *automaton.DFA {
	keys := make([]string, 0, len(variants))
	for k := range variants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rules []Rule
	for _, k := range keys {
		for _, v := range variants[k] {
			if v == k {
				continue
			}
			rules = append(rules, Rule{From: k, To: v})
		}
	}
	return Apply(d, rules)
}

// Homoglyphs is the default character-confusable table the toxicity study's
// qualitative analysis motivates: common leet/symbol substitutions observed
// bordering or replacing characters in profanity (§4.3, Appendix G).
func Homoglyphs() []Rule {
	return []Rule{
		{From: "a", To: "@"}, {From: "a", To: "4"},
		{From: "e", To: "3"},
		{From: "i", To: "1"}, {From: "i", To: "!"},
		{From: "o", To: "0"},
		{From: "s", To: "$"}, {From: "s", To: "5"},
		{From: "t", To: "7"},
		{From: "l", To: "1"},
		{From: "u", To: "v"},
	}
}

// CaseRules returns rules making the first character of word optionally
// upper- or lower-case.
func CaseRules(word string) []Rule {
	if word == "" {
		return nil
	}
	var rules []Rule
	c := word[0]
	switch {
	case c >= 'a' && c <= 'z':
		rules = append(rules, Rule{From: word, To: string(c-32) + word[1:]})
	case c >= 'A' && c <= 'Z':
		rules = append(rules, Rule{From: word, To: string(c+32) + word[1:]})
	}
	return rules
}
