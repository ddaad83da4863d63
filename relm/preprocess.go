package relm

import (
	"fmt"
	"strings"

	"repro/internal/automaton"
	"repro/internal/levenshtein"
	"repro/internal/regex"
	"repro/internal/rewrite"
)

// SynonymExpand is a preprocessor that widens the pattern language with
// word-level synonym substitutions (§3.4: "synonym substitutions and minor
// misspellings should not significantly change the meaning of a language").
// Each occurrence of a key inside the pattern may independently be replaced
// by any of its variants; original strings always remain in the language.
type SynonymExpand struct {
	// Variants maps a surface form to its acceptable substitutes.
	Variants map[string][]string
}

// Transform implements Preprocessor.
func (s SynonymExpand) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	if len(s.Variants) == 0 {
		return d, nil
	}
	return rewrite.WordVariants(d, s.Variants), nil
}

// Name implements Preprocessor.
func (s SynonymExpand) Name() string { return "synonym-expand" }

// PlanKey implements PlanKeyer; map keys are sorted so the key is stable
// across iteration orders.
func (s SynonymExpand) PlanKey() string {
	var b strings.Builder
	b.WriteString("synonym")
	for _, k := range sortedKeys(s.Variants) {
		fmt.Fprintf(&b, ":%q=%q", k, s.Variants[k])
	}
	return b.String()
}

// HomoglyphExpand widens the pattern with character-confusable (leet-speak)
// substitutions — the masking strategy the toxicity study observes in
// extracted content (§4.3: special characters and phonetic misspellings in
// the bad words). With no explicit rules, the default table from
// rewrite.Homoglyphs is used.
type HomoglyphExpand struct {
	// Rules overrides the default confusable table when non-nil.
	Rules []rewrite.Rule
}

// Transform implements Preprocessor.
func (h HomoglyphExpand) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	rules := h.Rules
	if rules == nil {
		rules = rewrite.Homoglyphs()
	}
	return rewrite.Apply(d, rules), nil
}

// Name implements Preprocessor.
func (h HomoglyphExpand) Name() string { return "homoglyph-expand" }

// PlanKey implements PlanKeyer. A nil rule set resolves to the default
// table, which is fixed at build time, so "default" is a stable key for it.
func (h HomoglyphExpand) PlanKey() string {
	if h.Rules == nil {
		return "homoglyph:default"
	}
	return "homoglyph:" + ruleKey(h.Rules)
}

// ruleKey renders rewrite rules unambiguously: %q-quoting each side keeps
// {From:"a b", To:"c"} and {From:"a", To:"b c"} distinct, which plain %v
// would collapse — and colliding plan-cache keys would serve one query
// another query's compiled automaton.
func ruleKey(rules []rewrite.Rule) string {
	var b strings.Builder
	for _, r := range rules {
		fmt.Fprintf(&b, "%q>%q;", r.From, r.To)
	}
	return b.String()
}

// CaseVariants makes the leading character of each listed word optionally
// flip case wherever the word occurs in the pattern, so "the cat" also
// admits "The cat" without the query author enumerating capitalizations.
type CaseVariants struct {
	Words []string
}

// Transform implements Preprocessor.
func (c CaseVariants) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	var rules []rewrite.Rule
	for _, w := range c.Words {
		if w == "" {
			return nil, fmt.Errorf("relm: empty word in CaseVariants")
		}
		rules = append(rules, rewrite.CaseRules(w)...)
	}
	if len(rules) == 0 {
		return d, nil
	}
	return rewrite.Apply(d, rules), nil
}

// Name implements Preprocessor.
func (c CaseVariants) Name() string { return "case-variants" }

// PlanKey implements PlanKeyer.
func (c CaseVariants) PlanKey() string { return wordListKey("case-variants:", c.Words) }

// RewriteRules applies caller-supplied optional rewrite rules directly — the
// generic transducer preprocessor of §3.4. Obligatory selects the functional
// variant in which matched occurrences must be rewritten.
type RewriteRules struct {
	Rules      []rewrite.Rule
	Obligatory bool
}

// Transform implements Preprocessor.
func (r RewriteRules) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	if len(r.Rules) == 0 {
		return d, nil
	}
	if r.Obligatory {
		return rewrite.Obligatory(d, r.Rules), nil
	}
	return rewrite.Apply(d, r.Rules), nil
}

// Name implements Preprocessor.
func (r RewriteRules) Name() string { return "rewrite-rules" }

// PlanKey implements PlanKeyer.
func (r RewriteRules) PlanKey() string {
	return fmt.Sprintf("rewrite:%v:%s", r.Obligatory, ruleKey(r.Rules))
}

// RequireMatch intersects the pattern language with another regular
// expression — the algebraic composition §2.3 describes. Useful to impose a
// side constraint (e.g. "must also contain a digit") without rewriting the
// main pattern.
type RequireMatch struct {
	Pattern string
}

// Transform implements Preprocessor.
func (r RequireMatch) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	other, err := regex.Compile(r.Pattern)
	if err != nil {
		return nil, fmt.Errorf("relm: RequireMatch pattern: %w", err)
	}
	return automaton.Intersect(d, other).Minimize(), nil
}

// Name implements Preprocessor.
func (r RequireMatch) Name() string { return "require-match" }

// PlanKey implements PlanKeyer.
func (r RequireMatch) PlanKey() string { return fmt.Sprintf("require:%q", r.Pattern) }

// ExcludeMatch subtracts another regular expression from the pattern
// language — the regex-level generalization of RemoveWords (a filter in the
// §3.4 sense, applied at compile time).
type ExcludeMatch struct {
	Pattern string
}

// Transform implements Preprocessor.
func (e ExcludeMatch) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	other, err := regex.Compile(e.Pattern)
	if err != nil {
		return nil, fmt.Errorf("relm: ExcludeMatch pattern: %w", err)
	}
	alpha := levenshtein.SortedAlphabetUnion(levenshtein.AlphabetOf(d), levenshtein.AlphabetOf(other))
	syms := make([]automaton.Symbol, len(alpha))
	for i, b := range alpha {
		syms[i] = int(b)
	}
	return automaton.Difference(d, other, syms).Minimize(), nil
}

// Name implements Preprocessor.
func (e ExcludeMatch) Name() string { return "exclude-match" }

// PlanKey implements PlanKeyer.
func (e ExcludeMatch) PlanKey() string { return fmt.Sprintf("exclude:%q", e.Pattern) }
