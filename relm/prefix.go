package relm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/automaton"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/tokenizer"
)

// prefixLanguage is the compiled prefix regex together with its resolved
// enumeration budget — the §3.4 prefix handling Search, Explain, and Mass
// share. The prefix is itself a regex; its strings are enumerated (budget
// permitting) and canonically encoded, except for random sampling, which
// draws walks from the byte automaton directly. Each product — the size, the
// encoded strings, the walk-count table — is computed on first use under its
// own sync.Once and never changes after, so the model's prefix cache shares
// one entry across concurrent queries.
type prefixLanguage struct {
	char   *automaton.DFA // byte-alphabet automaton of the prefix regex
	tok    *tokenizer.BPE
	limit  int
	maxLen int

	sizeOnce sync.Once
	size     int64

	encodeOnce sync.Once
	encoded    [][]model.Token
	encodeErr  error

	walksOnce sync.Once
	walks     *automaton.WalkCounter
}

// compilePrefix resolves q's prefix through m's prefix cache, compiling it on
// a miss (DESIGN.md decision 9). It returns (nil, nil) when the query has no
// prefix; the only error is a malformed prefix regex, which is not cached.
// The lowering resolves q's budgets first.
func compilePrefix(m *Model, q *SearchQuery) (*prefixLanguage, error) {
	if q.Query.Prefix == "" {
		return nil, nil
	}
	compile := func() (*prefixLanguage, error) {
		char, err := regex.Compile(q.Query.Prefix)
		if err != nil {
			return nil, fmt.Errorf("relm: prefix: %w", err)
		}
		return &prefixLanguage{char: char, tok: m.Tok, limit: q.PrefixLimit, maxLen: q.PrefixMaxLen}, nil
	}
	if m.prefixes == nil {
		return compile()
	}
	p, _, err := m.prefixes.get(prefixKey(m, q), compile)
	return p, err
}

// Size is the exact string count within the byte budget, or -1 when the
// language is unbounded or exceeds the enumeration limit. The random-sampling
// path never needs it.
func (p *prefixLanguage) Size() int64 {
	p.sizeOnce.Do(func() {
		p.size = p.char.LanguageSize(p.maxLen)
		if p.size > int64(p.limit) {
			p.size = -1
		}
	})
	return p.size
}

// Encode enumerates the prefix language and canonically encodes every string
// for the model context. It errors when the language exceeds the budget
// (deterministic traversals refuse oversized prefix sets; size checking
// happens via walk counting before enumeration, so a huge language never
// explodes the BFS frontier) or is empty. The slices are shared by every
// query of the entry: read them, never write them.
func (p *prefixLanguage) Encode() ([][]model.Token, error) {
	p.encodeOnce.Do(func() { p.encoded, p.encodeErr = p.encode() })
	return p.encoded, p.encodeErr
}

func (p *prefixLanguage) encode() ([][]model.Token, error) {
	if p.Size() < 0 {
		return nil, fmt.Errorf("relm: prefix language exceeds %d strings; restrict the prefix or raise PrefixLimit", p.limit)
	}
	strs := p.char.EnumerateStrings(p.maxLen, p.limit+1)
	if len(strs) == 0 {
		return nil, errors.New("relm: " + p.emptyReason())
	}
	out := make([][]model.Token, len(strs))
	for i, s := range strs {
		out[i] = p.tok.Encode(s)
	}
	return out, nil
}

// emptyReason says why the prefix language has no string to use: the regex
// denotes none, or none fits the byte budget.
func (p *prefixLanguage) emptyReason() string {
	if p.char.IsEmpty() {
		return "prefix language is empty"
	}
	return fmt.Sprintf("prefix language is empty under PrefixMaxLen=%d: every string is longer", p.maxLen)
}

// Walks returns the walk counts random sampling draws prefixes from: each
// string is exactly one path of the byte automaton, so walks drawn uniformly
// are strings drawn uniformly (§3.3), bounded at the byte budget.
func (p *prefixLanguage) Walks() *automaton.WalkCounter {
	p.walksOnce.Do(func() { p.walks = automaton.NewWalkCounter(p.char, p.maxLen) })
	return p.walks
}
