package model

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// serializedNGram is the on-disk form of a trained n-gram model. Histories
// are stored as token-ID slices, oldest token first.
type serializedNGram struct {
	Format      string  `json:"format"`
	Order       int     `json:"order"`
	Vocab       int     `json:"vocab"`
	EOS         Token   `json:"eos"`
	MaxSeqLen   int     `json:"max_seq_len"`
	Lambda      float64 `json:"lambda"`
	Alpha       float64 `json:"alpha"`
	CacheWeight float64 `json:"cache_weight"`
	// Tables[k] lists the observed histories of length k with their
	// next-token counts.
	Tables [][]serializedHistory `json:"tables"`
}

type serializedHistory struct {
	History []Token `json:"h"`
	Next    []Token `json:"t"` // token IDs ...
	Counts  []int   `json:"c"` // ... and their counts, parallel
}

// ngramFormat identifies the serialization schema.
const ngramFormat = "relm-ngram-v1"

// Save writes the model to w as JSON, histories in key order and next tokens
// ascending, so a model always writes the same bytes.
func (m *NGram) Save(w io.Writer) error {
	s := serializedNGram{
		Format:      ngramFormat,
		Order:       m.order,
		Vocab:       m.vocab,
		EOS:         m.eos,
		MaxSeqLen:   m.seqLen,
		Lambda:      m.lambda,
		Alpha:       m.alpha,
		CacheWeight: m.cacheWeight,
		Tables:      m.tables(),
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(&s); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return bw.Flush()
}

// tables lists the histories the model reads, as Save writes them: each
// length's in the order of their Key bytes, with their next tokens
// ascending.
func (m *NGram) tables() [][]serializedHistory {
	t := m.table
	parent := make([]int32, len(t.tok))
	for p := range len(t.tok) {
		for c := t.kids[p]; c < t.kids[p+1]; c++ {
			parent[c] = int32(p)
		}
	}
	tables := make([][]serializedHistory, m.order)
	for k := 0; k < m.order && k+1 < len(t.level); k++ {
		for n := t.level[k]; n < t.level[k+1]; n++ {
			if t.total[n] < 0 {
				continue
			}
			// A node's history, oldest token first, is its token, then its
			// parent's, and so on up to the root.
			sh := serializedHistory{History: make([]Token, k)}
			for i, a := 0, n; i < k; i, a = i+1, parent[a] {
				sh.History[i] = Token(t.tok[a])
			}
			for i := t.run[n]; i < t.run[n+1]; i++ {
				sh.Next = append(sh.Next, Token(t.next[i]))
				sh.Counts = append(sh.Counts, t.count[i])
			}
			tables[k] = append(tables[k], sh)
		}
		slices.SortFunc(tables[k], func(a, b serializedHistory) int {
			return slices.CompareFunc(a.History, b.History, keyOrder)
		})
	}
	return tables
}

// keyOrder compares two tokens as their Key encodings, low byte first, do.
func keyOrder(a, b Token) int {
	return cmp.Compare((a&0xff)<<8|a>>8, (b&0xff)<<8|b>>8)
}

// maxNGramVocab bounds a loaded vocabulary: Save orders histories by their
// Key encodings, which hold each token in two bytes.
const maxNGramVocab = 1 << 16

// LoadNGram reconstructs a model from a Save stream. An artifact is outside
// input, so its header is checked before anything vocabulary-sized is
// allocated, and every table entry as it is read: a model it returns scores
// every context to a normalized row.
func LoadNGram(r io.Reader) (*NGram, error) {
	var s serializedNGram
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&s); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	switch {
	case s.Format != ngramFormat:
		return nil, fmt.Errorf("model: load: unknown format %q", s.Format)
	case s.Order < 1 || s.Vocab < 1 || len(s.Tables) != s.Order:
		return nil, fmt.Errorf("model: load: malformed header (order=%d, vocab=%d, tables=%d)",
			s.Order, s.Vocab, len(s.Tables))
	case s.Vocab > maxNGramVocab:
		return nil, fmt.Errorf("model: load: vocab %d beyond %d", s.Vocab, maxNGramVocab)
	case s.EOS < 0 || s.EOS >= s.Vocab:
		return nil, fmt.Errorf("model: load: eos %d outside vocab %d", s.EOS, s.Vocab)
	case s.MaxSeqLen < 1:
		return nil, fmt.Errorf("model: load: max_seq_len %d", s.MaxSeqLen)
	case !(s.Alpha > 0) || math.IsInf(s.Alpha*float64(s.Vocab), 0):
		// The smoothing floor alpha/(alpha·vocab + counts) gives every
		// token mass; at 0 a model with no unigram counts divides 0 by 0.
		return nil, fmt.Errorf("model: load: alpha %g", s.Alpha)
	case !(s.Lambda >= 0 && s.Lambda <= 1) || !(s.CacheWeight >= 0 && s.CacheWeight <= 1):
		return nil, fmt.Errorf("model: load: mixing weights lambda %g, cache_weight %g outside [0, 1]", s.Lambda, s.CacheWeight)
	}
	outside := func(t Token) bool { return t < 0 || t >= s.Vocab }
	for k, table := range s.Tables {
		for i := range table {
			sh := &table[i]
			if len(sh.History) != k {
				return nil, fmt.Errorf("model: load: history of length %d in order-%d table", len(sh.History), k)
			}
			if slices.ContainsFunc(sh.History, outside) {
				return nil, fmt.Errorf("model: load: history %v outside vocabulary", sh.History)
			}
			if len(sh.Next) != len(sh.Counts) {
				return nil, fmt.Errorf("model: load: ragged counts for history %v", sh.History)
			}
			total := 0
			for i, t := range sh.Next {
				c := sh.Counts[i]
				switch {
				case outside(t):
					return nil, fmt.Errorf("model: load: token %d out of vocabulary", t)
				case c <= 0:
					return nil, fmt.Errorf("model: load: non-positive count for token %d", t)
				case total > math.MaxInt-c:
					return nil, fmt.Errorf("model: load: counts after history %v overflow", sh.History)
				}
				total += c
			}
			sort.Sort(nextOrder{sh})
			for i := 1; i < len(sh.Next); i++ {
				if sh.Next[i] == sh.Next[i-1] {
					return nil, fmt.Errorf("model: load: token %d listed twice after history %v", sh.Next[i], sh.History)
				}
			}
		}
	}
	m := &NGram{
		order:       s.Order,
		vocab:       s.Vocab,
		eos:         s.EOS,
		seqLen:      s.MaxSeqLen,
		lambda:      s.Lambda,
		alpha:       s.Alpha,
		cacheWeight: s.CacheWeight,
	}
	var err error
	if m.table, err = layOut(s.Tables, s.Vocab); err != nil {
		return nil, err
	}
	return newNGram(m), nil
}

// nextOrder sorts a history's next tokens, and their counts with them.
type nextOrder struct{ *serializedHistory }

func (o nextOrder) Len() int           { return len(o.Next) }
func (o nextOrder) Less(i, j int) bool { return o.Next[i] < o.Next[j] }
func (o nextOrder) Swap(i, j int) {
	o.Next[i], o.Next[j] = o.Next[j], o.Next[i]
	o.Counts[i], o.Counts[j] = o.Counts[j], o.Counts[i]
}

// layOut builds the count table of checked tables (their next tokens sorted)
// in any order. The trie needs every suffix of a listed history; one the
// artifact does not list is a node with no counts (total −1), which scoring
// passes through and Save leaves out.
func layOut(tables [][]serializedHistory, vocab int) (*countTable, error) {
	// need[k] lists the reversed histories of length k the trie holds; sh is
	// nil for a suffix the artifact does not list.
	type entry struct {
		rev []Token
		sh  *serializedHistory
	}
	need := make([][]entry, len(tables))
	for k := len(tables) - 1; k >= 0; k-- {
		for i := range tables[k] {
			sh := &tables[k][i]
			rev := slices.Clone(sh.History)
			slices.Reverse(rev)
			need[k] = append(need[k], entry{rev, sh})
		}
		if k+1 < len(tables) {
			for _, e := range need[k+1] {
				need[k] = append(need[k], entry{rev: e.rev[:k]})
			}
		}
		if k == 0 && len(need[0]) == 0 {
			need[0] = []entry{{}} // the root is always a node
		}
		// Listed before unlisted, so a duplicate after the first of a run
		// of equal histories is either unlisted or listed twice.
		slices.SortFunc(need[k], func(a, b entry) int {
			return cmp.Or(slices.Compare(a.rev, b.rev), cmp.Compare(bool2int(b.sh != nil), bool2int(a.sh != nil)))
		})
		kept := need[k][:0]
		for _, e := range need[k] {
			if len(kept) > 0 && slices.Equal(kept[len(kept)-1].rev, e.rev) {
				if e.sh != nil {
					return nil, fmt.Errorf("model: load: history %v listed twice", e.sh.History)
				}
				continue
			}
			kept = append(kept, e)
		}
		need[k] = kept
	}
	t := &countTable{}
	var parent []int32
	for k := 0; k < len(need) && len(need[k]) > 0; k++ {
		t.level = append(t.level, int32(len(t.tok)))
		p := int32(-1)
		if k > 0 {
			p = t.level[k-1]
		}
		for _, e := range need[k] {
			tok := int32(-1)
			if k > 0 {
				// Both lengths are in reversed-history order, so the
				// parents of successive nodes never move back.
				for !slices.Equal(need[k-1][p-t.level[k-1]].rev, e.rev[:k-1]) {
					p++
				}
				tok = int32(e.rev[k-1])
			}
			t.tok = append(t.tok, tok)
			parent = append(parent, p)
			t.run = append(t.run, int32(len(t.next)))
			if e.sh == nil {
				t.total = append(t.total, -1)
				continue
			}
			total := 0
			for i, next := range e.sh.Next {
				t.next = append(t.next, int32(next))
				t.count = append(t.count, e.sh.Counts[i])
				total += e.sh.Counts[i]
			}
			t.total = append(t.total, total)
		}
	}
	t.level = append(t.level, int32(len(t.tok)))
	t.finish(parent, vocab)
	return t, nil
}
