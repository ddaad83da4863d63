package model

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
)

// serializedNGram is the on-disk form of a trained n-gram model. Histories
// are stored as token-ID slices (JSON-friendly, unlike the internal packed
// string keys).
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

// Save writes the model to w as JSON, histories and next tokens in key
// order, so a model always writes the same bytes.
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
		Tables:      make([][]serializedHistory, m.order),
	}
	for k := 0; k < m.order; k++ {
		for _, hist := range slices.Sorted(maps.Keys(m.counts[k])) {
			sc := m.counts[k][hist]
			sh := serializedHistory{History: decodeKey(hist)}
			for _, t := range slices.Sorted(maps.Keys(sc.next)) {
				sh.Next = append(sh.Next, t)
				sh.Counts = append(sh.Counts, sc.next[t])
			}
			s.Tables[k] = append(s.Tables[k], sh)
		}
	}
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(&s); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return bw.Flush()
}

// maxNGramVocab bounds a loaded vocabulary: a history key holds each token
// in two bytes (Key).
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
	m := &NGram{
		order:       s.Order,
		vocab:       s.Vocab,
		eos:         s.EOS,
		seqLen:      s.MaxSeqLen,
		lambda:      s.Lambda,
		alpha:       s.Alpha,
		cacheWeight: s.CacheWeight,
		counts:      make([]map[string]*sparseCounts, s.Order),
	}
	outside := func(t Token) bool { return t < 0 || t >= s.Vocab }
	for k := 0; k < s.Order; k++ {
		m.counts[k] = make(map[string]*sparseCounts, len(s.Tables[k]))
		for _, sh := range s.Tables[k] {
			if len(sh.History) != k {
				return nil, fmt.Errorf("model: load: history of length %d in order-%d table", len(sh.History), k)
			}
			if slices.ContainsFunc(sh.History, outside) {
				return nil, fmt.Errorf("model: load: history %v outside vocabulary", sh.History)
			}
			if len(sh.Next) != len(sh.Counts) {
				return nil, fmt.Errorf("model: load: ragged counts for history %v", sh.History)
			}
			key := Key(sh.History)
			if _, dup := m.counts[k][key]; dup {
				return nil, fmt.Errorf("model: load: history %v listed twice", sh.History)
			}
			sc := &sparseCounts{next: make(map[Token]int, len(sh.Next))}
			for i, t := range sh.Next {
				c := sh.Counts[i]
				switch _, dup := sc.next[t]; {
				case outside(t):
					return nil, fmt.Errorf("model: load: token %d out of vocabulary", t)
				case c <= 0:
					return nil, fmt.Errorf("model: load: non-positive count for token %d", t)
				case dup:
					return nil, fmt.Errorf("model: load: token %d listed twice after history %v", t, sh.History)
				case sc.total > math.MaxInt-c:
					return nil, fmt.Errorf("model: load: counts after history %v overflow", sh.History)
				}
				sc.next[t] = c
				sc.total += c
			}
			m.counts[k][key] = sc
		}
	}
	return m, nil
}

// decodeKey inverts Key's packed encoding.
func decodeKey(s string) []Token {
	out := make([]Token, 0, len(s)/2)
	for i := 0; i+1 < len(s); i += 2 {
		out = append(out, int(s[i])|int(s[i+1])<<8)
	}
	return out
}
