package model

import (
	"bufio"
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"slices"
	"sync"

	"repro/internal/tokenizer"
)

// RaceEnabled exports raceEnabled to this package's external tests.
const RaceEnabled = raceEnabled

// sparseCounts is one history's next-token counts as NGram kept them before
// the frozen count table.
type sparseCounts struct {
	total int
	next  map[Token]int
}

// refCounts is a count table as NGram kept it before the frozen count table:
// per history length, a map from Key(history) to its next-token counts.
type refCounts []map[string]*sparseCounts

var refTables sync.Map // *NGram -> refCounts

// counts returns m's count table in the reference form. It is read from m's
// saved artifact, so no lookup goes through the frozen table, and kept per
// model.
func (m *NGram) counts() refCounts {
	if c, ok := refTables.Load(m); ok {
		return c.(refCounts)
	}
	var buf bytes.Buffer
	var s serializedNGram
	if err := m.Save(&buf); err != nil {
		panic(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		panic(err)
	}
	c := make(refCounts, m.order)
	for k, table := range s.Tables {
		c[k] = map[string]*sparseCounts{}
		for _, sh := range table {
			sc := &sparseCounts{next: map[Token]int{}}
			for i, t := range sh.Next {
				sc.next[t] = sh.Counts[i]
				sc.total += sh.Counts[i]
			}
			c[k][Key(sh.History)] = sc
		}
	}
	refTables.Store(m, c)
	return c
}

// NextLogProbsRef is NGram.NextLogProbs as it stood before the row was a
// copied template and before the row was reused for the logs and the
// context-cache boost stopped building a map: histories looked up by key in
// maps of maps, every token scaled at each observed history, a second
// V-sized row for the logs and a per-call map[Token]float64 for the boost.
// It is the bit-identity oracle for the current implementation
// (ngram_oracle_test.go); exported only to this package's external tests.
func (m *NGram) NextLogProbsRef(ctx []Token) []float64 {
	counts := m.counts()
	probs := make([]float64, m.vocab)
	uni := counts[0][""]
	denom := m.alpha * float64(m.vocab)
	if uni != nil {
		denom += float64(uni.total)
	}
	base := m.alpha / denom
	for i := range probs {
		probs[i] = base
	}
	if uni != nil {
		for t, c := range uni.next {
			probs[t] += float64(c) / denom
		}
	}
	for k := 1; k < m.order; k++ {
		if k > len(ctx) {
			break
		}
		hist := Key(ctx[len(ctx)-k:])
		sc, ok := counts[k][hist]
		if !ok || sc.total == 0 {
			continue
		}
		for i := range probs {
			probs[i] *= (1 - m.lambda)
		}
		for t, c := range sc.next {
			probs[t] += m.lambda * float64(c) / float64(sc.total)
		}
	}
	if m.cacheWeight > 0 && len(ctx) > 0 {
		idf := func(t Token) float64 {
			c := 0
			if uni != nil {
				c = uni.next[t]
			}
			v := 1 / float64(1+c)
			return v * v
		}
		cache := map[Token]float64{}
		total := 0.0
		for _, t := range ctx {
			w := idf(t)
			cache[t] += w
			total += w
		}
		if total > 0 {
			for i := range probs {
				probs[i] *= (1 - m.cacheWeight)
			}
			for t, w := range cache {
				probs[t] += m.cacheWeight * w / total
			}
		}
	}
	out := make([]float64, m.vocab)
	for i, p := range probs {
		out[i] = math.Log(p)
	}
	return out
}

// TrainNGramRefArtifact is TrainNGram and Save as they stood before the
// frozen count table: a key string for every (position, history length),
// maps of maps for the counts, and the artifact written from the maps in key
// order. It is the artifact oracle for TrainNGram
// (TestTrainedArtifactIsReferenceBytes); exported only to this package's
// external tests.
func TrainNGramRefArtifact(corpus []string, tok tokenizer.Tokenizer, cfg NGramConfig) []byte {
	m := TrainNGrams(nil, tok, cfg)[0]
	counts := make(refCounts, m.order)
	for k := range counts {
		counts[k] = map[string]*sparseCounts{}
	}
	for _, line := range corpus {
		seq := append(tok.Encode(line), tok.EOS())
		for i := 0; i < len(seq); i++ {
			for k := 0; k < m.order; k++ {
				if i-k < 0 {
					break
				}
				hist := Key(seq[i-k : i])
				sc, ok := counts[k][hist]
				if !ok {
					sc = &sparseCounts{next: map[Token]int{}}
					counts[k][hist] = sc
				}
				sc.next[seq[i]]++
				sc.total++
			}
		}
	}
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
		for _, hist := range slices.Sorted(maps.Keys(counts[k])) {
			sc := counts[k][hist]
			sh := serializedHistory{History: decodeKeyRef(hist)}
			for _, t := range slices.Sorted(maps.Keys(sc.next)) {
				sh.Next = append(sh.Next, t)
				sh.Counts = append(sh.Counts, sc.next[t])
			}
			s.Tables[k] = append(s.Tables[k], sh)
		}
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := json.NewEncoder(bw).Encode(&s); err != nil {
		panic(err)
	}
	bw.Flush()
	return buf.Bytes()
}

// TrainNGramRef is the model TrainNGramRefArtifact's artifact loads to.
func TrainNGramRef(corpus []string, tok tokenizer.Tokenizer, cfg NGramConfig) *NGram {
	m, err := LoadNGram(bytes.NewReader(TrainNGramRefArtifact(corpus, tok, cfg)))
	if err != nil {
		panic(err)
	}
	return m
}

// decodeKeyRef inverts Key's packed encoding.
func decodeKeyRef(s string) []Token {
	out := make([]Token, 0, len(s)/2)
	for i := 0; i+1 < len(s); i += 2 {
		out = append(out, int(s[i])|int(s[i+1])<<8)
	}
	return out
}
