package tokenizer

import "sort"

// trainReference is Train as first written: it recounts every pair of every
// word before each merge and scans the whole count map for the best pair. It
// shares nothing with Train but Pretokenize, applyMerge and lessPair, and it
// is the oracle Train's fingerprints are held to (TestTrainMatchesReference,
// FuzzTrain).
func trainReference(corpus []string, numMerges int) *BPE {
	b := &BPE{
		index: make(map[string]int, numByteTokens+numMerges+1),
		ranks: make(map[[2]Token]int, numMerges),
	}
	for i := 0; i < numByteTokens; i++ {
		s := string([]byte{byte(i)})
		b.vocab = append(b.vocab, s)
		b.index[s] = i
	}

	// Work on token sequences per corpus line, with line frequencies folded
	// in by deduplication.
	type seqEntry struct {
		toks  []Token
		count int
	}
	counts := map[string]int{}
	for _, line := range corpus {
		for _, pre := range Pretokenize(line) {
			counts[pre]++
		}
	}
	seqs := make([]seqEntry, 0, len(counts))
	keys := make([]string, 0, len(counts))
	for line := range counts {
		keys = append(keys, line)
	}
	sort.Strings(keys)
	for _, line := range keys {
		toks := make([]Token, len(line))
		for i := 0; i < len(line); i++ {
			toks[i] = int(line[i])
		}
		seqs = append(seqs, seqEntry{toks: toks, count: counts[line]})
	}

	for m := 0; m < numMerges; m++ {
		pairCount := map[[2]Token]int{}
		for _, se := range seqs {
			for i := 0; i+1 < len(se.toks); i++ {
				pairCount[[2]Token{se.toks[i], se.toks[i+1]}] += se.count
			}
		}
		if len(pairCount) == 0 {
			break
		}
		var best [2]Token
		bestCount := -1
		for p, c := range pairCount {
			if c > bestCount || (c == bestCount && lessPair(p, best)) {
				best, bestCount = p, c
			}
		}
		if bestCount < 2 {
			break // no productive merges left
		}
		surface := b.vocab[best[0]] + b.vocab[best[1]]
		if _, exists := b.index[surface]; exists {
			// The pair spells an existing token (possible when distinct merge
			// paths converge); record the rule against the existing ID.
			b.ranks[best] = len(b.merges)
			b.merges = append(b.merges, mergeRule{best[0], best[1], b.index[surface]})
		} else {
			id := len(b.vocab)
			b.vocab = append(b.vocab, surface)
			b.index[surface] = id
			b.ranks[best] = len(b.merges)
			b.merges = append(b.merges, mergeRule{best[0], best[1], id})
		}
		// Apply the merge to every sequence.
		for si := range seqs {
			seqs[si].toks = applyMerge(seqs[si].toks, best, b.index[surface])
		}
	}

	b.eos = len(b.vocab)
	b.vocab = append(b.vocab, "") // EOS has empty surface form
	return b
}

// TrainReference exports trainReference to this package's external tests
// (BenchmarkTrain).
var TrainReference = trainReference
