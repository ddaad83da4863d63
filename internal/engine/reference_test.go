package engine

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/automaton"
	"repro/internal/cache"
	"repro/internal/compiler"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/regex"
)

// This file keeps the per-child expansion the engines used before frontier
// nodes were expanded once per parent — every child copies its context when
// it is generated, is checked by Filter.AllowPartial on its own pattern, and
// reads a fully reweighted Allowed vector — as the differential oracle for
// the per-parent expansion. Shortest path and beam here build every child
// eagerly: shortest path pushes them all onto one node heap, beam sorts all
// of a level's children before it truncates. Both order by the frontier
// order (DESIGN.md decision 6), so any divergence is the production side's
// lazy siblings, cursors or per-hypothesis cut. Each reference states the
// expansion rule over again on purpose: production has it once
// (Query.expand), so an edit to it shows against all three.

func refAppendToken(ctx []model.Token, t model.Token) []model.Token {
	out := make([]model.Token, len(ctx)+1)
	copy(out, ctx)
	out[len(ctx)] = t
	return out
}

// contexts returns each node's own context, in order, built one node at a
// time.
func contexts[N interface{ context() []model.Token }](nodes []N) [][]model.Token {
	ctxs := make([][]model.Token, len(nodes))
	for i, n := range nodes {
		ctxs[i] = n.context()
	}
	return ctxs
}

// refChild is an eagerly built child of the node discovered as from.
func refChild(n *node, e automaton.Edge, lp []float64, from int64) *node {
	return &node{
		path:     path{ctx: refAppendToken(n.ctx, e.Sym)},
		state:    e.To,
		patLen:   n.patLen + 1,
		cost:     n.cost - lp[e.Sym],
		prefLogP: n.prefLogP,
		from:     from,
		rank:     uint32(e.Sym),
	}
}

// refMatch is n's match, discovered with n as from.
func refMatch(n *node, from int64) *node {
	return &node{path: path{ctx: n.ctx}, state: n.state, patLen: n.patLen,
		cost: n.cost, prefLogP: n.prefLogP, from: from, rank: refMatchRank}
}

// refMatchRank ranks a match after every child of its node.
const refMatchRank = math.MaxUint32

func refIsMatch(n *node) bool { return n.rank == refMatchRank }

func refAllowPartial(q *Query, pattern []model.Token) bool {
	return q.Filter == nil || q.Filter.AllowPartial(pattern)
}

func refAllowFinal(q *Query, pattern []model.Token) bool {
	return q.Filter == nil || q.Filter.AllowFinal(pattern)
}

// refChildrenOf is dijkstraStream.childrenOf as it was, for the node
// discovered as from.
func refChildrenOf(m model.LanguageModel, q *Query, n *node, lp []float64, from int64) []*node {
	var out []*node
	filtered := decoding.Allowed(q.Rule, lp, nil)
	if n.patLen < q.MaxTokens {
		for _, e := range q.Pattern.Edges(n.state) {
			if filtered[e.Sym] == model.NegInf {
				continue
			}
			child := refChild(n, e, lp, from)
			if !refAllowPartial(q, child.ctx[len(child.ctx)-child.patLen:]) {
				continue
			}
			out = append(out, child)
		}
	}
	if !q.Pattern.Accepting(n.state) || n.patLen == 0 {
		return out
	}
	if !refAllowFinal(q, n.ctx[len(n.ctx)-n.patLen:]) {
		return out
	}
	term := refMatch(n, from)
	if q.RequireEOS {
		if filtered[m.EOS()] == model.NegInf {
			return out
		}
		term.cost -= lp[m.EOS()]
	}
	return append(out, term)
}

// refBefore is the frontier order, written out apart from order.compare:
// cost, then the discovery order of the node an entry was spawned from, then
// its rank among that node's siblings.
func refBefore(a, b *node) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.rank < b.rank
}

// refHeap is the eager frontier: every child is pushed when its parent is
// expanded.
type refHeap []*node

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return refBefore(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*node)) }
func (h *refHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	*h = old[:len(old)-1]
	return n
}

// refShortestPath drains up to limit results through the old expansion.
func refShortestPath(dev *device.Device, query *Query, limit int) ([]Result, Stats) {
	q := normalizeQuery(dev, query)
	defer q.cancel()
	var stats Stats
	var h refHeap
	logPs, calls := must2(scoreSequences(dev, q.Prefixes))
	stats.ModelCalls += calls
	for pi, p := range q.Prefixes {
		heap.Push(&h, &node{path: rootPath(p), state: q.Pattern.Start(), cost: -logPs[pi], prefLogP: logPs[pi], from: int64(pi)})
	}
	seq := int64(len(q.Prefixes))
	var out []Result
	batchSize := EffectiveBatch(dev, q.BatchExpand)
	for h.Len() > 0 && len(out) < limit {
		if refIsMatch(h[0]) {
			out = append(out, *heap.Pop(&h).(*node).result())
			stats.Emitted++
			continue
		}
		if stats.NodesExpanded >= int64(q.MaxNodes) {
			break
		}
		var batch []*node
		for len(batch) < batchSize && h.Len() > 0 && !refIsMatch(h[0]) &&
			stats.NodesExpanded+int64(len(batch)) < int64(q.MaxNodes) {
			batch = append(batch, heap.Pop(&h).(*node))
		}
		lps := must(scoreFrontier(dev, q, contexts(batch)))
		stats.ModelCalls += int64(len(batch))
		stats.NodesExpanded += int64(len(batch))
		for i, n := range batch {
			for _, c := range refChildrenOf(dev.Model(), q, n, lps[i], seq+int64(i)) {
				heap.Push(&h, c)
			}
		}
		seq += int64(len(batch))
	}
	return out, stats
}

// refBeam is the beam as it was before its levels were lazy, every child of
// a level built before the level is truncated and every level run before the
// first match is emitted. It returns every result in order, the stats of a
// stream closed after each (at[k-1] after the k-th result), and the stats of
// the full run. A stream closed after k results has run the stages — levels,
// then the final harvest — through the first after which the k-th match is
// harvested and costs no more than any hypothesis left in the beam.
func refBeam(dev *device.Device, query *Query, width int) (out []Result, at []Stats, full Stats) {
	q := normalizeQuery(dev, query)
	defer q.cancel()
	m := dev.Model()
	var stats Stats
	var beam, done []*node
	sortNodes := func(ns []*node) {
		sort.Slice(ns, func(i, j int) bool { return refBefore(ns[i], ns[j]) })
	}
	truncate := func() {
		sortNodes(beam)
		if len(beam) > width {
			beam = beam[:width]
		}
	}
	// stages[i] is the stats through stage i and the least cost left in the
	// beam after it; harvested is the stage each match was harvested in.
	type stage struct {
		stats Stats
		least float64
	}
	var stages []stage
	harvested := map[*node]int{}
	endStage := func() {
		least := math.Inf(1)
		for _, n := range beam {
			least = min(least, n.cost)
		}
		stages = append(stages, stage{stats, least})
	}
	logPs, calls := must2(scoreSequences(dev, q.Prefixes))
	stats.ModelCalls += calls
	for pi, p := range q.Prefixes {
		beam = append(beam, &node{path: rootPath(p), state: q.Pattern.Start(), cost: -logPs[pi], prefLogP: logPs[pi], from: int64(pi)})
	}
	seq := int64(len(q.Prefixes))
	truncate()
	type slot struct {
		term     *node
		children []*node
	}
	for step := 0; step < q.MaxTokens && len(beam) > 0; step++ {
		lps := must(scoreFrontier(dev, q, contexts(beam)))
		stats.ModelCalls += int64(len(beam))
		stats.NodesExpanded += int64(len(beam))
		slots := make([]slot, len(beam))
		for i := range beam {
			n, lp, from := beam[i], lps[i], seq+int64(i)
			filtered := decoding.Allowed(q.Rule, lp, nil)
			if q.Pattern.Accepting(n.state) && n.patLen > 0 && refAllowFinal(q, n.ctx[len(n.ctx)-n.patLen:]) {
				term := refMatch(n, from)
				if !q.RequireEOS {
					slots[i].term = term
				} else if filtered[m.EOS()] != model.NegInf {
					term.cost -= lp[m.EOS()]
					slots[i].term = term
				}
			}
			for _, e := range q.Pattern.Edges(n.state) {
				if filtered[e.Sym] == model.NegInf {
					continue
				}
				child := refChild(n, e, lp, from)
				if refAllowPartial(q, child.ctx[len(child.ctx)-child.patLen:]) {
					slots[i].children = append(slots[i].children, child)
				}
			}
		}
		seq += int64(len(beam))
		beam = nil
		for _, sl := range slots {
			if sl.term != nil {
				harvested[sl.term] = len(stages)
				done = append(done, sl.term)
			}
			beam = append(beam, sl.children...)
		}
		truncate()
		endStage()
	}
	var finals []*node
	for i, n := range beam {
		if q.Pattern.Accepting(n.state) && n.patLen > 0 && refAllowFinal(q, n.ctx[len(n.ctx)-n.patLen:]) {
			finals = append(finals, refMatch(n, seq+int64(i)))
		}
	}
	if q.RequireEOS && len(finals) > 0 {
		lps := must(scoreFrontier(dev, q, contexts(finals)))
		stats.ModelCalls += int64(len(finals))
		kept := finals[:0]
		for i, n := range finals {
			if decoding.Allowed(q.Rule, lps[i], nil)[m.EOS()] != model.NegInf {
				n.cost -= lps[i][m.EOS()]
				kept = append(kept, n)
			}
		}
		finals = kept
	}
	for _, n := range finals {
		harvested[n] = len(stages)
	}
	done = append(done, finals...)
	beam = nil
	endStage()
	sortNodes(done)
	seen := map[string]bool{}
	reached := 0
	for _, n := range done {
		if k := model.Key(n.ctx); !seen[k] {
			seen[k] = true
			s := harvested[n]
			for stages[s].least < n.cost {
				s++
			}
			reached = max(reached, s)
			out = append(out, *n.result())
			at = append(at, stages[reached].stats)
			at[len(at)-1].Emitted = int64(len(out))
		}
	}
	full = stats
	full.Emitted = int64(len(out))
	return out, at, full
}

// refBeamTake is what a beam stream closed after limit results emitted and
// counted, by refBeam: its first limit results and the stats after the last
// of them, or all of them and the full run's stats when there are fewer.
func refBeamTake(out []Result, at []Stats, full Stats, limit int) ([]Result, Stats) {
	if len(out) < limit {
		return out, full
	}
	return out[:limit], at[limit-1]
}

// refSampleOnce is samplerStream.sampleOnce as it was: one candidate copy
// and one AllowPartial call per surviving edge. Every step is scored by a
// plain Forward, so on an incremental query the walk's rows — and with them
// the RNG draws — are checked against the full path as well.
func refSampleOnce(s *samplerStream, rng *rand.Rand) (*Result, bool) {
	m := s.dev.Model()
	prefix, ok := s.samplePrefix(rng)
	if !ok {
		return nil, false
	}
	prefLogP := 0.0
	if len(prefix) > 0 {
		totals, calls := must2(scoreSequences(s.dev, [][]model.Token{prefix}))
		prefLogP = totals[0]
		s.stats.modelCalls.Add(calls)
	}
	ctx := append(make([]model.Token, 0, len(prefix)+16), prefix...)
	state := s.q.Pattern.Start()
	logP := prefLogP
	patLen := 0
	for patLen <= s.q.MaxTokens {
		lp := must(s.dev.Forward([][]model.Token{model.ClampWindow(m, ctx)}))[0]
		s.stats.modelCalls.Add(1)
		filtered := decoding.Allowed(s.q.Rule, lp, nil)
		type move struct {
			sym  model.Token
			to   automaton.StateID
			lp   float64
			stop bool
		}
		var moves []move
		if patLen < s.q.MaxTokens {
			for _, e := range s.q.Pattern.Edges(state) {
				w := filtered[e.Sym]
				if w == model.NegInf {
					continue
				}
				cand := append(append([]model.Token{}, ctx[len(ctx)-patLen:]...), e.Sym)
				if refAllowPartial(s.q, cand) {
					moves = append(moves, move{sym: e.Sym, to: e.To, lp: w})
				}
			}
		}
		if s.q.Pattern.Accepting(state) && patLen > 0 && refAllowFinal(s.q, ctx[len(ctx)-patLen:]) {
			if s.q.RequireEOS {
				if w := filtered[m.EOS()]; w != model.NegInf {
					moves = append(moves, move{lp: w, stop: true})
				}
			} else {
				cont := model.NegInf
				for _, mv := range moves {
					cont = model.LogSumExp([]float64{cont, mv.lp})
				}
				moves = append(moves, move{lp: math.Log(math.Max(1e-12, 1-math.Exp(cont))), stop: true})
			}
		}
		if len(moves) == 0 {
			return nil, false
		}
		weights := make([]float64, len(moves))
		for i, mv := range moves {
			weights[i] = mv.lp
		}
		mv := moves[refSampleLog(rng, weights)]
		if mv.stop {
			if s.q.RequireEOS {
				logP += lp[m.EOS()]
			}
			return &Result{Prefix: prefix, Pattern: append([]model.Token{}, ctx[len(ctx)-patLen:]...),
				LogProb: logP, PrefixLogProb: prefLogP}, true
		}
		logP += lp[mv.sym]
		ctx = append(ctx, mv.sym)
		state = mv.to
		patLen++
	}
	return nil, false
}

// refSampleLog is the sampler's draw as it was: an index proportional to
// exp(weights[i]), stably.
func refSampleLog(rng *rand.Rand, weights []float64) int {
	max := model.NegInf
	for _, w := range weights {
		if w > max {
			max = w
		}
	}
	total := 0.0
	probs := make([]float64, len(weights))
	for i, w := range weights {
		if math.IsInf(w, -1) {
			continue
		}
		probs[i] = math.Exp(w - max)
		total += probs[i]
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, p := range probs {
		acc += p
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}

func resultRows(rs []Result) []string {
	out := make([]string, len(rs))
	for i := range rs {
		out[i] = resultKey(&rs[i])
	}
	return out
}

func drainResults(t *testing.T, s Stream, limit int) ([]Result, Stats) {
	t.Helper()
	defer s.Close()
	return sequences(t, s, limit), s.Stats()
}

func sameStats(t *testing.T, name string, got, want Stats) {
	t.Helper()
	if got.ModelCalls != want.ModelCalls || got.NodesExpanded != want.NodesExpanded {
		t.Fatalf("%s: stats %+v, reference %+v", name, got, want)
	}
}

// lazyStats holds shortest path's stats to the eager reference's: the same
// expanded nodes, and model calls that are exactly the rows the stream asked
// its device for (asked) and no more than the reference scored, which
// resolves every node it pops.
func lazyStats(t *testing.T, name string, got, want Stats, asked int64) {
	t.Helper()
	if got.NodesExpanded != want.NodesExpanded || got.ModelCalls != asked || got.ModelCalls > want.ModelCalls {
		t.Fatalf("%s: stats %+v with %d rows asked, reference %+v", name, got, asked, want)
	}
}

// countingLM is a logit cache that counts the rows its device asks of it,
// answered resident or computed: one per scored context, and one per
// position of a sequence scored at all positions — what ModelCalls counts.
type countingLM struct {
	*cache.LM
	rows atomic.Int64
}

// countingDevice is a test device over lm behind a fresh counting cache.
func countingDevice(lm model.LanguageModel, maxBatch int) *device.Device {
	return device.New(&countingLM{LM: cache.New(lm, 8192)}, device.DefaultLatency(), maxBatch)
}

// rowsAsked reads dev's count of rows asked for.
func rowsAsked(dev *device.Device) int64 { return dev.Model().(*countingLM).rows.Load() }

func (c *countingLM) NextLogProbs(ctx []model.Token) []float64 {
	c.rows.Add(1)
	return c.LM.NextLogProbs(ctx)
}

func (c *countingLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	c.rows.Add(int64(len(ctxs)))
	return c.LM.ScoreBatch(ctxs)
}

func (c *countingLM) ResidentRows(ctxs [][]model.Token, out [][]float64) int {
	n := c.LM.ResidentRows(ctxs, out)
	c.rows.Add(int64(n))
	return n
}

func (c *countingLM) ResidentAllPositions(seqs [][]model.Token, out [][][]float64) int {
	n := c.LM.ResidentAllPositions(seqs, out)
	for i, rows := range out {
		if rows != nil {
			c.rows.Add(int64(len(seqs[i])))
		}
	}
	return n
}

func (c *countingLM) ScoreAllPositions(seq []model.Token) [][]float64 {
	c.rows.Add(int64(len(seq)))
	return c.LM.ScoreAllPositions(seq)
}

func (c *countingLM) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	c.rows.Add(1)
	return c.LM.Prefill(ctx)
}

func (c *countingLM) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	c.rows.Add(int64(len(states)))
	return c.LM.ExtendBatch(states, tokens)
}

// TestExpansionMatchesPerChildReference drives all three strategies through the
// per-parent expansion and through the per-child reference above and demands
// the same emitted sequences, log-probs, model calls and expanded nodes —
// with and without the canonical filter over the all-encodings automaton,
// under each rule shape, full-prefix and incremental (a no-op on the n-gram, real KV extension on the
// transformer), with MaxTokens 8 and 3, where every engine's traversal
// reaches the cap. The transformer runs on a logit cache every earlier arm
// warmed, and on a cold one per arm (nil dev), where the engines' first
// rounds go to the arena and the device.
func TestExpansionMatchesPerChildReference(t *testing.T) {
	ngram := newNgramEnv(t, biasCorpus())
	trans := newTransformerEnv(t)
	substrates := []struct {
		name        string
		dev         *device.Device
		incremental bool
	}{
		{"ngram", ngram.dev, false},
		{"ngram-incremental", ngram.dev, true},
		{"transformer-incremental", trans.dev, true},
		{"transformer-incremental-cold", nil, true},
	}
	rules := []decoding.Rule{
		nil,
		decoding.Chain{decoding.TopK{K: 120}},
		decoding.Chain{decoding.TopP{P: 0.995}},
		decoding.Chain{decoding.Temperature{T: 2}, decoding.TopK{K: 120}},
	}
	tok := ngram.tok // both environments train the same tokenizer on the same corpus
	prefix := tok.Encode("The man was trained in")
	for _, pat := range []string{" ((engineering)|(medicine)|(art))", " (trained|art|in| )+"} {
		full := compiler.CompileFull(regex.MustCompile(pat), tok)
		for _, sub := range substrates {
			for _, rule := range rules {
				for _, filter := range []*compiler.CanonicalFilter{nil, compiler.NewCanonicalFilter(tok)} {
					for _, maxTokens := range []int{8, 3} {
						ruleName := "none"
						if rule != nil {
							ruleName = rule.Name()
						}
						name := fmt.Sprintf("%s/%s/%s/filter=%t/max%d", pat, sub.name, ruleName, filter != nil, maxTokens)
						query := func() *Query {
							q := &Query{
								Pattern: full, Prefixes: [][]model.Token{prefix}, Rule: rule, Filter: filter,
								RequireEOS: true, MaxTokens: maxTokens, BatchExpand: 4,
							}
							if sub.incremental {
								q.Incremental, q.KV = true, kvcache.NewTiered(kvcache.Config{})
							}
							return q
						}
						dev := sub.dev
						if dev == nil {
							dev = trans.coldDev()
						}
						checkExpansion(t, name, dev, query, 10)
					}
				}
			}
		}
	}
}

// checkExpansion compares the three strategies with their references: shortest
// path and beam (width 6) over the first limit results, beam drained as well,
// and the sampler's seeded draws.
func checkExpansion(t *testing.T, name string, dev *device.Device, query func() *Query, limit int) {
	t.Helper()
	before := rowsAsked(dev)
	got, gotStats := drainResults(t, ShortestPath(dev, query()), limit)
	asked := rowsAsked(dev) - before
	want, wantStats := refShortestPath(dev, query(), limit)
	sameResults(t, name+"/dijkstra", resultRows(got), resultRows(want))
	lazyStats(t, name+"/dijkstra", gotStats, wantStats, asked)

	all, at, full := refBeam(dev, query(), 6)
	got, gotStats = drainResults(t, Beam(dev, query(), BeamOptions{Width: 6}), limit)
	want, wantStats = refBeamTake(all, at, full, limit)
	sameResults(t, name+"/beam", resultRows(got), resultRows(want))
	sameStats(t, name+"/beam", gotStats, wantStats)
	got, gotStats = drainResults(t, Beam(dev, query(), BeamOptions{Width: 6}), math.MaxInt)
	sameResults(t, name+"/beam/drained", resultRows(got), resultRows(all))
	sameStats(t, name+"/beam/drained", gotStats, full)

	// Sampling: the same seeded attempts through both expansions.
	const attempts = 24
	sampler := func() *samplerStream {
		return Sample(dev, query(), SamplerOptions{Seed: 1}).(*samplerStream)
	}
	walks := func(s *samplerStream, once func(*rand.Rand) (*Result, bool)) []string {
		defer s.Close()
		rows := make([]string, attempts)
		for i := range rows {
			if r, ok := once(rand.New(rand.NewSource(int64(i)))); ok {
				rows[i] = resultRows([]Result{*r})[0]
			}
		}
		return append(rows, fmt.Sprint(s.Stats().ModelCalls))
	}
	gs, ws := sampler(), sampler()
	sameResults(t, name+"/sampler", walks(gs, func(rng *rand.Rand) (*Result, bool) { r := must(gs.sampleOnce(rng)); return r, r != nil }),
		walks(ws, func(rng *rand.Rand) (*Result, bool) { return refSampleOnce(ws, rng) }))
}

// classLM scores all tokens of one class (id mod 3) alike, given the class of
// the context's last token: sibling costs tie by the class, and so do the
// prefix roots {0} and {3}.
type classLM struct{ model.Uniform }

func (c *classLM) NextLogProbs(ctx []model.Token) []float64 {
	prev := -1
	if len(ctx) > 0 {
		prev = ctx[len(ctx)-1] % 3
	}
	out := make([]float64, c.Vocab)
	for tok := range out {
		out[tok] = -float64(1 + tok%3)
		if tok%3 == prev {
			out[tok] -= 0.5
		}
	}
	model.Normalize(out)
	return out
}

func (c *classLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(c, ctxs) }

// TestTieDenseFrontierMatchesReference: where nearly every cost ties, the
// lazy sibling cursors and beam's per-hypothesis cut still emit exactly what
// the eager references do under the frontier order — sequences, log-probs,
// model calls and expanded nodes — at every batch size,
// with and without a top-k cut inside a tie class; the sampler's draws,
// including its stop-mass move without EOS, match theirs.
func TestTieDenseFrontierMatchesReference(t *testing.T) {
	const vocab, depth = 13, 4
	dev := countingDevice(&classLM{model.Uniform{Vocab: vocab, EOSTok: vocab - 1, SeqLen: 16}}, 8)
	pat := chainPattern(vocab-1, depth)
	for _, prefixes := range [][][]model.Token{nil, {{0}, {1, 2}, {3}}} {
		for _, rule := range []decoding.Rule{nil, decoding.TopK{K: 5}} {
			for _, eos := range []bool{false, true} {
				for _, batch := range []int{1, 4} {
					name := fmt.Sprintf("prefixes=%d/rule=%v/eos=%t/batch%d", len(prefixes), rule, eos, batch)
					checkExpansion(t, name, dev, func() *Query {
						return &Query{
							Pattern: pat, Prefixes: prefixes, Rule: rule,
							RequireEOS: eos, BatchExpand: batch,
						}
					}, 60)
				}
			}
		}
	}
}
