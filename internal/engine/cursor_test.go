package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/automaton"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
)

// rowLM scores every context with one fixed distribution, given as
// unnormalized log weights, so sibling costs tie wherever the weights do.
type rowLM struct {
	model.Uniform
	weights []float64
}

func (r *rowLM) NextLogProbs([]model.Token) []float64 {
	out := slices.Clone(r.weights)
	model.Normalize(out)
	return out
}

func (r *rowLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(r, ctxs) }

// chainPattern accepts every sequence of 1 to depth symbols below syms.
func chainPattern(syms, depth int) *automaton.DFA {
	b := automaton.NewBuilder(depth+1, depth*syms)
	for i := range depth + 1 {
		if i < depth {
			for sym := range syms {
				b.Edge(sym, i+1)
			}
		}
		b.EndState(i > 0)
	}
	return b.Build(0)
}

// inWindow reports whether c's siblings are still the window's.
func inWindow(c *cursor) bool { return &c.sibs[:1][0] == &c.win[0] }

// TestWindowEdgeMatchesReference: where cursors are popped more than window
// times, the rebuilt rest continues each cursor's order exactly where its
// window stopped, so shortest path still emits what the eager reference does
// at every batch size. The arms put a tie class across the
// window's last slot, and a match that lands after the window (EOS is the
// least likely token) or inside it. Along the way every cursor on the
// frontier holds its row exactly when its set outgrew the window and it has
// not rebuilt, and rebuilds at most once.
func TestWindowEdgeMatchesReference(t *testing.T) {
	const syms, eos = 8, 8
	tie := []float64{0, 0, 0, 0, -1, -1, -1, -1, -1}            // four-way tie at the top
	lateMatch := []float64{0, 0, 0, -0.5, -0.5, -1, -1, -1, -4} // EOS last
	for _, arm := range []struct {
		name    string
		weights []float64
		eos     bool
		rule    decoding.Rule
	}{
		{"tie-at-window-edge", tie, false, nil},
		{"tie-at-window-edge/eos", tie, true, nil},
		{"tie-at-window-edge/topk", tie, false, decoding.TopK{K: 6}},
		{"match-after-window", lateMatch, true, nil},
		{"match-inside-window", lateMatch, false, nil},
	} {
		dev := countingDevice(&rowLM{model.Uniform{Vocab: syms + 1, EOSTok: eos, SeqLen: 16}, arm.weights}, 8)
		pat := chainPattern(syms, 3)
		for _, batch := range []int{1, 4} {
			query := func() *Query {
				return &Query{Pattern: pat, Rule: arm.rule, RequireEOS: arm.eos, BatchExpand: batch}
			}
			name := fmt.Sprintf("%s/batch%d", arm.name, batch)
			checkExpansion(t, name, dev, query, 60)
			if rebuilt := checkCursors(t, name, dev, query(), 60); rebuilt == 0 {
				t.Errorf("%s: no cursor was popped past its window", name)
			}
		}
	}
}

// checkCursors drains up to limit results from a shortest-path stream and,
// after every result, checks each cursor on the frontier: an unscored cursor
// holds no row and no siblings, and its bound is not ordered before the match
// just emitted; a scored cursor whose set fits its window holds no row, one
// that dropped siblings holds its row until it rebuilds, and none builds its
// rest twice. It returns how many cursors rebuilt.
func checkCursors(t *testing.T, name string, dev *device.Device, q *Query, limit int) int {
	t.Helper()
	s := ShortestPath(dev, q).(*dijkstraStream)
	defer s.Close()
	rests := map[*cursor]*sibling{} // the first sibling of each rebuilt cursor's rest
	for range limit {
		m, err := s.next()
		if err != nil {
			break
		}
		emitted := order{m.cost, m.from, m.rank}
		for _, c := range s.frontier {
			if c.unscored() {
				if c.sibs != nil || c.lp != nil {
					t.Fatalf("%s: unscored cursor %d holds siblings or a row", name, c.seq)
				}
				if c.next().compare(emitted) < 0 {
					t.Fatalf("%s: unscored cursor %d's bound %+v is before the emitted match %+v", name, c.seq, c.next(), emitted)
				}
				continue
			}
			if c.sibs[0].sym == rootSym {
				continue
			}
			if !inWindow(c) {
				base := &c.sibs[:1][0]
				if prev, ok := rests[c]; ok && prev != base {
					t.Fatalf("%s: cursor %d built its rest twice", name, c.seq)
				}
				rests[c] = base
				if c.lp != nil {
					t.Fatalf("%s: cursor %d holds its row after it rebuilt", name, c.seq)
				}
				continue
			}
			row := must(dev.Forward([][]model.Token{c.ctx}))[0]
			all, _ := c.expand(s.q, row, nil, false)
			if fits := len(all) <= window; fits != (c.lp == nil) {
				t.Fatalf("%s: cursor %d has %d siblings and holds its row: %t", name, c.seq, len(all), c.lp != nil)
			}
		}
	}
	return len(rests)
}

// TestBoundedExpandKeepsLeastSorted: bounded, expand keeps the least
// cap(dst) siblings of the unbounded set in the sibling order, in dst's own
// storage, and reports a drop exactly when the set outgrows it.
func TestBoundedExpandKeepsLeastSorted(t *testing.T) {
	const syms, eos = 8, 8
	lm := &rowLM{model.Uniform{Vocab: syms + 1, EOSTok: eos, SeqLen: 16}, []float64{-1, 0, -1, -0.5, 0, -2, -1, -0.5, -1}}
	row := lm.NextLogProbs(nil)
	for _, eosOn := range []bool{false, true} {
		for k := 1; k <= syms+1; k++ {
			q := &Query{Pattern: chainPattern(syms, 3), Rule: decoding.TopK{K: k}, RequireEOS: eosOn, MaxTokens: 16, eos: eos}
			kept := decoding.SupportOf(q.Rule, row)
			// A node one token deep: its children and its match.
			all, _ := q.expand(1, []model.Token{0}, 1, row, kept, nil, false)
			var win [window]sibling
			got, dropped := q.expand(1, []model.Token{0}, 1, row, kept, win[:0], true)
			slices.SortFunc(all, func(a, b sibling) int {
				if a.before(b) {
					return -1
				}
				return 1
			})
			name := fmt.Sprintf("eos=%t/topk%d", eosOn, k)
			if want := all[:min(len(all), window)]; !slices.Equal(got, want) {
				t.Errorf("%s: bounded set %v, want %v", name, got, want)
			}
			if dropped != (len(all) > window) {
				t.Errorf("%s: %d siblings, dropped %t", name, len(all), dropped)
			}
			if len(got) > 0 && &got[0] != &win[0] {
				t.Errorf("%s: bounded set left dst's storage", name)
			}
		}
	}
}

// fuzzLM scores a context by its last token: row i of weights (the last row
// for the empty context), normalized.
type fuzzLM struct {
	model.Uniform
	weights [][]float64
}

func (f *fuzzLM) NextLogProbs(ctx []model.Token) []float64 {
	w := f.weights[len(f.weights)-1]
	if len(ctx) > 0 {
		w = f.weights[ctx[len(ctx)-1]]
	}
	out := slices.Clone(w)
	model.Normalize(out)
	return out
}

func (f *fuzzLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(f, ctxs) }

// loopPattern accepts every sequence of symbols below syms whose length is
// odd, by way of two states that alternate: a cyclic language that only
// MaxTokens bounds.
func loopPattern(syms int) *automaton.DFA {
	b := automaton.NewBuilder(2, 2*syms)
	for state := range 2 { // 0 even, 1 odd
		for sym := range syms {
			b.Edge(sym, 1-state)
		}
		b.EndState(state == 1)
	}
	return b.Build(0)
}

// fuzzQuery decodes a fuzzed model and query. The first bytes choose the
// vocabulary (2 to 8 symbols and EOS), the pattern (a chain of depth 1 to 4,
// or a two-state loop), BatchExpand (1 to 8), RequireEOS, a top-k rule, a
// prefix set and a MaxNodes cap (flag bit 2 is unused, so the corpus keeps its
// meaning); the rest are the rows' weights, in steps of -0.5 from 0 to -3.5,
// so costs tie often. ok is false when the input is too short to decode.
func fuzzQuery(shape, weights []byte) (lm *fuzzLM, q Query, ok bool) {
	if len(shape) < 4 || len(weights) == 0 {
		return nil, q, false
	}
	syms := 2 + int(shape[0])%7
	flags := shape[1]
	depth := 1 + int(shape[3])%4
	lm = &fuzzLM{Uniform: model.Uniform{Vocab: syms + 1, EOSTok: syms, SeqLen: 16}}
	for row, k := 0, 0; row <= syms+1; row++ {
		w := make([]float64, syms+1)
		for i := range w {
			w[i] = -float64(weights[k%len(weights)]%8) / 2
			k++
		}
		lm.weights = append(lm.weights, w)
	}
	q = Query{
		Pattern: chainPattern(syms, depth), RequireEOS: flags&1 != 0,
		MaxTokens: depth + 2, BatchExpand: 1 + int(shape[2])%8,
	}
	if flags&4 != 0 {
		q.Pattern = loopPattern(syms)
	}
	if flags&8 != 0 {
		q.Rule = decoding.TopK{K: 1 + depth}
	}
	if flags&16 != 0 {
		q.Prefixes = [][]model.Token{{0}, {1, 0}, {1}}
	}
	if len(shape) > 4 {
		q.MaxNodes = int(shape[4]) % 48
	}
	return lm, q, true
}

// FuzzLazyFrontier: on row weights, patterns and execution settings drawn
// from the input (fuzzQuery), shortest path emits exactly what the eager
// reference does, expands the same nodes, and asks the device for exactly the
// rows it counts, no more than the reference scores. Beam, as wide as the
// BatchExpand byte reads (1 to 8), emits the eager reference's first k
// results from a fresh stream closed after k, for every k up to the limit,
// and counts exactly the levels the reference counts through the k-th.
func FuzzLazyFrontier(f *testing.F) {
	f.Add([]byte("\x03\x00\x04\x02"), []byte{0, 1, 2, 0, 1, 2, 0})
	f.Add([]byte("\x06\x1f\x00\x03"), []byte{0})
	f.Add([]byte("\x02\x0a\x07\x01"), []byte{7, 0, 3, 3, 0, 1, 6, 2, 2, 5})
	f.Fuzz(func(t *testing.T, shape, weights []byte) {
		lm, q, ok := fuzzQuery(shape, weights)
		if !ok {
			return
		}
		dev := countingDevice(lm, 8)
		query := func() *Query { cp := q; return &cp }
		got, gotStats := drainResults(t, ShortestPath(dev, query()), 40)
		asked := rowsAsked(dev)
		want, wantStats := refShortestPath(dev, query(), 40)
		sameResults(t, "lazy", resultRows(got), resultRows(want))
		lazyStats(t, "lazy", gotStats, wantStats, asked)

		all, at, full := refBeam(dev, query(), q.BatchExpand)
		for k := 1; k <= min(40, len(all)+1); k++ {
			name := fmt.Sprintf("beam/take%d", k)
			got, gotStats := drainResults(t, Beam(dev, query(), BeamOptions{Width: q.BatchExpand}), k)
			want, wantStats := refBeamTake(all, at, full, k)
			sameResults(t, name, resultRows(got), resultRows(want))
			sameStats(t, name, gotStats, wantStats)
		}
	})
}

// FuzzSamplerWidth: on the models and queries FuzzLazyFrontier decodes, a
// sampled stream and the virtual clock it spends depend on its seed alone.
// Two fresh devices behind logit caches, one scoring on the caller's
// goroutine and one on a pool of 4 workers, emit the same stream draw for
// draw, up to and including ErrExhausted, and read the same Clock and
// Batches; a rerun on each, over its warm cache, repeats the stream, and the
// two reruns spend the same clock again. Dead ends (a top-k rule pruning the
// pattern, a loop cut at MaxTokens) reject attempts, and the attempt budget
// (1 to 4, from the BatchExpand byte) is small, so many inputs exhaust. The
// MaxNodes byte is the seed.
func FuzzSamplerWidth(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, weights []byte) {
		lm, q, ok := fuzzQuery(shape, weights)
		if !ok {
			return
		}
		// run drains the stream on dev and returns its rows, then dev's clock
		// and batch count.
		run := func(dev *device.Device) []string {
			cp := q
			s := Sample(dev, &cp, SamplerOptions{Seed: int64(q.MaxNodes), MaxAttemptsPerResult: 1 + q.BatchExpand%4})
			defer s.Close()
			var rows []string
			for range 40 {
				r, err := s.Next()
				if err != nil {
					rows = append(rows, err.Error())
					break
				}
				rows = append(rows, resultKey(r))
			}
			st := dev.Stats()
			return append(rows, fmt.Sprintf("clock %v, %d batches", st.Clock, st.Batches))
		}
		serial, pooled := countingDevice(lm, 8), countingDevice(lm, 8)
		defer attachPool(pooled, 4)()
		cold := run(serial)
		sameResults(t, "pool of 4", run(pooled), cold)
		warm := run(serial)
		sameResults(t, "warm pool of 4", run(pooled), warm)
		sameResults(t, "warm rerun", warm[:len(warm)-1], cold[:len(cold)-1])
	})
}

// TestProbedResolutionMatchesReference: above 2·r₀ = 8 rows, a settle sizes
// its first resolution by probing the logit cache for its top's row. Shortest
// path still emits what the eager reference does and expands the same nodes,
// and every row it asks of the device is one ModelCalls counts — on a cold
// cache, where every probe misses, and again on the warm one, where the row a
// probe finds is the one its resolution uses, not asked for twice.
func TestProbedResolutionMatchesReference(t *testing.T) {
	const vocab, depth = 13, 4
	pat := chainPattern(vocab-1, depth)
	for _, prefixes := range [][][]model.Token{nil, {{0}, {1, 2}, {3}}} {
		for _, rule := range []decoding.Rule{nil, decoding.TopK{K: 5}} {
			for _, batch := range []int{16, 64} {
				dev := countingDevice(&classLM{model.Uniform{Vocab: vocab, EOSTok: vocab - 1, SeqLen: 16}}, 64)
				for _, pass := range []string{"cold", "warm"} {
					name := fmt.Sprintf("prefixes=%d/rule=%v/batch%d/%s", len(prefixes), rule, batch, pass)
					checkExpansion(t, name, dev, func() *Query {
						return &Query{
							Pattern: pat, Prefixes: prefixes, Rule: rule,
							RequireEOS: true, BatchExpand: batch,
						}
					}, 60)
				}
			}
		}
	}
}
