package engine

import (
	"slices"

	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
)

// BeamOptions configures constrained beam search.
type BeamOptions struct {
	// Width is the beam size, at least 1 (relm's lowering resolves the
	// default of 8).
	Width int
}

// Beam returns a stream implementing constrained beam search — the
// trie-decoding style of De Cao et al. that the paper's related work
// discusses (§5). Unlike shortest path, the beam commits to at most Width
// partial hypotheses per step, trading completeness (low-probability-prefix
// matches can be pruned forever) for a bounded frontier and strictly
// level-synchronized device batches. Completed hypotheses are harvested as
// the beam advances and emitted in descending probability. A level is eager
// and the levels are lazy: Next advances the beam only until its next match
// is final, so a caller that stops after k matches never pays for the
// levels after the k-th.
func Beam(dev *device.Device, q *Query, opts BeamOptions) Stream {
	s := &beamStream{stream: stream{q: normalizeQuery(dev, q), dev: dev}, opts: opts}
	s.init()
	return s
}

// beamStream's least harvested match is final once its cost is at most the
// cost of every hypothesis left in the beam: every later match descends from
// one of them, costs never decrease along a path, and a later match of equal
// cost was discovered later, so it comes after in the frontier order. The
// stream is therefore the one a pass over every level would emit.
type beamStream struct {
	stream
	opts BeamOptions
	beam []node          // the current level, in frontier order; empty once the beam ends
	done []node          // harvested matches, done[next:] in frontier order
	next int             // the first match of done not yet emitted or skipped
	seen map[string]bool // keys of the emitted matches
	key  []byte          // the buffer a match's key is built in
	seq  int64           // discovery order of the next hypothesis expanded
	step int             // pattern tokens of every hypothesis in the beam

	// Scratch reused from level to level.
	ctxs  [][]model.Token
	sibs  siblings
	spare []node
}

func (s *beamStream) init() {
	pdev, pspan := prefixDevice(s.dev, s.q)
	logPs, calls, err := scoreSequences(pdev, s.q.Prefixes)
	s.q.Trace.End(pspan)
	if err != nil {
		s.finish(err)
		return
	}
	s.stats.modelCalls.Add(calls)
	for pi, p := range s.q.Prefixes {
		logP := logPs[pi]
		s.beam = append(s.beam, node{
			path:     rootPath(p),
			state:    s.q.Pattern.Start(),
			cost:     -logP,
			prefLogP: logP,
			from:     int64(pi),
		})
	}
	s.seq = int64(len(s.q.Prefixes))
	s.beam = truncate(s.beam, s.opts.Width)
}

// truncate puts nodes in the frontier order and keeps the first width.
func truncate(nodes []node, width int) []node {
	slices.SortFunc(nodes, byOrder)
	return nodes[:min(len(nodes), width)]
}

func (s *beamStream) Next() (*Result, error) {
	if s.end != nil {
		return nil, s.end
	}
	for {
		if err := s.q.Context.Err(); err != nil {
			return nil, s.finish(err)
		}
		// The first of identical token sequences is emitted and the rest are
		// skipped: a sequence can be harvested at several steps, under
		// prefixes of different lengths. Only an emitted match stores its key.
		for ; s.next < len(s.done) && (len(s.beam) == 0 || s.done[s.next].cost <= s.beam[0].cost); s.next++ {
			n := &s.done[s.next]
			s.key = model.AppendKey(s.key[:0], n.context())
			if s.seen[string(s.key)] {
				continue
			}
			if s.seen == nil {
				s.seen = map[string]bool{}
			}
			s.seen[string(s.key)] = true
			s.next++
			s.stats.emitted.Add(1)
			return n.result(), nil
		}
		if len(s.beam) == 0 {
			return nil, s.finish(ErrExhausted)
		}
		var err error
		if s.q.grows(s.step) {
			err = s.level()
		} else {
			err = s.harvest()
		}
		if err != nil {
			return nil, s.finish(err)
		}
		slices.SortFunc(s.done[s.next:], byOrder)
	}
}

// level advances the beam one step, harvesting accepting hypotheses. Every
// hypothesis of a level has step pattern tokens, so the level grows while
// the rule lets a pattern of that length grow. The whole level is scored in
// one device batch; then each hypothesis, in beam order, is expanded and
// spawns its match and its best Width children — the level's best Width are
// among them — and the level truncates to the best Width overall.
func (s *beamStream) level() error {
	rdev, rspan := roundDevice(s.dev, s.q, int64(s.step), len(s.beam))
	defer s.q.Trace.End(rspan)
	s.ctxs = appendContexts(s.ctxs[:0], s.beam)
	lps, err := scoreFrontier(rdev, s.q, s.ctxs)
	if err != nil {
		return err
	}
	s.stats.modelCalls.Add(int64(len(s.beam)))
	s.stats.nodesExpanded.Add(int64(len(s.beam)))

	next := s.spare[:0]
	for i := range s.beam {
		h, from := &s.beam[i], s.seq
		s.seq++
		s.sibs, _ = s.q.expand(h.state, h.pattern(), h.cost, lps[i], decoding.SupportOf(s.q.Rule, lps[i]), s.sibs, false)
		if last := len(s.sibs) - 1; last >= 0 && s.sibs[last].sym == matchSym {
			s.done = append(s.done, h.spawn(s.sibs[last], from))
			s.sibs = s.sibs[:last]
		}
		if len(s.sibs) > s.opts.Width {
			s.sibs.heapify()
			for range s.opts.Width {
				next = append(next, h.spawn(s.sibs.pop(), from))
			}
			continue
		}
		for _, sb := range s.sibs {
			next = append(next, h.spawn(sb, from))
		}
	}
	s.beam, s.spare = truncate(next, s.opts.Width), s.beam
	s.step++
	return nil
}

// harvest is the final one, of the hypotheses left at MaxTokens, each
// discovered in beam order: the rule's match half, and under RequireEOS its
// EOS check, which needs one more score per candidate — batched into a
// single device round rather than one dispatch each. It ends the beam.
func (s *beamStream) harvest() error {
	start := len(s.done)
	for i := range s.beam {
		n := &s.beam[i]
		if s.q.final(n.state, n.pattern()) {
			s.done = append(s.done, n.spawn(sibling{cost: n.cost, sym: matchSym}, s.seq+int64(i)))
		}
	}
	s.beam, s.spare, s.ctxs = nil, nil, nil
	finals := s.done[start:]
	if !s.q.RequireEOS || len(finals) == 0 {
		return nil
	}
	rdev, rspan := roundDevice(s.dev, s.q, int64(s.step), len(finals))
	defer s.q.Trace.End(rspan)
	lps, err := scoreFrontier(rdev, s.q, appendContexts(nil, finals))
	if err != nil {
		return err
	}
	s.stats.modelCalls.Add(int64(len(finals)))
	kept := finals[:0]
	for i, n := range finals {
		if !s.q.ends(decoding.SupportOf(s.q.Rule, lps[i])) {
			continue
		}
		n.cost -= lps[i][s.q.eos]
		kept = append(kept, n)
	}
	s.done = s.done[:start+len(kept)]
	return nil
}
