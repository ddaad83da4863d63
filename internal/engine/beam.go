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
// level-synchronized device batches. Completed hypotheses are collected as
// the beam advances and emitted in descending probability.
func Beam(dev *device.Device, q *Query, opts BeamOptions) Stream {
	s := &beamStream{stream: stream{q: normalizeQuery(dev, q), dev: dev}, opts: opts}
	s.init()
	return s
}

type beamStream struct {
	stream
	opts BeamOptions
	beam []node          // the current level, in frontier order
	done []node          // completed matches, in frontier order once run
	next int             // the first match of done not yet emitted or skipped
	seen map[string]bool // keys of the emitted matches
	seq  int64           // discovery order of the next hypothesis expanded
	ran  bool
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

// run advances the beam to completion, harvesting accepting hypotheses.
// Every hypothesis of a level has step pattern tokens, so the level grows
// while the rule lets a pattern of that length grow. The whole level is
// scored in one device batch; then each hypothesis, in beam order, is
// expanded and spawns its match and its best Width children — the level's
// best Width are among them — and the level truncates to the best Width
// overall.
func (s *beamStream) run() error {
	var ctxs [][]model.Token
	var sibs siblings
	var next []node
	step := 0
	for ; s.q.grows(step) && len(s.beam) > 0; step++ {
		if err := s.q.Context.Err(); err != nil {
			return err
		}
		rdev, rspan := roundDevice(s.dev, s.q, int64(step), len(s.beam))
		ctxs = appendContexts(ctxs[:0], s.beam)
		lps, err := scoreFrontier(rdev, s.q, ctxs)
		if err != nil {
			s.q.Trace.End(rspan)
			return err
		}
		s.stats.modelCalls.Add(int64(len(s.beam)))
		s.stats.nodesExpanded.Add(int64(len(s.beam)))

		next = next[:0]
		for i := range s.beam {
			h, from := &s.beam[i], s.seq
			s.seq++
			sibs, _ = s.q.expand(h.state, h.pattern(), h.cost, lps[i], decoding.SupportOf(s.q.Rule, lps[i]), sibs, false)
			if last := len(sibs) - 1; last >= 0 && sibs[last].sym == matchSym {
				s.done = append(s.done, h.spawn(sibs[last], from))
				sibs = sibs[:last]
			}
			if len(sibs) > s.opts.Width {
				sibs.heapify()
				for range s.opts.Width {
					next = append(next, h.spawn(sibs.pop(), from))
				}
				continue
			}
			for _, sb := range sibs {
				next = append(next, h.spawn(sb, from))
			}
		}
		s.beam, next = truncate(next, s.opts.Width), s.beam
		s.q.Trace.End(rspan)
	}
	// Final harvest of the hypotheses left at MaxTokens, each discovered in
	// beam order: the rule's match half, and under RequireEOS its EOS check,
	// which needs one more score per candidate — batched into a single device
	// round rather than one dispatch each.
	var finals []node
	for i := range s.beam {
		n := &s.beam[i]
		if s.q.final(n.state, n.pattern()) {
			finals = append(finals, n.spawn(sibling{cost: n.cost, sym: matchSym}, s.seq+int64(i)))
		}
	}
	if s.q.RequireEOS && len(finals) > 0 {
		rdev, rspan := roundDevice(s.dev, s.q, int64(step), len(finals))
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
		finals = kept
	}
	s.done = append(s.done, finals...)
	slices.SortFunc(s.done, byOrder)
	return nil
}

func (s *beamStream) Next() (*Result, error) {
	if s.end != nil {
		return nil, s.end
	}
	if err := s.q.Context.Err(); err != nil {
		return nil, s.finish(err)
	}
	if !s.ran {
		s.ran = true
		if err := s.run(); err != nil {
			return nil, s.finish(err)
		}
	}
	// The first of identical token sequences is emitted and the rest are
	// skipped: a sequence can be harvested at several steps, under prefixes
	// of different lengths. Only an emitted match stores its key.
	buf := model.GetKeyBuf()
	defer model.PutKeyBuf(buf)
	for ; s.next < len(s.done); s.next++ {
		n := &s.done[s.next]
		*buf = model.AppendKey((*buf)[:0], n.context())
		if s.seen[string(*buf)] {
			continue
		}
		if s.seen == nil {
			s.seen = map[string]bool{}
		}
		s.seen[string(*buf)] = true
		s.next++
		s.stats.emitted.Add(1)
		return n.result(), nil
	}
	return nil, s.finish(ErrExhausted)
}
