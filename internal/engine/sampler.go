package engine

import (
	"math"
	"math/rand"

	"repro/internal/automaton"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/trace"
)

// SamplerOptions configures randomized traversal.
type SamplerOptions struct {
	// Rng drives all randomness; required for reproducibility. With
	// Parallelism > 1 it is consumed only to seed per-attempt generators.
	Rng *rand.Rand
	// PrefixWalks, when non-nil, holds the walk counts of an automaton over
	// the prefix language, its length bound included; prefixes are drawn
	// uniformly over its accepting walks via walk-count normalization
	// (§3.3). The table is only read, so one may serve any number of
	// streams. When nil, prefixes are drawn uniformly from Query.Prefixes.
	PrefixWalks *automaton.WalkCounter
	// PrefixEncode, when non-nil, declares PrefixWalks to count a byte-level
	// automaton: each sampled walk is decoded to its string (one walk per
	// string, so walk-uniform = string-uniform) and re-encoded to model
	// tokens with this function. When nil, sampled walks are used as token
	// sequences directly.
	PrefixEncode func(s string) []model.Token
	// Unnormalized switches prefix sampling to naive uniform-edge choice,
	// reproducing the bias of Appendix C for the fig9 experiment.
	Unnormalized bool
	// MaxAttemptsPerResult bounds rejection-sampling retries before Next
	// reports ErrExhausted (default 10000).
	MaxAttemptsPerResult int
}

// Sample returns a stream that draws matching sequences at random: the
// prefix uniformly over the prefix language, the suffix from the model's
// rule-filtered conditional distribution restricted to the automaton.
// Random streams never terminate on their own — each Next call is an
// independent draw (§3.1: "random queries are of infinite length because of
// resampling").
//
// With Query.Parallelism > 1, rejection attempts run in waves of that many
// workers, each attempt on its own generator seeded deterministically from
// Rng; the lowest-numbered successful attempt in a wave is emitted, so the
// draw sequence is reproducible for a fixed (seed, parallelism) pair —
// though it differs from the sequential sequence (DESIGN.md decision 6).
func Sample(dev *device.Device, q *Query, opts SamplerOptions) Stream {
	nq := normalizeQuery(dev, q)
	if opts.MaxAttemptsPerResult <= 0 {
		opts.MaxAttemptsPerResult = 10000
	}
	if nq.Trace != nil {
		// Sampling walks make thousands of single-row dispatches; per-attempt
		// round spans would blow the span cap for no insight. Dispatch spans
		// parent directly under the root instead.
		dev = dev.WithTrace(nq.Trace, trace.RootID)
	}
	return &samplerStream{stream: stream{q: nq, dev: dev}, opts: opts}
}

type samplerStream struct {
	stream
	opts SamplerOptions
	// pending buffers surplus successful draws from a parallel wave. Each
	// wave attempt is an independent seeded draw, so extra successes are
	// themselves valid samples: emitting them on later Next calls keeps the
	// distribution and costs no extra model work.
	pending []*Result
}

// Next performs rejection sampling: draw a prefix, then walk the pattern
// automaton sampling rule-filtered tokens until acceptance via EOS-weighted
// stopping. Dead ends (all automaton edges pruned by the rule) reject the
// attempt: sampleOnce returns neither a draw nor an error.
func (s *samplerStream) Next() (*Result, error) {
	if s.end != nil {
		return nil, s.end
	}
	if s.q.Parallelism > 1 {
		return s.nextParallel()
	}
	for attempt := 0; attempt < s.opts.MaxAttemptsPerResult; attempt++ {
		if err := s.q.Context.Err(); err != nil {
			return nil, err
		}
		s.stats.attempts.Add(1)
		res, err := s.sampleOnce(s.opts.Rng)
		if err != nil {
			return nil, s.finish(err)
		}
		if res != nil {
			s.stats.emitted.Add(1)
			return res, nil
		}
		s.stats.rejected.Add(1)
	}
	return nil, ErrExhausted
}

// nextParallel runs rejection attempts in waves across the worker pool.
// Per-attempt seeds are drawn from the stream RNG before the wave launches
// and successes are consumed in attempt order, so the emitted sequence
// depends only on (seed, parallelism), not on worker scheduling.
//
// Every success in a wave is kept: each attempt is an independent seeded
// draw, so surplus successes beyond the first are buffered and emitted by
// later Next calls at zero additional model cost. Stats account for work
// actually performed: every computed attempt counts toward Attempts and
// its failures toward Rejected. A failed dispatch ends the stream.
func (s *samplerStream) nextParallel() (*Result, error) {
	if err := s.q.Context.Err(); err != nil {
		return nil, err // cancellation outranks buffered surplus draws
	}
	if len(s.pending) > 0 {
		res := s.pending[0]
		s.pending[0] = nil // the backing array must not keep an emitted result
		s.pending = s.pending[1:]
		s.stats.emitted.Add(1)
		return res, nil
	}
	width := s.q.Parallelism
	for done := 0; done < s.opts.MaxAttemptsPerResult; {
		if err := s.q.Context.Err(); err != nil {
			return nil, err
		}
		wave := width
		if rem := s.opts.MaxAttemptsPerResult - done; wave > rem {
			wave = rem
		}
		seeds := make([]int64, wave)
		for i := range seeds {
			seeds[i] = s.opts.Rng.Int63()
		}
		results := make([]*Result, wave)
		errs := make([]error, wave)
		parallelFor(wave, width, func(i int) {
			results[i], errs[i] = s.sampleOnce(rand.New(rand.NewSource(seeds[i])))
		})
		s.stats.attempts.Add(int64(wave))
		var winner *Result
		for i := 0; i < wave; i++ {
			switch {
			case errs[i] != nil:
				return nil, s.finish(errs[i])
			case results[i] == nil:
				s.stats.rejected.Add(1)
			case winner == nil:
				winner = results[i]
			default:
				s.pending = append(s.pending, results[i])
			}
		}
		if winner != nil {
			s.stats.emitted.Add(1)
			return winner, nil
		}
		done += wave
	}
	return nil, ErrExhausted
}

func (s *samplerStream) samplePrefix(rng *rand.Rand) ([]model.Token, bool) {
	if walks := s.opts.PrefixWalks; walks != nil {
		var seq []automaton.Symbol
		if s.opts.Unnormalized {
			seq = walks.SampleUnnormalized(rng)
		} else {
			seq = walks.SampleUniform(rng)
		}
		if seq == nil {
			return nil, false
		}
		if s.opts.PrefixEncode != nil {
			b := make([]byte, len(seq))
			for i, sym := range seq {
				b[i] = byte(sym)
			}
			return s.opts.PrefixEncode(string(b)), true
		}
		return seq, true
	}
	p := s.q.Prefixes[rng.Intn(len(s.q.Prefixes))]
	out := make([]model.Token, len(p))
	copy(out, p)
	return out, true
}

func (s *samplerStream) sampleOnce(rng *rand.Rand) (*Result, error) {
	prefix, ok := s.samplePrefix(rng)
	if !ok {
		return nil, nil
	}
	prefLogP := 0.0
	if len(prefix) > 0 {
		// One batched device round for the whole prefix (every position's
		// context in a single dispatch) — rejection attempts replay prefixes
		// constantly, so per-token dispatches would dominate the clock.
		totals, calls, err := scoreSequences(s.dev, [][]model.Token{prefix})
		if err != nil {
			return nil, err
		}
		prefLogP = totals[0]
		s.stats.modelCalls.Add(calls)
	}

	ctx := make([]model.Token, len(prefix), len(prefix)+16)
	copy(ctx, prefix)
	state := s.q.Pattern.Start()
	logP := prefLogP
	patLen := 0
	var moves siblings
	var row []float64 // the step's reweighted row, one per attempt

	// The rule ends every walk by MaxTokens: a node there has no children.
	for {
		// One context per step, scored by the frontier rule: rejection
		// attempts replay prefixes constantly, so most steps are resident.
		lps, err := scoreFrontier(s.dev, s.q, [][]model.Token{ctx})
		if err != nil {
			return nil, err
		}
		lp := lps[0]
		s.stats.modelCalls.Add(1)
		pattern := ctx[len(ctx)-patLen:]

		// The moves are the node's siblings. Given the reweighted row as its
		// lp, the rule costs each at its negated log weight: a child by its
		// token, the stop (the match) by EOS under RequireEOS; without EOS
		// semantics the stop takes the probability mass no child claims.
		row = decoding.Allowed(s.q.Rule, lp, row)
		moves, _ = s.q.expand(state, pattern, 0, row, decoding.SupportOf(nil, row), moves, false)
		if len(moves) == 0 {
			return nil, nil // dead end under the rule: reject
		}
		if stop := &moves[len(moves)-1]; stop.sym == matchSym && !s.q.RequireEOS {
			cont := model.NegInf
			for _, mv := range moves[:len(moves)-1] {
				cont = model.LogSumExp([]float64{cont, -mv.cost})
			}
			stop.cost = -math.Log(math.Max(1e-12, 1-math.Exp(cont)))
		}
		mv := moves[draw(rng, moves)]
		if mv.sym == matchSym {
			if s.q.RequireEOS {
				logP += lp[s.q.eos]
			}
			return &Result{
				Prefix:        prefix,
				Pattern:       append([]model.Token{}, pattern...),
				LogProb:       logP,
				PrefixLogProb: prefLogP,
			}, nil
		}
		logP += lp[mv.sym]
		ctx = append(ctx, model.Token(mv.sym))
		state = automaton.StateID(mv.to)
		patLen++
	}
}

// draw picks a sibling with probability proportional to exp(-cost), stably.
func draw(rng *rand.Rand, sibs siblings) int {
	least := math.Inf(1)
	for _, s := range sibs {
		least = min(least, s.cost)
	}
	total := 0.0
	for _, s := range sibs {
		total += math.Exp(least - s.cost)
	}
	r := rng.Float64() * total
	acc := 0.0
	for i, s := range sibs {
		acc += math.Exp(least - s.cost)
		if r < acc {
			return i
		}
	}
	return len(sibs) - 1
}
