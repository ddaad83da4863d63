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
	// Seed is the stream's only source of randomness: attempt i, numbered
	// from 0 across all of the stream's Next calls, draws from a generator
	// seeded from (Seed, i).
	Seed int64
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
	// MaxAttemptsPerResult bounds the consecutive failed attempts since the
	// last success before Next reports ErrExhausted (default 10000).
	MaxAttemptsPerResult int
}

// Sample returns a stream that draws matching sequences at random: the
// prefix uniformly over the prefix language, the suffix from the model's
// rule-filtered conditional distribution restricted to the automaton.
// Random streams never terminate on their own — each Next call is an
// independent draw (§3.1: "random queries are of infinite length because of
// resampling").
//
// Rejection attempts run in waves of Query.Parallelism workers. Attempt i
// draws from its own generator seeded from (Seed, i), and successes are
// emitted in attempt order, so the stream is identical at any worker count
// (DESIGN.md decision 6).
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
	s := &samplerStream{stream: stream{q: nq, dev: dev}, opts: opts, slots: make([]slot, nq.Parallelism)}
	for i := range s.slots {
		s.slots[i].rng = rand.New(&s.slots[i].src)
	}
	s.run = func(i int) {
		sl := &s.slots[i]
		sl.res, sl.err = s.sampleOnce(sl.rng)
	}
	return s
}

type samplerStream struct {
	stream
	opts SamplerOptions
	// slots run one wave's attempts, one per worker, and run(i) runs slot
	// i's. Both live as long as the stream, so a wave allocates nothing.
	slots []slot
	run   func(i int)
	// next numbers the next attempt to run; since numbers the first attempt
	// after the last success. Exhaustion is counted by attempt number, so it
	// lands on the same attempt at every width.
	next, since int64
	// pending buffers a wave's successes in attempt order. Each is an
	// independent draw, so emitting them on later Next calls keeps the
	// distribution and costs no extra model work.
	pending []*Result
}

// slot is one wave position: a generator reseeded for each attempt it runs,
// and that attempt's outcome.
type slot struct {
	src splitmix
	rng *rand.Rand
	res *Result
	err error
}

// Next performs rejection sampling: draw a prefix, then walk the pattern
// automaton sampling rule-filtered tokens until acceptance via EOS-weighted
// stopping. Dead ends (all automaton edges pruned by the rule) reject the
// attempt: sampleOnce returns neither a draw nor an error. Stats count the
// work done: every attempt run toward Attempts and its failures toward
// Rejected. A failed dispatch ends the stream.
func (s *samplerStream) Next() (*Result, error) {
	if s.end != nil {
		return nil, s.end
	}
	for {
		if err := s.q.Context.Err(); err != nil {
			return nil, err // cancellation outranks buffered draws
		}
		if len(s.pending) > 0 {
			// Shift rather than reslice, so the buffer is reused: at width 1
			// a success costs no append.
			res := s.pending[0]
			n := copy(s.pending, s.pending[1:])
			s.pending[n] = nil // the backing array must not keep an emitted result
			s.pending = s.pending[:n]
			s.stats.emitted.Add(1)
			return res, nil
		}
		left := int64(s.opts.MaxAttemptsPerResult) - (s.next - s.since)
		if left <= 0 {
			s.since = s.next // a later call gets a budget of its own
			return nil, ErrExhausted
		}
		wave := s.slots[:min(int64(len(s.slots)), left)]
		for i := range wave {
			wave[i].src = attemptSeed(s.opts.Seed, s.next+int64(i))
		}
		parallelFor(len(wave), len(wave), s.run)
		s.stats.attempts.Add(int64(len(wave)))
		for i := range wave {
			res, err := wave[i].res, wave[i].err
			wave[i].res = nil // a slot keeps no result past its wave
			switch {
			case err != nil:
				return nil, s.finish(err)
			case res == nil:
				s.stats.rejected.Add(1)
			default:
				s.pending = append(s.pending, res)
				s.since = s.next + int64(i) + 1
			}
		}
		s.next += int64(len(wave))
	}
}

// splitmix is a splitmix64 generator: a Weyl sequence through mix64. As a
// math/rand source it is 8 bytes, and reseeding it is a store.
type splitmix uint64

func (s *splitmix) Int63() int64 {
	*s += 0x9e3779b97f4a7c15
	return int64(mix64(uint64(*s)) >> 1)
}

func (s *splitmix) Seed(seed int64) { *s = splitmix(seed) }

// mix64 is splitmix64's finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// attemptSeed is the generator state attempt i of a stream seeded with seed
// starts from.
func attemptSeed(seed, i int64) splitmix {
	return splitmix(mix64(mix64(uint64(seed)) + uint64(i)))
}

func (s *samplerStream) samplePrefix(rng *rand.Rand) ([]model.Token, bool) {
	if walks := s.opts.PrefixWalks; walks != nil {
		seq := walks.SampleUniform(rng)
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
	var buf []float64 // the step's reweighted row under a rule, one per attempt

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
		// With no rule the row is the model's own, read in place.
		row := lp
		if s.q.Rule != nil {
			buf = decoding.Allowed(s.q.Rule, lp, buf)
			row = buf
		}
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
