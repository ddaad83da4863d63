package automaton

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
)

// WalkCounter answers exact path-counting queries on a DFA, implementing the
// combinatorial normalization of §3.3: to sample uniformly over the strings
// of a language, each edge must be weighed by the number of accepting walks
// that pass through it. Cycles are handled, per the paper, by bounding walk
// length at the LM's maximum sequence length ("unrolling").
//
// Counts grow exponentially with length. A table whose every count fits a
// machine word is one flat array of uint64; only a table with a count past
// 2⁶⁴−1 falls back to big.Int rows. Both forms draw by one rule — the same
// RNG calls in the same order for the same counts — so a sampled stream does
// not depend on which form its table took. A WalkCounter is read-only once
// built: any number of goroutines may sample from one.
type WalkCounter struct {
	d      *Frozen
	maxLen int
	// words[rem][s] is the number of accepting walks of length <= rem
	// starting at s; every row is a view of one array. nil when some count
	// overflows uint64.
	words [][]uint64
	// table holds the same counts as big.Int, built only when words is nil.
	table [][]*big.Int
}

// NewWalkCounter prepares walk counts for d with walk lengths bounded by
// maxLen symbols. The DP is computed eagerly: O(maxLen * edges) word
// additions, or big-integer ones when a count overflows a word.
func NewWalkCounter(d *Frozen, maxLen int) *WalkCounter {
	n := d.NumStates()
	flat := make([]uint64, (maxLen+1)*n)
	words := make([][]uint64, maxLen+1)
	for rem := range words {
		words[rem] = flat[rem*n : (rem+1)*n]
		var prev []uint64
		if rem > 0 {
			prev = words[rem-1]
		}
		if walkRow(d, prev, words[rem], math.MaxUint64) {
			return newBigWalkCounter(d, maxLen)
		}
	}
	return &WalkCounter{d: d, maxLen: maxLen, words: words}
}

// walkRow computes one row of the walk-count recurrence: cur[s] counts the
// accepting walks of length at most rem from s, given prev, the row for
// rem-1 (nil or all zero when rem is 0). A sum past limit saturates at limit
// and is reported: counts only ever grow by addition, so a saturated cell is
// exactly one whose true count exceeds limit, and a cell read from a
// saturated one is saturated too.
func walkRow[F form](w F, prev, cur []uint64, limit uint64) (saturated bool) {
	for s := range cur {
		var acc uint64
		if w.Accepting(s) {
			acc = 1
		}
		if prev != nil {
			for _, e := range w.Edges(s) {
				if c := prev[e.To]; c > limit-acc {
					acc, saturated = limit, true
				} else {
					acc += c
				}
			}
		}
		cur[s] = acc
	}
	return saturated
}

// newBigWalkCounter builds the table in big.Int: the fallback for counts
// that overflow a word, and the reference the word table is tested against.
func newBigWalkCounter(d *Frozen, maxLen int) *WalkCounter {
	w := &WalkCounter{d: d, maxLen: maxLen}
	n := d.NumStates()
	w.table = make([][]*big.Int, maxLen+1)
	row := make([]*big.Int, n)
	for s := 0; s < n; s++ {
		if d.Accepting(s) {
			row[s] = big.NewInt(1)
		} else {
			row[s] = big.NewInt(0)
		}
	}
	w.table[0] = row
	for rem := 1; rem <= maxLen; rem++ {
		prev := w.table[rem-1]
		row := make([]*big.Int, n)
		for s := 0; s < n; s++ {
			acc := big.NewInt(0)
			if d.Accepting(s) {
				acc.SetInt64(1)
			}
			for _, e := range d.Edges(s) {
				acc.Add(acc, prev[e.To])
			}
			row[s] = acc
		}
		w.table[rem] = row
	}
	return w
}

// count returns the number of accepting walks of length at most rem from s,
// 0 <= rem <= maxLen, as a fresh big.Int.
func (w *WalkCounter) count(rem int, s StateID) *big.Int {
	if w.words != nil {
		return new(big.Int).SetUint64(w.words[rem][s])
	}
	return new(big.Int).Set(w.table[rem][s])
}

// positive reports whether some accepting walk of length at most rem starts
// at s.
func (w *WalkCounter) positive(rem int, s StateID) bool {
	if w.words != nil {
		return w.words[rem][s] > 0
	}
	return w.table[rem][s].Sign() > 0
}

// Count returns the number of accepting walks (strings, counted with token
// multiplicity) of length at most maxLen from the start state.
func (w *WalkCounter) Count() *big.Int {
	return w.count(w.maxLen, w.d.Start())
}

// CountFrom returns the number of accepting walks of length at most rem
// starting at state s.
func (w *WalkCounter) CountFrom(s StateID, rem int) *big.Int {
	if rem < 0 {
		return big.NewInt(0)
	}
	return w.count(min(rem, w.maxLen), s)
}

// CountExact returns the number of accepting walks of length exactly n from
// the start state, i.e. s(q0)ᵀ·Aⁿ·f(F) in the paper's notation. Computed as
// Count(<=n) - Count(<=n-1).
func (w *WalkCounter) CountExact(n int) *big.Int {
	if n < 0 || n > w.maxLen {
		return big.NewInt(0)
	}
	c := w.count(n, w.d.Start())
	if n > 0 {
		c.Sub(c, w.count(n-1, w.d.Start()))
	}
	return c
}

// SampleUniform draws a symbol sequence uniformly at random from the set of
// accepting walks of length <= maxLen. It returns nil when the language
// (restricted to maxLen) is empty. At each state the next edge — or the
// decision to stop at an accepting state — is chosen with probability
// proportional to the number of completions, which is exactly the edge
// normalization of §3.3 and Appendix C.
//
// The draw rule: the stop (weight 1 at an accepting state) comes first, then
// the edges in symbol order, each weighing its target's count; one uniform
// integer below their sum, drawn as randBig draws it, picks the first whose
// running total exceeds it. The sum is the state's own count — that is the
// recurrence — so the word table reads it instead of adding.
func (w *WalkCounter) SampleUniform(rng *rand.Rand) []Symbol {
	if w.words == nil {
		return w.sampleUniformBig(rng)
	}
	s := w.d.Start()
	if w.words[w.maxLen][s] == 0 {
		return nil
	}
	seq := make([]Symbol, 0, 8) // non-nil: the empty string is a valid sample
	for rem := w.maxLen; ; rem-- {
		total := w.words[rem][s]
		if total == 0 {
			// Unreachable: every step lands on a state with completions.
			return nil
		}
		pick := randWord(rng, total)
		if w.d.Accepting(s) {
			if pick == 0 {
				return seq
			}
			pick--
		}
		// pick < total, so an edge takes it: past the stop, rem >= 1 here.
		for _, e := range w.d.Edges(s) {
			if c := w.words[rem-1][e.To]; pick >= c {
				pick -= c
				continue
			}
			seq = append(seq, e.Sym)
			s = e.To
			break
		}
	}
}

// sampleUniformBig is SampleUniform over the big.Int table.
func (w *WalkCounter) sampleUniformBig(rng *rand.Rand) []Symbol {
	total := w.table[w.maxLen][w.d.Start()]
	if total.Sign() == 0 {
		return nil
	}
	seq := make([]Symbol, 0, 8) // non-nil: the empty string is a valid sample
	s := w.d.Start()
	rem := w.maxLen
	for {
		// Weight of terminating here (emitting the string ending at s).
		stop := big.NewInt(0)
		if w.d.Accepting(s) {
			stop.SetInt64(1)
		}
		weights := []*big.Int{stop}
		edges := w.d.Edges(s)
		totalHere := new(big.Int).Set(stop)
		for _, e := range edges {
			var c *big.Int
			if rem-1 < 0 {
				c = big.NewInt(0)
			} else {
				c = w.table[rem-1][e.To]
			}
			weights = append(weights, c)
			totalHere.Add(totalHere, c)
		}
		if totalHere.Sign() == 0 {
			// Unreachable on a trimmed automaton; guard anyway.
			return nil
		}
		pick := randBig(rng, totalHere)
		idx := 0
		acc := new(big.Int)
		for i, wt := range weights {
			acc.Add(acc, wt)
			if pick.Cmp(acc) < 0 {
				idx = i
				break
			}
		}
		if idx == 0 {
			return seq
		}
		e := edges[idx-1]
		seq = append(seq, e.Sym)
		s = e.To
		rem--
	}
}

// EdgeProbabilities returns, for state s with budget rem, the normalized
// probability of taking each outgoing edge (and, first, of stopping) under
// uniform-over-strings sampling. Used by tests and by the fig9 ablation.
func (w *WalkCounter) EdgeProbabilities(s StateID, rem int) (stop float64, edges []float64) {
	stopW := big.NewInt(0)
	if w.d.Accepting(s) {
		stopW.SetInt64(1)
	}
	es := w.d.Edges(s)
	ws := make([]*big.Int, len(es))
	total := new(big.Int).Set(stopW)
	for i, e := range es {
		ws[i] = w.CountFrom(e.To, rem-1)
		total.Add(total, ws[i])
	}
	if total.Sign() == 0 {
		return 0, make([]float64, len(es))
	}
	tf := new(big.Float).SetInt(total)
	ratio := func(x *big.Int) float64 {
		q := new(big.Float).Quo(new(big.Float).SetInt(x), tf)
		f, _ := q.Float64()
		return f
	}
	out := make([]float64, len(es))
	for i := range es {
		out[i] = ratio(ws[i])
	}
	return ratio(stopW), out
}

// randBig returns a uniform random big.Int in [0, n). n must be positive.
func randBig(rng *rand.Rand, n *big.Int) *big.Int {
	// Rejection sampling over the bit width of n.
	bits := n.BitLen()
	bytes := (bits + 7) / 8
	buf := make([]byte, bytes)
	mask := byte(0xFF)
	if r := bits % 8; r != 0 {
		mask = byte(1<<uint(r)) - 1
	}
	v := new(big.Int)
	for {
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		buf[0] &= mask
		v.SetBytes(buf)
		if v.Cmp(n) < 0 {
			return v
		}
	}
}

// randWord returns a uniform random integer in [0, n), n > 0, consuming rng
// exactly as randBig does for the same n: one rng.Intn(256) per byte of n's
// bit width, most significant first, the first masked to the width's top
// bits, the whole redrawn until it falls below n.
func randWord(rng *rand.Rand, n uint64) uint64 {
	width := bits.Len64(n)
	mask := uint64(0xFF)
	if r := width % 8; r != 0 {
		mask = 1<<uint(r) - 1
	}
	for {
		v := uint64(rng.Intn(256)) & mask
		for i := 1; i < (width+7)/8; i++ {
			v = v<<8 | uint64(rng.Intn(256))
		}
		if v < n {
			return v
		}
	}
}

// SampleUnnormalized draws a walk by choosing uniformly among the available
// edges (and stopping) at each step, ignoring completion counts. This is the
// biased strategy the paper's Appendix C warns against; it exists so the fig9
// experiment can demonstrate the bias.
func (w *WalkCounter) SampleUnnormalized(rng *rand.Rand) []Symbol {
	seq := make([]Symbol, 0, 8) // non-nil: the empty string is a valid sample
	s := w.d.Start()
	rem := w.maxLen
	for {
		edges := w.d.Edges(s)
		// Only edges with at least one completion are options.
		viable := func(e Edge) bool { return rem >= 1 && w.positive(rem-1, e.To) }
		options := 0
		for _, e := range edges {
			if viable(e) {
				options++
			}
		}
		canStop := w.d.Accepting(s)
		if canStop {
			options++
		}
		if options == 0 {
			return nil
		}
		pick := rng.Intn(options)
		if canStop && pick == options-1 {
			return seq
		}
		for _, e := range edges {
			if !viable(e) {
				continue
			}
			if pick > 0 {
				pick--
				continue
			}
			seq = append(seq, e.Sym)
			s = e.To
			break
		}
		rem--
	}
}
