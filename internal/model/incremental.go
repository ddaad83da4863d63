package model

// Incremental decoding (DESIGN.md decision 10): prefix-state reuse across
// the search frontier. A constrained traversal expands a frontier whose
// children extend their parents by exactly one token, yet a plain
// NextLogProbs/ScoreBatch call recomputes the whole prefix every time —
// O(L²·d) attention work per child for the Transformer. The contracts here
// let the engine pay only the marginal token: Prefill computes a reusable
// per-sequence DecodeState once, and ExtendBatch advances a batch of states
// by one token each in O(L·d) per sequence. AllPositions is the companion
// contract for sequence scoring: every position's next-token distribution
// from ONE causal forward instead of one forward per position.
//
// Models with no prefix structure to exploit — the n-gram and log-bilinear
// substrates condition on a tiny trailing window — get the trivial
// implementation for free: CtxState just remembers the window, and the
// generic helpers route extension through ScoreBatch (so a caching wrapper's
// LRU still applies). All implementations must be bit-exact with the
// non-incremental path: engines demand byte-identical result streams with
// incremental decoding on and off.

// DecodeState is an opaque per-sequence incremental decoding state: for the
// Transformer, the per-layer attention K/V rows of the prefix; for
// context-window models, the window itself. States are immutable once
// returned — extending a state never mutates it, so one parent state may be
// shared by many children (the frontier is a trie).
type DecodeState interface {
	// Len reports how many context tokens the state encodes.
	Len() int
	// Context returns the encoded context, oldest first. Callers must not
	// mutate the returned slice.
	Context() []Token
	// SizeBytes approximates the state's resident memory. States that share
	// row storage with an ancestor (the Transformer's K/V rows) report the
	// full chain; arenas charge each node the difference from its parent.
	SizeBytes() int64
}

// Incremental is implemented by models that support prefix-state reuse.
// Both methods must be safe for concurrent use and bit-exact with
// NextLogProbs on the equivalent context.
type Incremental interface {
	LanguageModel
	// Prefill runs one full forward over ctx, returning the decode state and
	// the next-token log-probs (identical to NextLogProbs(ctx)).
	Prefill(ctx []Token) (DecodeState, []float64)
	// ExtendBatch advances each state by one token in a single batched step:
	// result i is the state and next-token log-probs of states[i]'s context
	// followed by tokens[i]. Input states are not mutated and remain valid.
	// A state that cannot be extended incrementally (its window would slide)
	// is recomputed internally — the call never fails, it just loses the
	// shortcut for that row.
	ExtendBatch(states []DecodeState, tokens []Token) ([]DecodeState, [][]float64)
}

// ExclusiveSizer is implemented by states that can report precisely the
// bytes they own beyond what a given parent state shares — for the
// transformer, the fresh K/V rows plus this state's own row-pointer arrays
// and token slice (children copy pointers, not rows, but the pointer arrays
// themselves are fresh allocations that a plain SizeBytes difference would
// undercount). Arenas prefer this over SizeBytes subtraction when budgeting.
type ExclusiveSizer interface {
	ExclusiveBytes(parent DecodeState) int64
}

// PrefixStateful is implemented by models (and wrappers, which delegate)
// whose decode states carry real recomputation-saving content — the
// Transformer's K/V rows. Window models are Incremental only in the trivial
// CtxState sense: extending them re-scores the window through ScoreBatch, so
// caching their states in an arena saves nothing and callers should not.
type PrefixStateful interface {
	HasPrefixStates() bool
}

// HasPrefixStates reports whether m's decode states are worth arena-caching.
func HasPrefixStates(m LanguageModel) bool {
	if ps, ok := m.(PrefixStateful); ok {
		return ps.HasPrefixStates()
	}
	return false
}

// AllPositions is implemented by models that can score every position of a
// sequence in one pass: row p of the result is the next-token log-prob
// vector conditioned on seq[:p] (row 0 conditions on the empty context), so
// a sequence log-probability needs one causal forward, not len(seq) of them.
type AllPositions interface {
	ScoreAllPositions(seq []Token) [][]float64
}

// Resident is implemented by memoizing wrappers (the logit LRU and its
// per-query scopes) that can answer some rows without computing anything.
// The device asks it before dispatching (DESIGN.md decisions 4 and 6): a
// resident row executes nothing on an accelerator, so it must not be
// charged, queued or fused. Both probes are non-blocking — a row another
// goroutine is computing right now is reported missing, never waited on —
// count what they answer as the wrapper's own hits, and hand back the very
// rows ScoreBatch / AllPositionLogProbs would return (read-only, shared).
type Resident interface {
	// ResidentRows sets out[i] to ctxs[i]'s next-token log-probs for every
	// resident context, leaves the other slots nil, and returns how many it
	// filled. out arrives zeroed, len(out) == len(ctxs).
	ResidentRows(ctxs [][]Token, out [][]float64) int
	// ResidentAllPositions is the ScoreAllPositions counterpart: out[i] is
	// set only when every position of seqs[i] is resident (a sequence is
	// dispatched whole or not at all). Empty sequences are left to dispatch.
	ResidentAllPositions(seqs [][]Token, out [][][]float64) int
}

// CtxState is the trivial DecodeState for context-window models: the state
// IS the (clamped) context. It is also the fallback state for models with no
// incremental implementation at all, and the form a KV-arena node keeps once
// demoted (DESIGN.md decision 14): models score it by recomputing.
type CtxState struct {
	Toks []Token
}

// Len implements DecodeState.
func (s *CtxState) Len() int { return len(s.Toks) }

// Context implements DecodeState.
func (s *CtxState) Context() []Token { return s.Toks }

// SizeBytes implements DecodeState.
func (s *CtxState) SizeBytes() int64 { return int64(len(s.Toks))*8 + 48 }

// ClampWindow trims ctx to the model's context window — the single clamp
// definition every scoring path (engine, cache, generic helpers) shares, so
// incremental and full paths score identical contexts by construction.
func ClampWindow(m LanguageModel, ctx []Token) []Token {
	if n := m.MaxSeqLen(); len(ctx) > n {
		return ctx[len(ctx)-n:]
	}
	return ctx
}

// Prefill computes the decode state and next-token log-probs for ctx through
// the model's Incremental implementation when it has one, and via the
// trivial context-window state otherwise.
func Prefill(m LanguageModel, ctx []Token) (DecodeState, []float64) {
	if im, ok := m.(Incremental); ok {
		return im.Prefill(ctx)
	}
	c := ClampWindow(m, ctx)
	return &CtxState{Toks: append(make([]Token, 0, len(c)), c...)}, m.NextLogProbs(c)
}

// Extend advances each state by one token, delegating to the model's
// Incremental implementation when present. The generic fallback rebuilds
// each extended, clamped context as a window state and scores the batch
// through ScoreBatch.
func Extend(m LanguageModel, states []DecodeState, tokens []Token) ([]DecodeState, [][]float64) {
	if im, ok := m.(Incremental); ok {
		return im.ExtendBatch(states, tokens)
	}
	out := make([]DecodeState, len(states))
	ctxs := make([][]Token, len(states))
	for i, st := range states {
		prev := st.Context()
		ctx := append(make([]Token, 0, len(prev)+1), prev...)
		ctx = ClampWindow(m, append(ctx, tokens[i]))
		ctxs[i] = ctx
		out[i] = &CtxState{Toks: ctx}
	}
	return out, m.ScoreBatch(ctxs)
}

// AllPositionLogProbs returns every position's next-token log-probs for seq
// (row p conditions on seq[:p]), using the model's AllPositions
// implementation when present and a batched per-position expansion
// otherwise.
func AllPositionLogProbs(m LanguageModel, seq []Token) [][]float64 {
	if ap, ok := m.(AllPositions); ok {
		return ap.ScoreAllPositions(seq)
	}
	ctxs := make([][]Token, len(seq))
	for p := range seq {
		ctxs[p] = ClampWindow(m, seq[:p])
	}
	return m.ScoreBatch(ctxs)
}
