// Package engine implements the ReLM Executor (§3.3): it traverses an LLM
// automaton against a language model under decision rules, yielding matching
// token sequences as a stream. Two traversals are provided, mirroring the
// paper — Dijkstra shortest-path (highest-probability-first, used for
// memorization and inference) and randomized sampling (used to estimate
// event probabilities, e.g. bias distributions).
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/kvcache"
	"repro/internal/model"
	"repro/internal/trace"
)

// Query is a fully compiled ReLM query: the token-space automaton for the
// pattern, the prefix handling, the decision rules, and traversal limits.
type Query struct {
	// Pattern is the LLM automaton (token alphabet) for the constrained part
	// of the generation. A DFA is immutable, so one compiled plan can serve
	// many concurrent queries.
	Pattern *automaton.DFA
	// Prefixes are the token encodings of the (enumerated) prefix language.
	// Prefix tokens bypass decision rules (§3.3) but contribute their model
	// cost for prioritization (the paper's startup-latency heuristic). An
	// empty slice means "no prefix": generation is unconditional.
	Prefixes [][]model.Token
	// Rule is the decision rule chain applied to pattern (non-prefix) steps.
	// nil means no filtering (p(x) > 0 semantics).
	Rule decoding.Rule
	// Filter, when non-nil, restricts traversal to canonical encodings via
	// dynamic pruning (§3.2, option 2). It applies to the pattern tokens.
	Filter *compiler.CanonicalFilter
	// RequireEOS demands that the model emit EOS after the pattern match,
	// disambiguating "b" from "bb..." (§3.3). The EOS step is rule-checked
	// and its cost included.
	RequireEOS bool
	// MaxTokens caps the number of pattern tokens per result (default: the
	// model's max sequence length).
	MaxTokens int
	// MaxNodes caps total node expansions, bounding memory on infinite
	// languages: shortest path defaults to 1<<20.
	MaxNodes int
	// BatchExpand is how many frontier nodes a shortest-path round pops, and
	// the most rows one of its device dispatches carries, amortizing
	// dispatch overhead — the paper's executor "schedules massive sets of
	// test vectors on accelerators" (§3.3). A popped node is scored only
	// when it reaches the top of the frontier, with the unscored nodes
	// below it in one dispatch: up to 8 when the top's row is in the logit
	// cache, up to half the device batch when it must be dispatched, twice
	// as many on each further dispatch before the top is scored, never more
	// than BatchExpand (DESIGN.md decision 6). The stream is what an eager
	// expansion of each round emits; costs never decrease along a path, so
	// batching reorders only matches of equal cost. 0 defaults to the device
	// batch size.
	BatchExpand int
	// PrefixZeroCost treats every prefix as cost 0, making the prefix set a
	// truly uniform distribution — the paper's first design (§3.3), which
	// it rejects because "the latency for returning the first tuple can
	// increase dramatically, as all prefixes have to be visited first". The
	// default (false) applies the paper's fix: prefixes keep their original
	// model cost for prioritization while still bypassing decoding rules.
	// Exposed for the DESIGN.md decision-5 ablation.
	PrefixZeroCost bool
	// Incremental enables prefix-state (KV-cache) reuse across frontier
	// expansion (DESIGN.md decision 10): a popped node's logits come from
	// extending its parent's cached decode state by one token through
	// Device.ExtendBatch — O(L·d) for the Transformer — instead of
	// re-forwarding the whole prefix. A node whose row the logit cache
	// already holds costs neither. Nodes whose parent state is not resident
	// in KV (evicted under budget, or never computed) fall back to a batched
	// Prefill; states are pure caches, so the fallback only costs time.
	// Result streams are byte-identical to the full path at any budget.
	// Takes effect only where EffectiveIncremental holds.
	Incremental bool
	// KV is the prefix-state arena backing Incremental. It may be shared by
	// any number of concurrent queries (states for common prefixes are
	// computed once and reused across the fleet).
	KV *kvcache.Arena
	// Context cancels an in-progress traversal: Next observes it between
	// expansion rounds and returns its error. nil means Background.
	Context context.Context
	// Trace, when non-nil, records the traversal's span tree: one "round"
	// span per frontier expansion with the device dispatches and KV arena
	// work it triggered as children. nil (the default) keeps every
	// instrumentation site at a single pointer check.
	Trace *trace.Trace

	// cancel releases the stream's derived context. Filled by
	// normalizeQuery; Stream.Close and terminal Next paths invoke it so an
	// abandoned stream never stays registered with a long-lived parent
	// context (a server request context, for example).
	cancel context.CancelFunc
	// eos is the model's EOS token, filled by normalizeQuery.
	eos model.Token
}

// Result is one matching tuple from the stream.
type Result struct {
	// Prefix and Pattern are the token sequences for the two query parts.
	Prefix  []model.Token
	Pattern []model.Token
	// LogProb is the model log probability of the full sequence (prefix +
	// pattern + EOS when required).
	LogProb float64
	// PrefixLogProb is the portion attributable to the prefix.
	PrefixLogProb float64
}

// Tokens returns the full token sequence, prefix then pattern.
func (r *Result) Tokens() []model.Token {
	out := make([]model.Token, 0, len(r.Prefix)+len(r.Pattern))
	out = append(out, r.Prefix...)
	out = append(out, r.Pattern...)
	return out
}

// Stats counts engine work for efficiency experiments. The metric tags name
// the /metrics families the server's aggregate is served as.
type Stats struct {
	NodesExpanded int64 `metric:"relm_engine_nodes_expanded_total,counter,Search-tree nodes expanded across all queries."`
	ModelCalls    int64 `metric:"relm_engine_model_calls_total,counter,Contexts actually scored across all queries."`
	Emitted       int64 `metric:"relm_engine_emitted_total,counter,Matches emitted across all queries."`
	// Attempts and Rejected are the sampler's: total sampling attempts
	// (incl. rejected), and attempts that dead-ended or failed a filter.
	Attempts int64 `metric:"relm_engine_attempts_total,counter,Sampler attempts across all queries."`
	Rejected int64 `metric:"relm_engine_rejected_total,counter,Sampler rejections across all queries."`
}

// Add accumulates o into s — the one place aggregators sum Stats, so a new
// counter field extends every aggregate by updating this method alone.
func (s *Stats) Add(o Stats) {
	s.NodesExpanded += o.NodesExpanded
	s.ModelCalls += o.ModelCalls
	s.Emitted += o.Emitted
	s.Attempts += o.Attempts
	s.Rejected += o.Rejected
}

// counters is the race-safe backing store for Stats: streams update it with
// atomics, so a Stats snapshot is safe from any goroutine while a traversal
// runs.
type counters struct {
	nodesExpanded atomic.Int64
	modelCalls    atomic.Int64
	emitted       atomic.Int64
	attempts      atomic.Int64
	rejected      atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		NodesExpanded: c.nodesExpanded.Load(),
		ModelCalls:    c.modelCalls.Load(),
		Emitted:       c.emitted.Load(),
		Attempts:      c.attempts.Load(),
		Rejected:      c.rejected.Load(),
	}
}

// ErrExhausted is reported by Next when a deterministic traversal has
// visited the entire language (or hit MaxNodes).
var ErrExhausted = errors.New("engine: query space exhausted")

// Stream yields query results one at a time.
type Stream interface {
	// Next returns the next result. It returns ErrExhausted when the
	// language is exhausted (deterministic traversals only; random streams
	// never exhaust but may return ErrExhausted once
	// SamplerOptions.MaxAttemptsPerResult attempts fail consecutively). Once Close cancels the stream's context or a
	// device dispatch fails, Next returns that error.
	Next() (*Result, error)
	// Close cancels the stream's traversal context and releases its
	// resources. Safe to call multiple times and from any goroutine; a
	// traversal blocked in Next observes the cancellation at its next
	// expansion round. Streams must always be closed — abandoning a
	// half-drained stream otherwise keeps its derived context registered
	// with the parent for the parent's lifetime.
	Close() error
	// Stats returns a snapshot of work counters.
	Stats() Stats
}

// stream is what every traversal shares: the normalized query (Close cancels
// its derived context), the device view, the counters, the terminal error.
type stream struct {
	q     *Query
	dev   *device.Device
	stats counters
	end   error // set once the stream has ended for good; Next returns it
}

func (s *stream) Stats() Stats { return s.stats.snapshot() }
func (s *stream) Close() error { s.q.cancel(); return nil }

// finish records the terminal error and releases the derived context.
func (s *stream) finish(err error) error {
	s.end = err
	s.q.cancel()
	return err
}

// path is a frontier node's model context (prefix + pattern so far). A child
// is born holding its parent's slice and its own last token, and copies the
// two into a slice of its own only when its context is first built — when the
// node is popped for scoring. A child built but never scored (one beam
// truncation drops) costs no copy of a paragraph-long prefix, and a match
// shares its parent's slice outright. Ordering never reads the context.
type path struct {
	ctx     []model.Token
	last    model.Token
	pending bool // ctx is still the parent's; the node's own is ctx + last
}

// context returns the node's own context, building it on first use. Not safe
// for concurrent use on one node; distinct nodes may share a parent slice,
// which is only read.
func (p *path) context() []model.Token {
	if p.pending {
		p.build(make([]model.Token, len(p.ctx)+1))
	}
	return p.ctx
}

// build writes the pending context into own, which holds exactly its tokens.
func (p *path) build(own []model.Token) {
	copy(own, p.ctx)
	own[len(p.ctx)] = p.last
	p.ctx, p.pending = own, false
}

// rootPath copies a prefix into a path of its own.
func rootPath(prefix []model.Token) path {
	return path{ctx: append([]model.Token{}, prefix...)}
}

// node is a search-tree node of shortest path and beam: a popped frontier
// entry, a beam hypothesis or a harvested match.
type node struct {
	path
	state    automaton.StateID
	patLen   int     // how many context tokens are pattern tokens
	cost     float64 // cumulative -log p (EOS step included for a match)
	prefLogP float64
	from     int64  // discovery order of the node it was spawned from
	rank     uint32 // its place among its siblings (sibling.rank)
}

// pattern returns the pattern part of the node's context.
func (n *node) pattern() []model.Token {
	ctx := n.context()
	return ctx[len(ctx)-n.patLen:]
}

// result converts a match node.
func (n *node) result() *Result {
	ctx := n.context()
	return &Result{
		Prefix:        ctx[:len(ctx)-n.patLen],
		Pattern:       ctx[len(ctx)-n.patLen:],
		LogProb:       -n.cost,
		PrefixLogProb: n.prefLogP,
	}
}

// spawn builds the node a sibling of n stands for: the child one token
// beyond n, or — for matchSym and rootSym — n itself at the sibling's cost.
// from is n's discovery order.
func (n *node) spawn(s sibling, from int64) node {
	c := *n
	c.cost, c.from, c.rank = s.cost, from, s.rank()
	if s.sym >= 0 {
		c.path = path{ctx: n.context(), last: model.Token(s.sym), pending: true}
		c.state = automaton.StateID(s.to)
		c.patLen++
	}
	return c
}

// order places an entry in the frontier order (DESIGN.md decision 6), the one
// total order shortest path pops and beam truncates and emits by: cost, then
// the discovery order of the node the entry was spawned from, then its rank
// among that node's siblings — token id, the node's match after every child.
// Prefix roots are discovered first, in prefix order; every other node when
// it is expanded, in batch order. It is the order in which an eager heap
// receives the entries, so equal costs never fall to a heap's layout or a
// sort's internals.
type order struct {
	cost float64
	from int64
	rank uint32
}

func (a order) compare(b order) int {
	if c := cmp.Compare(a.cost, b.cost); c != 0 {
		return c
	}
	if c := cmp.Compare(a.from, b.from); c != 0 {
		return c
	}
	return cmp.Compare(a.rank, b.rank)
}

// byOrder sorts nodes by the frontier order.
func byOrder(a, b node) int {
	return order{a.cost, a.from, a.rank}.compare(order{b.cost, b.from, b.rank})
}

// sibling is one kept successor of an expanded node, 16 bytes where a built
// node is ~100: the child one token beyond it (sym its token id, to its
// state), or with sym = matchSym the node's own match. A node is spawned from
// a sibling only when shortest path pops it, beam keeps it or the sampler
// draws it.
type sibling struct {
	cost float64
	sym  int32
	to   int32
}

const (
	matchSym int32 = -1 // the expanded node's match, EOS step included
	rootSym  int32 = -2 // a prefix root: the node itself
)

// rank orders siblings of one node: token id, the match after every child.
func (s sibling) rank() uint32 { return uint32(s.sym) }

// before is the sibling order, (cost, rank), total among one node's siblings.
func (s sibling) before(t sibling) bool {
	return s.cost < t.cost || s.cost == t.cost && s.rank() < t.rank()
}

// siblings is one node's sibling set; after heapify, or when sorted, a binary
// min-heap in the sibling order.
type siblings []sibling

func (h siblings) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (h siblings) heapify() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// pop removes and returns the least sibling of a heapified set.
func (h *siblings) pop() sibling {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	*h = s[:last]
	h.down(0)
	return top
}

// add files s: appended, or when bounded, into a set sorted in the sibling
// order that keeps its least cap siblings. It reports whether that set
// dropped one, s or its greatest.
func (h *siblings) add(s sibling, bounded bool) (dropped bool) {
	t := *h
	if bounded && len(t) == cap(t) {
		if !s.before(t[len(t)-1]) {
			return true
		}
		t, dropped = t[:len(t)-1], true
	}
	t = append(t, s)
	for i := len(t) - 1; bounded && i > 0 && s.before(t[i-1]); i-- {
		t[i], t[i-1] = t[i-1], t[i]
	}
	*h = t
	return dropped
}

// expand is the expansion rule (§3.3), the one place that reads the
// automaton, the decision rule's support, the canonical filter, MaxTokens and
// EOS to decide a scored node's successors; the engines differ only in what
// they do with them. It returns the node's sibling set in dst's storage when
// that is large enough: when the node may grow — its pattern is under
// MaxTokens and the canonical filter, asked once for all the children,
// agrees — one sibling per pattern edge whose token is in kept, in edge
// order; and last, when the node may end here, its match, charged the EOS
// step under RequireEOS. A sibling's cost is cost minus its token's entry in
// lp. Bounded, it keeps only the set's least cap(dst) siblings, sorted, and
// reports whether it dropped any.
func (q *Query) expand(state automaton.StateID, pattern []model.Token, cost float64, lp []float64, kept decoding.Support, dst siblings, bounded bool) (siblings, bool) {
	edges, live := q.Pattern.Edges(state), 0
	if q.grows(len(pattern)) {
		for _, e := range edges {
			if kept.Has(e.Sym) {
				live++
			}
		}
	}
	if live > 0 && !q.Filter.AllowChildren(pattern) {
		live = 0
	}
	match := q.ends(kept) && q.final(state, pattern)
	size := live
	if match {
		size++
	}
	if !bounded && cap(dst) < size {
		dst = make(siblings, 0, size)
	}
	dst, dropped := dst[:0], false
	if live > 0 {
		for _, e := range edges {
			if kept.Has(e.Sym) && dst.add(sibling{cost: cost - lp[e.Sym], sym: int32(e.Sym), to: int32(e.To)}, bounded) {
				dropped = true
			}
		}
	}
	if match {
		if q.RequireEOS {
			cost -= lp[q.eos]
		}
		dropped = dst.add(sibling{cost: cost, sym: matchSym}, bounded) || dropped
	}
	return dst, dropped
}

// grows reports whether a node with n pattern tokens may have children.
func (q *Query) grows(n int) bool { return n < q.MaxTokens }

// final is the rule's match half: a node may end here when its state accepts
// and its pattern is non-empty and canonical.
func (q *Query) final(state automaton.StateID, pattern []model.Token) bool {
	return q.Pattern.Accepting(state) && len(pattern) > 0 && q.Filter.AllowFinal(pattern)
}

// ends reports whether the support lets a match end: under RequireEOS the
// decision rule must keep EOS.
func (q *Query) ends(kept decoding.Support) bool { return !q.RequireEOS || kept.Has(q.eos) }

// appendContexts appends each node's own context to dst, in order, for a
// scoring round. The round's pending contexts are built in one block, each
// carved off with a full slice expression so none can grow into the next: a
// node that outlives the round keeps the whole block alive until its
// batch-mates are spent too.
func appendContexts(dst [][]model.Token, nodes []node) [][]model.Token {
	size := 0
	for i := range nodes {
		if p := &nodes[i].path; p.pending {
			size += len(p.ctx) + 1
		}
	}
	block := make([]model.Token, size)
	for i := range nodes {
		p := &nodes[i].path
		if p.pending {
			n := len(p.ctx) + 1
			p.build(block[:n:n])
			block = block[n:]
		}
		dst = append(dst, p.ctx)
	}
	return dst
}

// scoreSequences scores every sequence with all-positions scoring: one
// causal forward per sequence yields every position's next-token
// distribution at once (DESIGN.md decision 10), so a length-L sequence
// costs one device row instead of L full-prefix context rows. Sequences
// longer than the model window keep the row-expanded path — their
// per-position contexts are sliding windows, which a single forward cannot
// reproduce — and both paths are bit-identical to per-position NextLogProbs.
// Returns per-sequence total log probabilities and the number of contexts
// scored (one per position, so ModelCalls keeps its meaning), or an error.
func scoreSequences(dev *device.Device, seqs [][]model.Token) ([]float64, int64, error) {
	m := dev.Model()
	totals := make([]float64, len(seqs))
	var contexts int64
	var allIdx []int
	var allSeqs [][]model.Token
	var rowIdx, rowPos []int
	var rowCtxs [][]model.Token
	for i, seq := range seqs {
		if len(seq) == 0 {
			continue
		}
		contexts += int64(len(seq))
		if len(seq) <= m.MaxSeqLen() {
			allIdx = append(allIdx, i)
			allSeqs = append(allSeqs, seq)
			continue
		}
		for p := range seq {
			rowIdx = append(rowIdx, i)
			rowPos = append(rowPos, p)
			rowCtxs = append(rowCtxs, model.ClampWindow(m, seq[:p]))
		}
	}
	if len(allSeqs) > 0 {
		rows, err := dev.ScoreAll(allSeqs)
		if err != nil {
			return nil, 0, err
		}
		for j, i := range allIdx {
			total := 0.0
			for p, tok := range seqs[i] {
				total += rows[j][p][tok]
				if math.IsInf(total, -1) {
					total = model.NegInf
					break
				}
			}
			totals[i] = total
		}
	}
	if len(rowCtxs) > 0 {
		lps, err := dev.Forward(rowCtxs)
		if err != nil {
			return nil, 0, err
		}
		acc := make(map[int]float64, 4)
		accIdx := make([]int, 0, 4)
		for r, i := range rowIdx {
			if _, ok := acc[i]; !ok {
				acc[i] = 0
				accIdx = append(accIdx, i)
			}
			if !math.IsInf(acc[i], -1) {
				acc[i] += lps[r][seqs[i][rowPos[r]]]
				if math.IsInf(acc[i], -1) {
					acc[i] = model.NegInf
				}
			}
		}
		for _, i := range accIdx {
			totals[i] = acc[i]
		}
	}
	return totals, contexts, nil
}

// scoreFrontier returns next-token log-probs for a batch of frontier contexts:
// the one statement of how every engine scores, shortest path, beam and the
// sampler's one-context steps alike. On the full path it is one packed
// Forward over the clamped contexts. The incremental path asks in the order
// logit LRU → KV arena → device (DESIGN.md decision 10). A context whose row
// is resident is answered by the device's probe and gets no state. Of the
// rest, each whose parent state is in the arena is scored by a one-token
// ExtendBatch step, and the others (roots, evictions, children of a resident
// context, window-edge contexts) by a batched Prefill. Every computed state is
// committed back to the arena so the next round's children extend it in turn.
// All routes produce bit-identical rows. A failed dispatch returns its error
// with every parent handle released. Whether a query takes the incremental
// path is EffectiveIncremental's answer.
func scoreFrontier(dev *device.Device, q *Query, ctxs [][]model.Token) ([][]float64, error) {
	m := dev.Model()
	clamped := ctxs // copied at the first context the window clamps
	for i, ctx := range ctxs {
		if c := model.ClampWindow(m, ctx); len(c) < len(ctx) {
			if &clamped[0] == &ctxs[0] {
				clamped = slices.Clone(ctxs)
			}
			clamped[i] = c
		}
	}
	if !EffectiveIncremental(dev, q) {
		return dev.Forward(clamped)
	}
	lps := make([][]float64, len(ctxs))
	hit := dev.Resident(clamped, lps)
	if hit == len(ctxs) {
		return lps, nil
	}
	tr, trParent := dev.TraceContext()
	kvSpan := tr.Start(trParent, "kv.acquire")
	// cacheable: a state for ctx is worth committing iff a child extension
	// from it would itself be incremental (inside the window with headroom
	// for the transformer's window-minus-one clamp).
	cacheable := func(n int) bool { return n >= 1 && n <= m.MaxSeqLen()-2 }
	type ext struct {
		idx    int
		parent *kvcache.Handle
	}
	var exts []ext
	var pfIdx []int // parent-state misses whose own state is worth committing
	var pfCtxs [][]model.Token
	var fwdIdx []int // deep/root rows with no state to keep: plain Forward
	var fwdCtxs [][]model.Token
	for i, ctx := range ctxs {
		if lps[i] != nil {
			continue
		}
		if len(ctx) >= 2 && len(ctx) <= m.MaxSeqLen()-1 {
			if h := q.KV.Acquire(ctx[:len(ctx)-1]); h != nil {
				exts = append(exts, ext{idx: i, parent: h})
				continue
			}
		}
		if cacheable(len(ctx)) {
			pfIdx = append(pfIdx, i)
			pfCtxs = append(pfCtxs, ctx)
			continue
		}
		// A Prefill here would compute a state nobody can reuse and skip
		// the logit LRU; Forward keeps deep rows on the memoized path.
		fwdIdx = append(fwdIdx, i)
		fwdCtxs = append(fwdCtxs, clamped[i])
	}
	if tr != nil {
		tr.Annotate(kvSpan, "hits", strconv.Itoa(len(exts)))
		tr.Annotate(kvSpan, "misses", strconv.Itoa(len(pfIdx)))
		tr.Annotate(kvSpan, "deep", strconv.Itoa(len(fwdIdx)))
		tr.End(kvSpan)
	}
	if len(exts) > 0 {
		defer func() { // a no-op after the commit loop below: Release is idempotent
			for _, e := range exts {
				e.parent.Release()
			}
		}()
		// Demoted parents (token context only, DESIGN.md decision 14)
		// promote first: one Prefill per unique parent context rebuilds
		// bit-exact rows, and every child extension below then runs
		// incrementally. Several children can share one demoted
		// parent — dedupe so the node is recomputed once; Promote via any
		// handle promotes the node for all of them.
		var promo []int // representative ext index per unique demoted parent
		var promoCtxs [][]model.Token
		var seen map[string]bool
		for j, e := range exts {
			if !e.parent.NeedsRecompute() {
				continue
			}
			ctx := ctxs[e.idx]
			pk := model.Key(ctx[:len(ctx)-1])
			if seen == nil {
				seen = make(map[string]bool)
			}
			if seen[pk] {
				continue
			}
			seen[pk] = true
			promo = append(promo, j)
			promoCtxs = append(promoCtxs, ctx[:len(ctx)-1])
		}
		if len(promo) > 0 {
			pdev := dev
			var promoSpan trace.SpanID
			if tr != nil {
				promoSpan = tr.Start(trParent, "kv.promote")
				tr.Annotate(promoSpan, "parents", strconv.Itoa(len(promo)))
				pdev = dev.WithTrace(tr, promoSpan)
			}
			pstates, _, err := pdev.Prefill(promoCtxs)
			for jj, j := range promo[:len(pstates)] { // none on a failed dispatch
				exts[j].parent.Promote(pstates[jj])
			}
			tr.End(promoSpan)
			if err != nil {
				return nil, err
			}
		}
		states := make([]model.DecodeState, len(exts))
		toks := make([]model.Token, len(exts))
		for j, e := range exts {
			states[j] = e.parent.State()
			ctx := ctxs[e.idx]
			toks[j] = ctx[len(ctx)-1]
		}
		newStates, rows, err := dev.ExtendBatch(states, toks)
		if err != nil {
			return nil, err
		}
		for j, e := range exts {
			lps[e.idx] = rows[j]
			if cacheable(len(ctxs[e.idx])) {
				q.KV.Commit(e.parent, ctxs[e.idx], newStates[j]).Release()
			}
			e.parent.Release()
		}
	}
	if len(pfIdx) > 0 {
		states, rows, err := dev.Prefill(pfCtxs)
		if err != nil {
			return nil, err
		}
		for j, i := range pfIdx {
			lps[i] = rows[j]
			q.KV.Commit(nil, ctxs[i], states[j]).Release()
		}
	}
	if len(fwdIdx) > 0 {
		rows, err := dev.Forward(fwdCtxs)
		if err != nil {
			return nil, err
		}
		for j, i := range fwdIdx {
			lps[i] = rows[j]
		}
	}
	return lps, nil
}

// roundDevice opens one frontier-expansion "round" span and returns the
// traced device view this round's dispatches should record under.
// Untraced queries pay one nil check and get dev back unchanged.
func roundDevice(dev *device.Device, q *Query, round int64, nodes int) (*device.Device, trace.SpanID) {
	if q.Trace == nil {
		return dev, 0
	}
	sp := q.Trace.Start(trace.RootID, "round")
	q.Trace.Annotate(sp, "n", strconv.FormatInt(round, 10))
	q.Trace.Annotate(sp, "nodes", strconv.Itoa(nodes))
	return dev.WithTrace(q.Trace, sp), sp
}

// scorePrefixes scores the enumerated prefix set in one batched device round,
// under the "prefix.score" span that roots a traversal, and returns each
// prefix's log probability. A query cancelled before it starts dispatches
// nothing. An error ends the stream.
func (s *stream) scorePrefixes() ([]float64, error) {
	if err := s.q.Context.Err(); err != nil {
		return nil, s.finish(err)
	}
	dev, sp := s.dev, trace.SpanID(0)
	if s.q.Trace != nil {
		sp = s.q.Trace.Start(trace.RootID, "prefix.score")
		dev = dev.WithTrace(s.q.Trace, sp)
	}
	logPs, calls, err := scoreSequences(dev, s.q.Prefixes)
	s.q.Trace.End(sp)
	if err != nil {
		return nil, s.finish(err)
	}
	s.stats.modelCalls.Add(calls)
	return logPs, nil
}

// queryContext returns the query's cancellation context, defaulting to
// Background.
func queryContext(q *Query) context.Context {
	if q.Context != nil {
		return q.Context
	}
	return context.Background()
}

// EffectiveBatch resolves a BatchExpand setting against the device: <= 0
// means one frontier batch per device dispatch window. Together with
// EffectiveIncremental it is the single resolving point for the execution
// knobs: callers validate user input and then rely on these to resolve
// defaults, so a plan reports what runs.
func EffectiveBatch(dev *device.Device, batch int) int {
	if batch <= 0 {
		return dev.MaxBatch()
	}
	return batch
}

// EffectiveIncremental reports whether q runs with prefix-state reuse on dev:
// the query asks for it, it has an arena, and the model keeps real prefix
// states. The window substrates do not — their "extend" re-scores the window
// through the logit LRU anyway — so they take the full path even when
// Incremental is set: arena-caching their trivial states would spend
// bookkeeping memory to save nothing.
func EffectiveIncremental(dev *device.Device, q *Query) bool {
	return q.Incremental && q.KV != nil && model.HasPrefixStates(dev.Model())
}

// ValidateBatch rejects nonsensical user-facing BatchExpand settings.
// 0 is valid (the device batch limit); negatives are an input error, and
// would otherwise be clamped silently by EffectiveBatch.
func ValidateBatch(batch int) error {
	if batch < 0 {
		return fmt.Errorf("engine: batch must be >= 0 (0 = device batch limit), got %d", batch)
	}
	return nil
}

// ValidateParallelism rejects nonsensical user-facing worker counts — the
// width of a device scoring pool, the workers of a validation job: a pool
// needs at least one worker, and a typo must not silently serialize a run.
func ValidateParallelism(p int) error {
	if p < 1 {
		return fmt.Errorf("engine: parallelism must be >= 1, got %d", p)
	}
	return nil
}
