// Package decoding implements the decision rules of §2.4: the algorithms
// that convert a model's next-token distribution into the set of tokens that
// may legally be emitted. ReLM applies rules during traversal to prune test
// vectors: if a token is rejected at a step, every string sharing that
// prefix is transitively eliminated (§3.3).
package decoding

import (
	"math"
	"sync"
)

// Rule filters and reweights a next-token log-probability vector. Entries
// excluded from the model's language at this step become -Inf. Rules compose
// left to right via Chain. A model's rows are shared and read-only (DESIGN.md
// decision 4), so a rule is applied only through Allowed, which works on a
// copy, and SupportOf, which never writes its argument.
type Rule interface {
	// apply rewrites logProbs in place. Implementations must keep the vector
	// normalizable (at least one finite entry) unless the input was already
	// all -Inf.
	apply(logProbs []float64)
	// Name identifies the rule in query descriptions.
	Name() string
}

// Every selecting rule ranks tokens by one total order: log probability
// descending, token id ascending among equals. With n-gram back-off whole
// classes of unseen tokens tie, so which of them a cut keeps must not depend
// on a sort's internals.
func ranksBefore(lp []float64, a, b int32) bool {
	return lp[a] > lp[b] || (lp[a] == lp[b] && a < b)
}

// within reports whether tok survives a selection whose last kept token
// under ranksBefore is cut.
func within(lp []float64, tok, cut int32) bool {
	return tok == cut || ranksBefore(lp, tok, cut)
}

// none is the cutoff of a selection that keeps every finite entry.
const none int32 = -1

// selector is a Rule that only chooses which tokens stay, and what it keeps
// is a prefix of ranksBefore's order over the finite entries: apply is
// "retain up to cut(lp), renormalize", and consumers that need membership
// alone (SupportOf) stop after cut.
type selector interface {
	// cut returns the last token the rule keeps under ranksBefore, or none
	// when the rule is a no-op on lp. Its heap works in sc's storage.
	cut(lp []float64, sc *scratch) int32
}

// rankHeap is a binary heap of token ids under ranksBefore: the best-ranked
// id at the root, or the worst-ranked when worstFirst.
type rankHeap struct {
	lp         []float64
	ids        []int32
	worstFirst bool
}

func (h *rankHeap) above(a, b int32) bool {
	if h.worstFirst {
		a, b = b, a
	}
	return ranksBefore(h.lp, a, b)
}

func (h *rankHeap) push(id int32) {
	h.ids = append(h.ids, id)
	for i := len(h.ids) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.above(h.ids[i], h.ids[parent]) {
			break
		}
		h.ids[i], h.ids[parent] = h.ids[parent], h.ids[i]
		i = parent
	}
}

// fix restores heap order after the root was replaced.
func (h *rankHeap) fix() {
	for i := 0; ; {
		top := i
		for c := 2*i + 1; c <= 2*i+2 && c < len(h.ids); c++ {
			if h.above(h.ids[c], h.ids[top]) {
				top = c
			}
		}
		if top == i {
			return
		}
		h.ids[i], h.ids[top] = h.ids[top], h.ids[i]
		i = top
	}
}

// pop removes and returns the root.
func (h *rankHeap) pop() int32 {
	root, last := h.ids[0], len(h.ids)-1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	h.fix()
	return root
}

// scratch is the storage one selection's heap works in. It is drawn from a
// pool and handed back before the selection returns.
type scratch struct{ ids []int32 }

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// cutOf runs r's selection on lp in pooled storage.
func cutOf(r selector, lp []float64) int32 {
	sc := scratches.Get().(*scratch)
	cut := r.cut(lp, sc)
	scratches.Put(sc)
	return cut
}

// retain sets every entry of lp past cut to -Inf and renormalizes the rest.
// lp[cut] is never written, so the order stays readable while it is applied.
func retain(lp []float64, cut int32) {
	for i := range lp {
		if !within(lp, int32(i), cut) {
			lp[i] = math.Inf(-1)
		}
	}
	renormalize(lp)
}

// TopK keeps only the K most likely tokens, renormalized. K <= 0 is a no-op
// (vanilla sampling, whose language is nearly all strings — §2.4).
type TopK struct{ K int }

// cut selects in O(V log K): a K-bounded heap holds the best ids seen so far
// with the worst of them at the root, where the next candidate displaces it.
// The root left at the end is the cutoff.
func (r TopK) cut(lp []float64, sc *scratch) int32 {
	if r.K <= 0 || r.K >= len(lp) {
		return none
	}
	h := rankHeap{lp: lp, ids: sc.ids[:0], worstFirst: true}
	for i := range lp {
		id := int32(i)
		switch {
		case math.IsInf(lp[i], -1):
		case len(h.ids) < r.K:
			h.push(id)
		case ranksBefore(lp, id, h.ids[0]):
			h.ids[0] = id
			h.fix()
		}
	}
	sc.ids = h.ids
	if len(h.ids) == 0 {
		return none // every entry is impossible
	}
	return h.ids[0]
}

// apply implements Rule.
func (r TopK) apply(lp []float64) { applySelection(r, lp) }

// Name implements Rule.
func (r TopK) Name() string { return "top-k" }

// TopP keeps the smallest set of tokens whose cumulative probability reaches
// P (nucleus sampling), renormalized. P >= 1 or <= 0 is a no-op.
type TopP struct{ P float64 }

// cut heapifies the finite entries and pops the nucleus off the top, so
// only the kept tokens are ever put in order. The last pop is the cutoff.
func (r TopP) cut(lp []float64, sc *scratch) int32 {
	if r.P <= 0 || r.P >= 1 {
		return none
	}
	h := rankHeap{lp: lp, ids: sc.ids[:0]}
	for i := range lp {
		if !math.IsInf(lp[i], -1) {
			h.push(int32(i))
		}
	}
	cut := none
	for cum := 0.0; len(h.ids) > 0 && cum < r.P; {
		cut = h.pop()
		cum += math.Exp(lp[cut])
	}
	sc.ids = h.ids
	return cut
}

// apply implements Rule.
func (r TopP) apply(lp []float64) { applySelection(r, lp) }

// Name implements Rule.
func (r TopP) Name() string { return "top-p" }

// Greedy keeps only the single most likely token (top-k with k = 1).
type Greedy struct{}

func (Greedy) cut(lp []float64, sc *scratch) int32 { return TopK{K: 1}.cut(lp, sc) }

// apply implements Rule.
func (Greedy) apply(lp []float64) { TopK{K: 1}.apply(lp) }

// Name implements Rule.
func (Greedy) Name() string { return "greedy" }

// Temperature rescales log probabilities by 1/T before later rules run.
// T = 0 or 1 is a no-op; T < 1 sharpens, T > 1 flattens.
type Temperature struct{ T float64 }

// apply implements Rule.
func (r Temperature) apply(lp []float64) {
	if r.T == 0 || r.T == 1 {
		return
	}
	for i := range lp {
		if !math.IsInf(lp[i], -1) {
			lp[i] /= r.T
		}
	}
	renormalize(lp)
}

// Name implements Rule.
func (r Temperature) Name() string { return "temperature" }

// Chain applies rules in order.
type Chain []Rule

// apply implements Rule.
func (c Chain) apply(lp []float64) {
	for _, r := range c {
		r.apply(lp)
	}
}

// Name implements Rule.
func (c Chain) Name() string {
	if len(c) == 0 {
		return "none"
	}
	name := c[0].Name()
	for _, r := range c[1:] {
		name += "+" + r.Name()
	}
	return name
}

// None is the identity rule: p(x) > 0 membership (§2.4's natural decision
// rule with vanilla sampling).
type None struct{}

// apply implements Rule.
func (None) apply([]float64) {}

// Name implements Rule.
func (None) Name() string { return "none" }

// applySelection is a selector's apply: retain its selection, renormalized.
func applySelection(r selector, lp []float64) {
	if cut := cutOf(r, lp); cut != none {
		retain(lp, cut)
	}
}

// Allowed returns lp with r applied: -Inf where the rule excludes a token,
// the reweighted log probability elsewhere. The result is written to dst's
// storage when it holds len(lp) entries, and to a new vector otherwise; lp is
// left untouched unless it is dst itself.
func Allowed(r Rule, lp, dst []float64) []float64 {
	if cap(dst) < len(lp) {
		dst = make([]float64, len(lp))
	}
	dst = dst[:len(lp)]
	copy(dst, lp)
	if r != nil {
		r.apply(dst)
	}
	return dst
}

// Support is the set of tokens a rule leaves in the model's language at one
// step — Allowed's finite entries without their reweighted values, which
// shortest path and beam never read. It is a plain value: the row the
// rule ranks on and the rule's cutoff in it.
type Support struct {
	row []float64
	cut int32 // the last token kept under ranksBefore, or none
}

// SupportOf returns {i : Allowed(r, lp)[i] is finite}. With no rule, or one
// that only selects, it ranks on lp itself: nothing is copied and nothing
// allocated. A chain whose leading rules reweight the row (a temperature, or
// top-k before top-p) ranks on a reweighted copy the support owns. lp is
// left untouched.
func SupportOf(r Rule, lp []float64) Support {
	switch r := r.(type) {
	case selector:
		return Support{row: lp, cut: cutOf(r, lp)}
	case Chain:
		if len(r) > 1 {
			lp = Allowed(r[:len(r)-1], lp, nil)
		}
		if len(r) > 0 {
			return SupportOf(r[len(r)-1], lp)
		}
	case nil, None:
	default:
		lp = Allowed(r, lp, nil)
	}
	return Support{row: lp, cut: none}
}

// Has reports whether tok survived the rule.
func (s Support) Has(tok int) bool {
	if s.cut == none {
		return !math.IsInf(s.row[tok], -1)
	}
	return within(s.row, int32(tok), s.cut)
}

func renormalize(lp []float64) {
	max := math.Inf(-1)
	for _, x := range lp {
		if x > max {
			max = x
		}
	}
	if math.IsInf(max, -1) {
		return
	}
	sum := 0.0
	for _, x := range lp {
		if !math.IsInf(x, -1) {
			sum += math.Exp(x - max)
		}
	}
	z := max + math.Log(sum)
	for i := range lp {
		if !math.IsInf(lp[i], -1) {
			lp[i] -= z
		}
	}
}
