package decoding

import "math"

// The reference below is the selection a support replaced: each selector
// fills a V-bit set of the tokens it keeps, Allowed masks by that set, and a
// support is either the set or a dense row. It shares rankHeap with the
// package, so it pins the representation — (row, cutoff) against a kept set —
// and TestSelectionMatchesStableSort pins the heap to a stable sort.

// refSet is a bitset over token ids.
type refSet []uint64

func newRefSet(vocab int) refSet  { return make(refSet, (vocab+63)/64) }
func (s refSet) add(tok int32)    { s[tok>>6] |= 1 << (tok & 63) }
func (s refSet) has(tok int) bool { return s[tok>>6]>>(tok&63)&1 != 0 }

// refKeep returns the tokens a selecting rule keeps, or nil when it is a
// no-op on lp (every finite entry stays).
func refKeep(r Rule, lp []float64) refSet {
	switch r := r.(type) {
	case Greedy:
		return refKeep(TopK{K: 1}, lp)
	case TopK:
		if r.K <= 0 || r.K >= len(lp) {
			return nil
		}
		h := rankHeap{lp: lp, worstFirst: true}
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
		kept := newRefSet(len(lp))
		for _, id := range h.ids {
			kept.add(id)
		}
		return kept
	case TopP:
		if r.P <= 0 || r.P >= 1 {
			return nil
		}
		h := rankHeap{lp: lp}
		for i := range lp {
			if !math.IsInf(lp[i], -1) {
				h.push(int32(i))
			}
		}
		kept := newRefSet(len(lp))
		for cum := 0.0; len(h.ids) > 0 && cum < r.P; {
			id := h.pop()
			kept.add(id)
			cum += math.Exp(lp[id])
		}
		return kept
	}
	panic("refKeep: not a selecting rule")
}

// refRetain sets every entry of lp outside kept to -Inf and renormalizes the
// rest.
func refRetain(lp []float64, kept refSet) {
	for i := range lp {
		if !kept.has(i) {
			lp[i] = math.Inf(-1)
		}
	}
	renormalize(lp)
}

// refApply is the reference Rule.apply.
func refApply(r Rule, lp []float64) {
	switch r := r.(type) {
	case Greedy, TopK, TopP:
		if kept := refKeep(r, lp); kept != nil {
			refRetain(lp, kept)
		}
	case Chain:
		for _, sub := range r {
			refApply(sub, lp)
		}
	case Temperature:
		r.apply(lp)
	case nil, None:
	default:
		panic("refApply: unknown rule")
	}
}

// refAllowed is the reference Allowed: a fresh copy of lp with r applied.
func refAllowed(r Rule, lp []float64) []float64 {
	out := append([]float64(nil), lp...)
	refApply(r, out)
	return out
}

// refSupport is the reference support: a kept set, or a dense row whose
// finite entries are the members.
type refSupport struct {
	dense []float64
	kept  refSet
}

func (s refSupport) has(tok int) bool {
	if s.kept == nil {
		return !math.IsInf(s.dense[tok], -1)
	}
	return s.kept.has(tok)
}

// refSupportOf is the reference SupportOf: a chain's leading rules reweight
// a copy, and the last rule selects on it or reweights it too.
func refSupportOf(r Rule, lp []float64) refSupport {
	switch r := r.(type) {
	case Chain:
		if len(r) == 0 {
			break
		}
		if len(r) > 1 {
			lp = refAllowed(r[:len(r)-1], lp)
		}
		return refSupportOf(r[len(r)-1], lp)
	case Greedy, TopK, TopP:
		if kept := refKeep(r, lp); kept != nil {
			return refSupport{kept: kept}
		}
	case nil, None:
	default:
		lp = refAllowed(r, lp)
	}
	return refSupport{dense: lp}
}
