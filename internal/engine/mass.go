package engine

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/automaton"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
)

// MassResult is a certified estimate of the probability that a complete
// model generation falls inside the query's pattern language:
//
//	mass(L) = Σ_{x ∈ L, |x| ≤ MaxTokens} p(x | prefix) · p(EOS | prefix·x)
//
// The paper frames ReLM as measuring "LLM behavior over sets too large to
// enumerate" (§1); Mass makes that literal: rather than sampling, it
// traverses the LLM automaton best-first and maintains exact lower and upper
// bounds that converge as probability mass is resolved. The upper bound is
// sound because complete generations extending distinct frontier nodes are
// disjoint events: their total probability cannot exceed the frontier node's
// own prefix probability.
type MassResult struct {
	// Lower and Upper bound mass(L). Lower is the mass of fully resolved
	// matches; Upper adds the unresolved frontier.
	Lower, Upper float64
	// Matches counts complete matching strings resolved into Lower.
	Matches int64
	// Expanded counts node expansions (model batches are Expanded model
	// calls).
	Expanded int64
	// Converged reports the gap closed to within the tolerance; false means
	// the node budget ran out first (the bounds are still sound).
	Converged bool
}

// Gap returns the remaining uncertainty interval width.
func (r *MassResult) Gap() float64 { return r.Upper - r.Lower }

// String renders the result as an interval.
func (r *MassResult) String() string {
	mark := ""
	if !r.Converged {
		mark = " (budget exhausted)"
	}
	return fmt.Sprintf("mass ∈ [%.6g, %.6g], %d matches resolved%s", r.Lower, r.Upper, r.Matches, mark)
}

// MassOptions bounds the computation; Query.MaxNodes caps its expansions
// (default 1<<17).
type MassOptions struct {
	// Tolerance stops the traversal once Upper-Lower <= Tolerance
	// (default 1e-3).
	Tolerance float64
}

// massNode carries probability (not cost) for max-first traversal.
type massNode struct {
	path
	state automaton.StateID
	pat   int
	mass  float64
}

type massHeap []*massNode

func (h massHeap) Len() int            { return len(h) }
func (h massHeap) Less(i, j int) bool  { return h[i].mass > h[j].mass }
func (h massHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *massHeap) Push(x interface{}) { *h = append(*h, x.(*massNode)) }
func (h *massHeap) Pop() interface{} {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

// Mass computes certified bounds on the pattern language's probability mass
// under the model and the query's decision rules. Decision rules act as hard
// filters: an edge the rule eliminates contributes zero mass (its strings are
// outside L_m per §2.4), without renormalizing the surviving tokens.
//
// Multiple enumerated prefixes are treated as a uniform mixture: each prefix
// roots the traversal with initial mass 1/len(prefixes), so the result is
// the expected mass over a uniformly chosen prefix. The semantics (complete
// generations) imply RequireEOS, so the expansion rule runs with it on
// whatever the query's flag says.
//
// The traversal expands the top-K frontier per round (K = Query.BatchExpand,
// defaulting to the device batch limit): the K highest-mass nodes are popped
// and scored in one batched device call, and the bounds are settled in pop
// order (DESIGN.md decision 6). Bounds stay sound at any K; batching only
// means up to one round of extra expansions after the tolerance is met.
// Cancelling Query.Context stops the refinement early — the bounds returned
// are still sound, just wider. A failed device dispatch returns its error.
func Mass(dev *device.Device, q *Query, opts MassOptions) (*MassResult, error) {
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-3
	}
	maxNodes := q.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 1 << 17
	}
	q = normalizeQuery(dev, q)
	defer q.cancel() // Mass is synchronous; release the derived context
	q.RequireEOS, q.MaxNodes = true, maxNodes
	batchSize := EffectiveBatch(dev, q.BatchExpand)

	res := &MassResult{}
	var frontier massHeap
	frontierMass := 0.0
	rootMass := 1.0 / float64(len(q.Prefixes))
	for _, p := range q.Prefixes {
		heap.Push(&frontier, &massNode{path: rootPath(p), state: q.Pattern.Start(), mass: rootMass})
		frontierMass += rootMass
	}

	var round int64
	var batch []massNode
	var ctxs [][]model.Token
	var sibs siblings
	for frontier.Len() > 0 {
		res.Upper = res.Lower + frontierMass
		if res.Upper-res.Lower <= opts.Tolerance {
			res.Converged = true
			break
		}
		if res.Expanded >= int64(q.MaxNodes) || q.Context.Err() != nil {
			break
		}
		// Pop the top-K highest-mass frontier nodes for one device round.
		batch = batch[:0]
		for len(batch) < batchSize && frontier.Len() > 0 &&
			res.Expanded+int64(len(batch)) < int64(q.MaxNodes) {
			n := heap.Pop(&frontier).(*massNode)
			frontierMass -= n.mass
			batch = append(batch, *n)
		}
		rdev, rspan := roundDevice(dev, q, round, len(batch))
		round++
		ctxs = appendContexts(ctxs[:0], batch)
		lps, err := scoreFrontier(rdev, q, ctxs)
		if err != nil {
			q.Trace.End(rspan)
			return nil, err
		}
		res.Expanded += int64(len(batch))

		// Settle the bounds in pop order, so accumulation is deterministic.
		for i := range batch {
			n, lp := &batch[i], lps[i]
			sibs, _ = q.expand(n.state, ctxs[i][len(ctxs[i])-n.pat:], 0, lp, decoding.SupportOf(q.Rule, lp), sibs, false)
			for _, sib := range sibs {
				if sib.sym == matchSym {
					res.Lower += n.mass * math.Exp(lp[q.eos])
					res.Matches++
				} else if childMass := n.mass * math.Exp(lp[sib.sym]); childMass > 0 {
					heap.Push(&frontier, &massNode{
						path: n.child(model.Token(sib.sym)), state: automaton.StateID(sib.to), pat: n.pat + 1, mass: childMass,
					})
					frontierMass += childMass
				}
			}
		}
		q.Trace.End(rspan)
	}
	res.Upper = res.Lower + frontierMass
	if res.Upper-res.Lower <= opts.Tolerance {
		res.Converged = true
	}
	// Float accumulation can nudge Upper past certainty, and the running
	// frontier sum's subtractions can leave it below Lower.
	res.Upper = min(max(res.Upper, res.Lower), 1)
	return res, nil
}
