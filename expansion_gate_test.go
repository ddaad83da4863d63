package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/relm"
)

// Expansion gate (DESIGN.md decisions 2 and 6). The performance ledger is not
// run in tier-1, so the per-node cost of frontier expansion is pinned here:
// one fixed shortest-path query under top-k 40 on the n-gram substrate, over
// a hot plan and a warm logit cache, counted in heap allocations per expanded
// node (query set-up and match rendering included). Per node the traversal
// may allocate its children (one slab, no context copies), the rule's
// selection, one context for the popped node, the filter's one re-encoding
// and the round's bookkeeping. It may not allocate per child what it can do
// once per parent: a re-encoding of the shared pattern head, a V-sized sort
// index or reweighted vector, a copy of the whole prefix. The per-child
// expansion this replaced measured 137 (all encodings) and 211 (dynamic
// canonical filter) allocations per node on this query, the per-parent one
// 31 and 42; the bounds sit at a third of the old readings.
func TestExpansionAllocsPerNode(t *testing.T) {
	e := env(t)
	for _, arm := range []struct {
		name  string
		q     relm.SearchQuery
		bound float64
	}{
		{"all-encodings", relm.SearchQuery{Tokenization: relm.AllTokens}, 45},
		{"dynamic-canonical", relm.SearchQuery{Canonical: relm.CanonicalDynamic}, 70},
	} {
		q := arm.q
		q.Query = relm.QueryString{Pattern: experiments.URLPattern, Prefix: relm.EscapeLiteral(experiments.URLPrefix)}
		q.Strategy, q.TopK, q.MaxTokens, q.BatchExpand = relm.ShortestPath, 40, 16, 8
		m := e.FreshModel(false)
		var nodes int64
		run := func() {
			results, err := relm.Search(m, q)
			if err != nil {
				t.Fatalf("%s: %v", arm.name, err)
			}
			results.Take(20)
			nodes = results.Stats().NodesExpanded
			results.Close()
		}
		run() // compile the plan, fill the logit cache
		allocs := testing.AllocsPerRun(5, run)
		if nodes < 30 {
			t.Fatalf("%s: only %d nodes expanded; the query no longer exercises expansion", arm.name, nodes)
		}
		perNode := allocs / float64(nodes)
		t.Logf("%s: %.0f allocations over %d expanded nodes = %.1f per node", arm.name, allocs, nodes, perNode)
		if perNode > arm.bound {
			t.Errorf("%s: %.1f allocations per expanded node, want <= %.0f", arm.name, perNode, arm.bound)
		}
	}
}
