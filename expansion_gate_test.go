package repro

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/relm"
)

// Expansion gate (DESIGN.md decisions 2, 4 and 6). The performance ledger is
// not run in tier-1, so the per-node cost of frontier expansion is pinned
// here: fixed shortest-path queries on the n-gram substrate, over a hot plan
// and a warm logit cache, counted per expanded node (query set-up and match
// rendering included).
//
// Allocations, on a URL query under top-k 40: per node the traversal may
// allocate its cursor, its share of the round's one context block and the
// round's bookkeeping, and once per node popped past its window the rest of
// its sibling set. It may not allocate per child what it can do once
// per parent: a re-encoding of the shared pattern head, a V-sized sort index
// or reweighted vector, a copy of the whole prefix. Nor may it allocate what
// does not outlive the node's expansion: the rule's selection and the model's
// history keys come from pooled scratch. The canonicality check allocates
// nothing (pooled scratch), so the dynamic-canonical arm may allocate at most
// one object per node more than the all-encodings arm. Neither allocation
// bound is checked under the race detector, where the pools shed scratch. The
// per-child expansion measured 137 (all encodings) and 211 (dynamic canonical
// filter) allocations per node on this query, the per-parent one 31 and 42.
// Eagerly built child nodes read 21.2 and 31.7, lazy sibling sets 18.0 and
// 28.6, and the allocation-free check, which also marks each match's
// Canonical field, 12.9 on both. Cached prefix plans read 10.1 on both,
// pooled selections with one context block per round and no key strings for
// n-gram histories 7.3, cursors that hold a window of their least two
// siblings inline 6.5, nodes scored only when they reach the top of the
// frontier, in more and smaller device rounds, 7.1, and resolutions sized
// afresh at each settle, 7.0.
//
// Bytes, on the LAMBADA cloze shape with no top-k, where a node keeps every
// letter-led token the pattern allows: per node the traversal may allocate a
// cursor and nothing V-sized per row, and a 16-byte sibling per kept child
// only for a node popped past its window. It may not build a ~100-byte node
// per child it never pops, nor copy a cached row. With child nodes built
// eagerly and rows copied out of the cache this query measured 62.4 KiB per
// expanded node; with sibling sets and shared rows, 8.1 KiB, later 7.3; with
// a two-sibling window per cursor, 1.6 KiB. The bound sits at a third of the
// old reading.
func TestExpansionAllocsPerNode(t *testing.T) {
	e := env(t)
	url := relm.QueryString{Pattern: experiments.URLPattern, Prefix: relm.EscapeLiteral(experiments.URLPrefix)}
	cloze := relm.QueryString{Pattern: ` ([a-zA-Z]+)\.`, Prefix: relm.EscapeLiteral(passageTail(e.Lambada.Items[0].Context))}
	allocsPerNode := map[string]float64{}
	for _, arm := range []struct {
		name        string
		q           relm.SearchQuery
		allocs, kib float64 // bounds per expanded node; 0 leaves one unchecked
	}{
		{"all-encodings", relm.SearchQuery{Query: url, Tokenization: relm.AllTokens, TopK: 40, MaxTokens: 16}, 8, 0},
		{"dynamic-canonical", relm.SearchQuery{Query: url, TopK: 40, MaxTokens: 16}, 8, 0},
		{"wide-fanout", relm.SearchQuery{Query: cloze}, 0, 2.4},
	} {
		q := arm.q
		q.Strategy, q.BatchExpand = relm.ShortestPath, 8
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
		const runs = 5
		allocs := testing.AllocsPerRun(runs, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		if nodes < 30 {
			t.Fatalf("%s: only %d nodes expanded; the query no longer exercises expansion", arm.name, nodes)
		}
		perNode := allocs / float64(nodes)
		kib := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024 / float64(nodes)
		t.Logf("%s: %d expanded nodes, %.1f allocations and %.1f KiB per node", arm.name, nodes, perNode, kib)
		if arm.allocs > 0 && perNode > arm.allocs && !raceEnabled {
			t.Errorf("%s: %.1f allocations per expanded node, want <= %.0f", arm.name, perNode, arm.allocs)
		}
		if arm.kib > 0 && kib > arm.kib {
			t.Errorf("%s: %.1f KiB per expanded node, want <= %.1f", arm.name, kib, arm.kib)
		}
		allocsPerNode[arm.name] = perNode
	}
	if all, dyn := allocsPerNode["all-encodings"], allocsPerNode["dynamic-canonical"]; dyn > all+1 && !raceEnabled {
		t.Errorf("dynamic-canonical: %.1f allocations per node against all-encodings' %.1f; the canonicality check allocates", dyn, all)
	}
}

// passageTail keeps the end of a cloze passage, cut at a word, within the
// 128 bytes up to which relm enumerates a prefix language.
func passageTail(passage string) string {
	const limit = 120
	if len(passage) <= limit {
		return passage
	}
	tail := passage[len(passage)-limit:]
	if i := strings.IndexByte(tail, ' '); i >= 0 {
		tail = tail[i+1:]
	}
	return tail
}
