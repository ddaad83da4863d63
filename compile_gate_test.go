package repro

import (
	"testing"

	"repro/relm"
)

// Compile gate (DESIGN.md decisions 1, 7 and 9). The performance ledger is
// not run in tier-1, so the cost of a plan-cache miss is pinned here, in heap
// allocations per relm.Explain on a model without a plan cache (Explain adds
// two language-size counts to the compile, a few dozen allocations), for the
// three shapes of the ledger's compile-cold workload over all encodings.
// The chain may allocate its flat tables — per stage a handful of arrays
// sized by states and transitions, a string per interned subset — and may not
// allocate per edge, per closure or per move, nor build the vocabulary trie
// again. The map-and-closure chain this replaced (eight subset constructions
// and a Hopcroft pass per one-edit query, a trie per compile) measured
// 143 365, 168 960 and 374 364 allocations on these queries, the flat one
// 402, 519 and 730; the bounds sit at about 1.5 times the new readings.
func TestCompileAllocsPerPlan(t *testing.T) {
	e := env(t)
	m := e.TrackModel(relm.NewModel(e.Small.LM, e.Tok, relm.ModelOptions{PlanCacheSize: -1, TraceSampling: -1}))
	for _, arm := range []struct {
		name, pattern string
		edits         int
		bound         float64
	}{
		{"literal-1-edit", " engineering student from", 1, 620},
		{"disjunction-1-edit", " ((house)|(garden)|(river)) ((walked)|(talked)|(jumped))", 1, 790},
		{"short-words-2-edits", " north river", 2, 1150},
	} {
		q := relm.SearchQuery{
			Query:         relm.QueryString{Pattern: arm.pattern},
			Tokenization:  relm.AllTokens,
			Preprocessors: []relm.Preprocessor{relm.EditDistance{K: arm.edits}},
		}
		var plan *relm.Plan
		explain := func() {
			var err error
			if plan, err = relm.Explain(m, q); err != nil {
				t.Fatalf("%s: %v", arm.name, err)
			}
		}
		explain() // the tokenizer's trie is built by its first compile
		allocs := testing.AllocsPerRun(5, explain)
		if plan.PlanCacheHit || plan.TokenStates < 20 {
			t.Fatalf("%s: plan cache hit %v, %d token states; the query no longer exercises the compile chain",
				arm.name, plan.PlanCacheHit, plan.TokenStates)
		}
		t.Logf("%s: %.0f allocations for %d char / %d token states, %d token edges",
			arm.name, allocs, plan.CharStates, plan.TokenStates, plan.TokenEdges)
		if allocs > arm.bound {
			t.Errorf("%s: %.0f allocations per compile, want <= %.0f", arm.name, allocs, arm.bound)
		}
	}
}
