package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/jobs"
	"repro/relm"
)

// verifyEvery is the sampling stride of output verification: every 8th
// succeeded op of a pass is replayed.
const verifyEvery = 8

// verifyPhase checks that what the HTTP streams delivered is what the
// engine computes on its simplest path: every 8th succeeded op is replayed
// through a serial, unfused relm.Search with no plan cache on a fresh
// wrapper around the raw model, and the (text, logprob) sequences must be
// equal. For jobs the ledger's hash chain is verified and the streamed item
// results are compared with a direct run of the suite. A mismatch turns the
// op into a failed one. It must run before the stack is closed (the ledgers
// live in its scratch directory). A job's direct run is a function of its
// spec alone and audit-suite repeats fourteen specs, so each spec is run
// directly once and every sampled job of that spec compared with it: the
// reference model's caches are cold, and a direct run per sampled job took as
// long as the timed phase.
func verifyPhase(w *world, s *stack, ph *phase) (checked int, mismatches []string) {
	fresh := map[string]*relm.Model{}
	wantItems := map[string][]jobs.ItemResult{} // by request body
	reference := func(name string) *relm.Model {
		if m := fresh[name]; m != nil {
			return m
		}
		m := relm.NewModel(w.lms[name], w.toks[name], relm.ModelOptions{PlanCacheSize: -1, TraceSampling: -1})
		fresh[name] = m
		return m
	}
	ok := ph.succeeded()
	for i := 0; i < len(ok); i += verifyEvery {
		r := ok[i]
		checked++
		var why string
		if r.op.job != nil {
			want, seen := wantItems[string(r.op.body)]
			if !seen {
				var err error
				if want, _, err = directJob(w, reference(r.op.job.Model), r.op.job); err != nil {
					why = fmt.Sprintf("direct suite run failed: %v", err)
				}
				wantItems[string(r.op.body)] = want
			}
			if why == "" {
				why = verifyJob(s, r, want)
			}
		} else {
			why = verifySearch(r, reference(r.op.search.Model))
		}
		if why != "" {
			r.fail = "verification: " + why
			mismatches = append(mismatches, fmt.Sprintf("op %d (%s): %s", r.op.idx, r.op.class, why))
		}
	}
	return checked, mismatches
}

func verifySearch(r *opResult, m *relm.Model) string {
	want, _, err := directSearch(m, r.op.search)
	if err != nil {
		return fmt.Sprintf("direct search failed: %v", err)
	}
	if len(want) != len(r.rows) {
		return fmt.Sprintf("stream delivered %d matches, direct search %d", len(r.rows), len(want))
	}
	for i := range want {
		if want[i] != r.rows[i] {
			return fmt.Sprintf("match %d: stream (%q, %v), direct (%q, %v)",
				i, r.rows[i].Text, r.rows[i].LogProb, want[i].Text, want[i].LogProb)
		}
	}
	return ""
}

func verifyJob(s *stack, r *opResult, want []jobs.ItemResult) string {
	if _, err := jobs.VerifyFile(filepath.Join(s.ledger, r.jobID+".jsonl")); err != nil {
		return fmt.Sprintf("ledger %s: %v", r.jobID, err)
	}
	if len(want) != len(r.items) {
		return fmt.Sprintf("stream delivered %d item results, direct run %d", len(r.items), len(want))
	}
	for i := range want {
		if want[i] != r.items[i] {
			return fmt.Sprintf("item %d: stream %+v, direct %+v", i, r.items[i], want[i])
		}
	}
	return ""
}
