package repro

import (
	"testing"

	"repro/internal/experiments"
	"repro/relm"
)

// Resolution gate (DESIGN.md decision 6). Shortest path scores a popped node
// only when it reaches the top of the frontier, several per device dispatch.
// Each settle sizes its first resolution afresh: 8 rows when the top's row
// is resident in the logit cache, half a device batch (32) when it must be
// dispatched, doubling within the settle. The counts below are exact (rows
// resolved, device batches), and they move only when that rule does.
//
// History: where a resolution size carried over from one settle to the
// next, 4 after each match and doubling on every resolution up to the batch
// size, these queries read, in the same order, 148 rows and 0 batches, 207
// rows and 41 batches, and 233 rows and 12 batches. The peaked query must
// resolve fewer rows than that, and the wide one at the batching gate's
// batch size take no more batches. At the default batch the wide query
// takes one batch more than it did (13, not 12) for 3 fewer rows, and its
// virtual device time is unchanged (276.2 ms, was 276.3).
func TestResolutionSizing(t *testing.T) {
	e := env(t)
	url := relm.QueryString{Pattern: experiments.URLPattern, Prefix: relm.EscapeLiteral(experiments.URLPrefix)}
	for _, arm := range []struct {
		name          string
		q             relm.SearchQuery
		take          int
		warm          bool
		rows, batches int64 // exact
		wasRows       int64 // the peaked query must resolve fewer
		wasBatches    int64 // the wide query must take no more; 0 unchecked
	}{
		{"peaked/warm", relm.SearchQuery{Query: url, Strategy: relm.ShortestPath, TopK: 40, MaxTokens: 16}, 20, true, 98, 0, 148, 0},
		{"wide/cold/batch8", phoneQuery(8, 1), 40, false, 207, 37, 0, 41},
		{"wide/cold/default-batch", phoneQuery(0, 1), 40, false, 230, 13, 0, 0},
	} {
		m := e.FreshModel(false)
		run := func() (rows, batches int64) {
			before := m.Dev.Stats().Batches
			results, err := relm.Search(m, arm.q)
			if err != nil {
				t.Fatalf("%s: %v", arm.name, err)
			}
			defer results.Close()
			if got := results.Take(arm.take); len(got) != arm.take {
				t.Fatalf("%s: %d matches, want %d", arm.name, len(got), arm.take)
			}
			return results.Stats().ModelCalls, m.Dev.Stats().Batches - before
		}
		if arm.warm {
			run()
		}
		rows, batches := run()
		if rows != arm.rows || batches != arm.batches {
			t.Errorf("%s: %d rows resolved in %d device batches, want %d in %d", arm.name, rows, batches, arm.rows, arm.batches)
		}
		if arm.wasRows > 0 && rows >= arm.wasRows {
			t.Errorf("%s: %d rows resolved, want fewer than the carried size's %d", arm.name, rows, arm.wasRows)
		}
		if arm.wasBatches > 0 && batches > arm.wasBatches {
			t.Errorf("%s: %d device batches, want no more than the carried size's %d", arm.name, batches, arm.wasBatches)
		}
	}
}
