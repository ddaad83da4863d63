package repro

import (
	"slices"
	"testing"

	"repro/internal/experiments"
	"repro/relm"
)

// Beam gate (DESIGN.md decision 6). A beam level is eager — the whole beam
// is scored in one device round — and the levels are lazy: Next advances the
// beam only while its least harvested match could still be beaten by a
// hypothesis left in it. A stream closed after its matches therefore stops
// the beam, and its matches are the first ones of the drained stream. The
// query is serve-mix's beam shape: the URL pattern after the URL prefix,
// width 16, top-k 40, on a fresh model. The counts below are exact (rows
// resolved, device batches), and they move only when the beam's rule does.
//
// Take(4) must also resolve fewer than half the rows the drain does.
//
// History: when the beam ran every level before its first match, Take(4)
// read what the drain still reads, 1013 rows in 65 device batches.
func TestBeamStopsWithItsStream(t *testing.T) {
	e := env(t)
	q := relm.SearchQuery{
		Query:     relm.QueryString{Pattern: experiments.URLPattern, Prefix: relm.EscapeLiteral(experiments.URLPrefix)},
		Strategy:  relm.BeamSearch,
		BeamWidth: 16,
		TopK:      40,
	}
	run := func(take int) (texts []string, rows, batches int64) {
		m := e.FreshModel(false)
		results, err := relm.Search(m, q)
		if err != nil {
			t.Fatal(err)
		}
		defer results.Close()
		for _, match := range results.Take(take) {
			texts = append(texts, match.Text)
		}
		return texts, results.Stats().ModelCalls, m.Dev.Stats().Batches
	}
	took, takeRows, takeBatches := run(4)
	drained, drainRows, drainBatches := run(1 << 20)
	if takeRows != 69 || takeBatches != 6 {
		t.Errorf("Take(4): %d rows resolved in %d device batches, want 69 in 6", takeRows, takeBatches)
	}
	if len(drained) != 925 || drainRows != 1013 || drainBatches != 65 {
		t.Errorf("drain: %d matches, %d rows resolved in %d device batches, want 925, 1013 in 65", len(drained), drainRows, drainBatches)
	}
	if 2*takeRows >= drainRows {
		t.Errorf("Take(4) resolved %d rows, want fewer than half the drain's %d", takeRows, drainRows)
	}
	if len(took) != 4 || len(drained) < 4 || !slices.Equal(took, drained[:4]) {
		t.Fatalf("Take(4) = %q, drained stream begins %q", took, drained[:min(4, len(drained))])
	}
}
