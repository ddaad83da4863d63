package relm

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// TestWarmCacheStreamsIdentical: the device asks the logit cache before it
// dispatches (DESIGN.md decisions 4 and 6), so a query run a second time on
// the same model is answered almost entirely without the device. Its result
// stream must not be able to tell: for shortest-path, beam and sampling,
// fused and unfused, the warm run equals the cold run byte for byte
// while charging the device a fraction of what the cold run did.
func TestWarmCacheStreamsIdentical(t *testing.T) {
	lm, tok := testNGram()
	qs := QueryString{Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})", Prefix: "My phone number is"}
	cases := []fusionCase{
		{name: "shortest", q: SearchQuery{Query: qs, Strategy: ShortestPath, RequireEOS: true, MaxTokens: 24}, take: 3},
		{name: "beam", q: SearchQuery{Query: qs, Strategy: BeamSearch, BeamWidth: 4, RequireEOS: true, MaxTokens: 24}, take: 2},
		{name: "sample", q: SearchQuery{Query: qs, Strategy: RandomSampling, Seed: 42, RequireEOS: true, MaxTokens: 24}, take: 3},
		{name: "sample-regex-prefix", q: SearchQuery{Query: QueryString{Pattern: qs.Pattern, Prefix: "My (phone|fax)( number)? is"},
			Strategy: RandomSampling, Seed: 42, RequireEOS: true, MaxTokens: 24}, take: 3},
	}
	for _, fused := range []bool{false, true} {
		t.Run(fmt.Sprintf("fused=%v", fused), func(t *testing.T) {
			for _, c := range cases {
				m := NewModel(lm, tok, ModelOptions{ContinuousBatching: fused, FusionWindow: 200 * time.Microsecond})
				defer m.Close()
				cold := runCase(t, m, c)
				coldBusy := m.Dev.Stats().Busy
				warm := runCase(t, m, c)
				warmBusy := m.Dev.Stats().Busy - coldBusy
				if len(cold) == 0 || fmt.Sprint(warm) != fmt.Sprint(cold) {
					t.Errorf("%s: warm stream differs from cold\nwarm: %v\ncold: %v", c.name, warm, cold)
				}
				// Close stops a traversal wherever its read-ahead got to, so the
				// warm run may step a little past the cold run's frontier.
				if warmBusy > coldBusy/4 {
					t.Errorf("%s: warm run charged the device %v of the cold run's %v", c.name, warmBusy, coldBusy)
				}
			}
		})
	}
}

// searchRows runs one shortest-path query on m and renders each match as
// text, tokens and the log-prob's bits, so two streams compare byte for byte.
func searchRows(t *testing.T, m *Model, pattern string, incremental bool, n int) []string {
	t.Helper()
	results, err := Search(m, SearchQuery{
		Query:       QueryString{Pattern: pattern, Prefix: "The man was trained in"},
		Incremental: incremental,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	var rows []string
	for _, mt := range results.Take(n) {
		rows = append(rows, fmt.Sprintf("%q %v %x", mt.Text, mt.Tokens, math.Float64bits(mt.LogProb)))
	}
	if err := results.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatalf("%q: no matches", pattern)
	}
	return rows
}

func sameRows(t *testing.T, name string, got, want []string) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s:\n got %v\nwant %v", name, got, want)
	}
}

// TestIncrementalRepeatIsResident: the incremental path asks the logit cache
// before the KV arena (DESIGN.md decision 10). A repeated incremental query
// is served from the cache: no device batch, no committed state, the same
// stream. A query that shares the prefix and then diverges is served from
// the cache for its early rows and computed for its later ones — including
// children of contexts a full-path query scored, which have a row but no
// state and take the Prefill route — and every row is bit-identical to a
// model without a logit cache.
func TestIncrementalRepeatIsResident(t *testing.T) {
	lm, tok := trainIncrTransformer(t)
	const first = " ((engineering)|(medicine)|(art))"
	const diverging = " ((engineering)|(medicine)|(art)) ((cat)|(dog))"
	ref := NewModel(lm, tok, ModelOptions{CacheSize: -1})

	m := NewModel(lm, tok, ModelOptions{})
	want := searchRows(t, m, first, true, 3)
	dev1, kv1 := m.Dev.Stats(), m.KVStats()
	sameRows(t, "repeat", searchRows(t, m, first, true, 3), want)
	if dev2, kv2 := m.Dev.Stats(), m.KVStats(); dev2.Batches != dev1.Batches || kv2.Commits != kv1.Commits {
		t.Fatalf("the repeat dispatched %d batches and committed %d states, want none",
			dev2.Batches-dev1.Batches, kv2.Commits-kv1.Commits)
	}
	sameRows(t, "first vs no cache", want, searchRows(t, ref, first, false, 3))

	wantMixed := searchRows(t, ref, diverging, false, 4)
	for _, warm := range []struct {
		name        string
		incremental bool // how the first query warmed the model
	}{
		{"after an incremental query", true},
		{"after a full-path query", false},
	} {
		m := NewModel(lm, tok, ModelOptions{})
		searchRows(t, m, first, warm.incremental, 3)
		s := m.NewSession()
		sameRows(t, "diverging "+warm.name, searchRows(t, s.Model, diverging, true, 4), wantMixed)
		if cs := s.CacheStats(); cs.Hits == 0 || cs.Misses == 0 {
			t.Fatalf("diverging %s: cache %+v, want resident early rows and computed later ones", warm.name, cs)
		}
		if kv := m.KVStats(); !warm.incremental && kv.Misses == 0 {
			t.Fatalf("diverging %s: no child missed its parent's state (%+v), so none took the Prefill route", warm.name, kv)
		}
	}
}
