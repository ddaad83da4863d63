package relm

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Cross-query determinism under continuous batching (DESIGN.md decision 12).
// The fusion scheduler reorders device work across queries — rows from many
// traversals share forwards, in an order that depends on goroutine timing —
// so these tests pin the load-bearing claim: every query's result stream is
// byte-identical to the stream the same query produces alone on an unfused
// model, for all three strategies, with incremental decoding on and off.

type fusionCase struct {
	name string
	q    SearchQuery
	take int
}

func fusionCases() []fusionCase {
	patterns := []QueryString{
		{Pattern: " ((engineering)|(medicine)|(art))", Prefix: "The man was trained in"},
		{Pattern: " ((cat)|(dog))", Prefix: "The"},
	}
	var cases []fusionCase
	for pi, qs := range patterns {
		for _, strat := range []struct {
			name string
			s    SearchStrategy
		}{{"shortest", ShortestPath}, {"beam", BeamSearch}, {"sample", RandomSampling}} {
			for _, incr := range []bool{false, true} {
				cases = append(cases, fusionCase{
					name: fmt.Sprintf("%s/p%d/incr=%v", strat.name, pi, incr),
					q: SearchQuery{
						Query:       qs,
						Strategy:    strat.s,
						Incremental: incr,
						Seed:        42,
						BeamWidth:   4,
					},
					take: 3,
				})
			}
		}
	}
	return cases
}

func matchKeys(ms []*Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = fmt.Sprintf("%q|%v|%v|%v", m.Text, m.Tokens, m.LogProb, m.Canonical)
	}
	return out
}

func runCase(tb testing.TB, m *Model, c fusionCase) []string {
	results, err := Search(m, c.q)
	if err != nil {
		tb.Errorf("%s: %v", c.name, err)
		return nil
	}
	defer results.Close()
	got := results.Take(c.take)
	if err := results.Err(); err != nil {
		tb.Errorf("%s: stream error %v", c.name, err)
	}
	return matchKeys(got)
}

// TestFusionCrossQueryDeterminism: all streaming engines × incremental
// on/off × two patterns run CONCURRENTLY through one fused device, each in
// its own session; every stream must equal its solo run on an
// unfused model. The batcher must also report genuine cross-query fusion —
// otherwise the test would vacuously pass on a broken scheduler that never
// fuses.
func TestFusionCrossQueryDeterminism(t *testing.T) {
	lm, tok := trainIncrTransformer(t)
	cases := fusionCases()

	solo := make([][]string, len(cases))
	for i, c := range cases {
		plain := NewModel(lm, tok, ModelOptions{})
		solo[i] = runCase(t, plain, c)
		if len(solo[i]) == 0 {
			t.Fatalf("%s: solo run produced no matches", c.name)
		}
	}

	fused := NewModel(lm, tok, ModelOptions{ContinuousBatching: true, FusionWindow: 500 * time.Microsecond})
	defer fused.Close()
	got := make([][]string, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		sess := fused.NewSession()
		wg.Add(1)
		go func(i int, c fusionCase, m *Model) {
			defer wg.Done()
			got[i] = runCase(t, m, c)
		}(i, c, sess.Model)
	}
	wg.Wait()

	for i, c := range cases {
		if fmt.Sprint(got[i]) != fmt.Sprint(solo[i]) {
			t.Errorf("%s: fused stream differs from solo run\nfused: %v\nsolo:  %v", c.name, got[i], solo[i])
		}
	}

	bs := fused.BatcherStats()
	if bs.FusedBatches == 0 || bs.Rows == 0 {
		t.Fatalf("no fusion happened: %+v", bs)
	}
	if bs.MultiQueryBatches == 0 {
		t.Errorf("no batch ever mixed queries — fusion untested: %+v", bs)
	}
	if bs.QueueDepth != 0 {
		t.Errorf("rows still queued after all streams closed: %+v", bs)
	}
	t.Logf("batcher: %d fused batches, %.1f mean occupancy, %d multi-query",
		bs.FusedBatches, bs.MeanOccupancy, bs.MultiQueryBatches)
}

// TestFusionModelCloseIdempotent: closing a fused model twice (and closing
// an unfused model) is safe, and queries after Close still answer via the
// direct path.
func TestFusionModelCloseIdempotent(t *testing.T) {
	lm, tok := trainIncrTransformer(t)
	m := NewModel(lm, tok, ModelOptions{ContinuousBatching: true})
	if !m.Fused() {
		t.Fatal("ContinuousBatching did not attach a batcher")
	}
	m.Close()
	m.Close()
	results, err := Search(m, SearchQuery{
		Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	if got := results.Take(2); len(got) != 2 {
		t.Fatalf("post-Close search returned %d matches", len(got))
	}

	plain := NewModel(lm, tok, ModelOptions{})
	if plain.Fused() {
		t.Fatal("unfused model claims fusion")
	}
	plain.Close() // no-op
	if s := plain.BatcherStats(); s != (BatcherStats{}) {
		t.Fatalf("unfused model reported batcher stats: %+v", s)
	}
}
