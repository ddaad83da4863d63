package relm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/device"
)

// sampleRows draws up to n matches from a sampled query on m and renders
// each as text, tokens and log-prob; a stream that ends early ends with its
// error, so two streams compare byte for byte up to ErrExhausted.
func sampleRows(t *testing.T, m *Model, q SearchQuery, n int) []string {
	t.Helper()
	results, err := Search(m, q)
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	var rows []string
	for range n {
		mt, err := results.Next()
		if err != nil {
			return append(rows, err.Error())
		}
		rows = append(rows, fmt.Sprintf("%q|%v|%v", mt.Text, mt.Tokens, mt.LogProb))
	}
	return rows
}

// TestSampledStreamIgnoresExecution: a sampled stream depends on its query
// and Seed alone (DESIGN.md decision 6). Fused and unfused, on a cold and
// then a warm logit cache, a canonical pattern, an all-tokens pattern and a
// regex prefix drawn through walk counts each emit the same draws.
func TestSampledStreamIgnoresExecution(t *testing.T) {
	lm, tok := testNGram()
	cases := []struct {
		name string
		q    SearchQuery
	}{
		{"canonical", SearchQuery{Query: QueryString{Pattern: " ((engineering)|(medicine)|(art))", Prefix: "The man was trained in"}}},
		{"all-tokens", SearchQuery{Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"}, Tokenization: AllTokens}},
		{"regex-prefix", SearchQuery{Query: QueryString{Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})", Prefix: "My (phone|fax)( number)? is"},
			RequireEOS: true, MaxTokens: 24}},
	}
	for _, c := range cases {
		c.q.Strategy, c.q.Seed = RandomSampling, 7
		var want []string
		for _, fused := range []bool{false, true} {
			m := NewModel(lm, tok, ModelOptions{ContinuousBatching: fused})
			for _, cache := range []string{"cold", "warm"} {
				got := sampleRows(t, m, c.q, 16)
				switch {
				case want == nil:
					want = got
					if len(want) < 16 {
						t.Fatalf("%s: the reference stream ended early: %v", c.name, want)
					}
				case !slices.Equal(got, want):
					t.Errorf("%s/fused=%v/%s: stream differs\n got: %v\nwant: %v", c.name, fused, cache, got, want)
				}
			}
			m.Close()
		}
	}
}

// TestSampledClockIgnoresPool: a sampled query runs its attempts one at a
// time on its own goroutine, so the virtual device time and the batches it
// spends on a cold model are, like its draws, a function of the query and
// Seed. The query of cmd/relm's sampling example (` ((cat)|(dog))` after
// "The", 8 draws, seed 3) runs 10 times on a fresh model in each mode —
// scoring pools of width 1, 4 and 8, fused and unfused — and every run of a
// mode, and every pool width beside it, reads the same draws, model calls,
// clock and batches.
func TestSampledClockIgnoresPool(t *testing.T) {
	lm, tok := testNGram()
	q := SearchQuery{Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"}, Strategy: RandomSampling, Seed: 3}
	for _, fused := range []bool{false, true} {
		var want []string
		for _, width := range []int{1, 4, 8} {
			pool := device.NewPool(width)
			for run := range 10 {
				m := NewModel(lm, tok, ModelOptions{Pool: pool, ContinuousBatching: fused})
				results, err := Search(m, q)
				if err != nil {
					t.Fatal(err)
				}
				var got []string
				for _, mt := range results.Take(8) {
					got = append(got, fmt.Sprintf("%q|%v", mt.Text, mt.LogProb))
				}
				st := m.Dev.Stats()
				got = append(got, fmt.Sprintf("%d model calls, clock %v, %d batches", results.Stats().ModelCalls, st.Clock, st.Batches))
				results.Close()
				m.Close()
				switch {
				case len(got) != 9:
					t.Fatalf("fused=%v/pool%d/run%d: %d draws, want 8: %v", fused, width, run, len(got)-1, results.Err())
				case want == nil:
					want = got
				case !slices.Equal(got, want):
					t.Fatalf("fused=%v/pool%d/run%d: differs from the first run\n got: %v\nwant: %v", fused, width, run, got, want)
				}
			}
			pool.Close()
		}
		t.Logf("fused=%v: %s", fused, want[len(want)-1])
	}
}
