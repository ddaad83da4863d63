package relm

import (
	"fmt"
	"slices"
	"testing"
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
// and Seed alone (DESIGN.md decision 6). At Parallelism 1, 4 and 8, fused
// and unfused, on a cold and then a warm logit cache, a canonical pattern,
// an all-tokens pattern and a regex prefix drawn through walk counts each
// emit the same draws.
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
			for _, par := range []int{1, 4, 8} {
				m := NewModel(lm, tok, ModelOptions{ContinuousBatching: fused})
				for _, cache := range []string{"cold", "warm"} {
					q := c.q
					q.Parallelism = par
					got := sampleRows(t, m, q, 16)
					switch {
					case want == nil:
						want = got
						if len(want) < 16 {
							t.Fatalf("%s: the reference stream ended early: %v", c.name, want)
						}
					case !slices.Equal(got, want):
						t.Errorf("%s/fused=%v/p%d/%s: stream differs\n got: %v\nwant: %v", c.name, fused, par, cache, got, want)
					}
				}
				m.Close()
			}
		}
	}
}
