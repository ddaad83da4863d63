package repro

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/relm"
)

// Continuous cross-query batching gate (DESIGN.md decision 12, ROADMAP
// item 2). A loaded server runs many queries against one device; without
// fusion each query pays the full dispatch cost for its own small frontier
// waves. The gate pins the win: 32 concurrent queries — all three strategies
// in the same run — must aggregate >= 3x the throughput of per-query batching
// on the virtual device clock, with every query's result stream
// byte-identical between the two arms.

// gateQuery is one of the 32 concurrent queries: a streaming search
// (shortest-path, beam, or sampling) and how many matches it takes.
type gateQuery struct {
	name string
	q    relm.SearchQuery
	take int
}

// gateOwners gives each of the 32 queries a prefix of its own. Every context
// a query scores starts with its prefix, so no two queries share a context:
// the logit cache (which the device consults before it dispatches, DESIGN.md
// decision 6) can answer none of one query's rows from another's work, and
// the ratio the gate reads is dispatch amortisation alone. The PR-6 mix gave
// all 32 the same pattern and prefix — eight copies of four queries — and
// most of what it "fused" were rows the cache already held.
var gateOwners = [32]string{
	"Alice", "Bruno", "Carla", "Derek", "Elena", "Felix", "Greta", "Hugo",
	"Irene", "Jonas", "Karin", "Lukas", "Marta", "Nils", "Olga", "Pavel",
	"Quinn", "Rosa", "Stefan", "Tessa", "Ulrich", "Vera", "Walter", "Xenia",
	"Yusuf", "Zelda", "Anton", "Birgit", "Caspar", "Dora", "Emil", "Frieda",
}

// gatePrefix is query i's private prefix.
func gatePrefix(i int) string { return gateOwners[i] + "'s number is" }

// fusionGateQueries builds the 32-query mix: 16 shortest-path, 8 beam and 8
// sampling queries, every strategy in single-row waves (BatchExpand 1,
// BeamWidth 1) — the regime where dispatch overhead dominates and per-query
// batching has nothing left to amortize, i.e. exactly the serving load
// continuous batching exists for — each query over its own prefix
// (gateOwners).
func fusionGateQueries() []gateQuery {
	const pattern = " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})"
	var out []gateQuery
	for i := 0; i < 8; i++ {
		own := func(k int) relm.QueryString {
			return relm.QueryString{Pattern: pattern, Prefix: gatePrefix(4*i + k)}
		}
		out = append(out,
			gateQuery{
				name: fmt.Sprintf("shortest-%d", i),
				q: relm.SearchQuery{
					Query: own(0), Strategy: relm.ShortestPath,
					RequireEOS: true, MaxTokens: 24, BatchExpand: 1,
				},
				take: 2,
			},
			gateQuery{
				name: fmt.Sprintf("beam-%d", i),
				q: relm.SearchQuery{
					Query: own(1), Strategy: relm.BeamSearch, BeamWidth: 1,
					RequireEOS: true, MaxTokens: 24, BatchExpand: 1,
				},
				take: 1,
			},
			gateQuery{
				name: fmt.Sprintf("sample-%d", i),
				q: relm.SearchQuery{
					Query: own(2), Strategy: relm.RandomSampling, Seed: int64(100 + i),
					RequireEOS: true, MaxTokens: 24, BatchExpand: 1,
				},
				take: 2,
			},
			gateQuery{
				name: fmt.Sprintf("shortest-%d", 8+i),
				q: relm.SearchQuery{
					Query: own(3), Strategy: relm.ShortestPath,
					RequireEOS: true, MaxTokens: 24, BatchExpand: 1,
				},
				take: 2,
			},
		)
	}
	return out
}

// runGateQuery executes one query and returns its result stream as
// comparable strings.
func runGateQuery(tb testing.TB, m *relm.Model, g gateQuery) []string {
	tb.Helper()
	results, err := relm.Search(m, g.q)
	if err != nil {
		tb.Errorf("%s: %v", g.name, err)
		return nil
	}
	defer results.Close()
	matches := results.Take(g.take)
	if err := results.Err(); err != nil {
		tb.Errorf("%s: stream error %v", g.name, err)
	}
	out := make([]string, len(matches))
	for i, mt := range matches {
		out[i] = fmt.Sprintf("%q|%v|%v", mt.Text, mt.Tokens, mt.LogProb)
	}
	return out
}

// runGateArm runs the queries concurrently against one shared model (one
// session per query, as the server does) and returns each query's stream
// plus the total virtual device time consumed. fused toggles the only
// difference between the arms: the continuous-batching scheduler.
func runGateArm(tb testing.TB, queries []gateQuery, fused bool) ([][]string, time.Duration) {
	tb.Helper()
	e := env(tb)
	opts := relm.ModelOptions{MaxBatch: 32}
	if fused {
		opts.ContinuousBatching = true
		opts.FusionWindow = 4 * time.Millisecond
	}
	m := relm.NewModel(e.Large.LM, e.Tok, opts)
	defer m.Close()

	streams := make([][]string, len(queries))
	var wg sync.WaitGroup
	for i, g := range queries {
		sess := m.NewSession()
		wg.Add(1)
		go func(i int, g gateQuery, qm *relm.Model) {
			defer wg.Done()
			streams[i] = runGateQuery(tb, qm, g)
		}(i, g, sess.Model)
	}
	wg.Wait()
	return streams, m.Dev.Stats().Clock
}

// TestContinuousBatchingSpeedGate is the PR-6 acceptance gate: >= 3x
// aggregate throughput at 32 concurrent queries versus per-query batching,
// measured on the deterministic virtual device clock, with byte-identical
// per-query streams for all three strategies in the same run.
func TestContinuousBatchingSpeedGate(t *testing.T) {
	queries := fusionGateQueries()
	if len(queries) != 32 {
		t.Fatalf("gate runs %d queries, want 32", len(queries))
	}
	plain, plainClock := runGateArm(t, queries, false)
	fused, fusedClock := runGateArm(t, queries, true)

	for i, g := range queries {
		if len(plain[i]) == 0 {
			t.Errorf("%s: produced no results", g.name)
			continue
		}
		if fmt.Sprint(fused[i]) != fmt.Sprint(plain[i]) {
			t.Errorf("%s: fused stream differs from per-query run\nfused: %v\nplain: %v",
				g.name, fused[i], plain[i])
		}
	}

	speedup := float64(plainClock) / float64(fusedClock)
	t.Logf("per-query %v vs fused %v at 32 concurrent queries: %.2fx", plainClock, fusedClock, speedup)
	if speedup < 3 {
		t.Errorf("aggregate speedup %.2fx, want >= 3x", speedup)
	}
}

// BenchmarkContinuousBatching is the PR-6 ablation bench: aggregate virtual
// device time for 1, 8, and 32 concurrent shortest-path queries, fused vs
// per-query. vdev-ms is the headline metric (dispatch amortization on the
// virtual clock); ns/op carries scheduler wall-clock overhead.
func BenchmarkContinuousBatching(b *testing.B) {
	env(b) // build the world outside the timer
	for _, fused := range []bool{false, true} {
		mode := "perquery"
		if fused {
			mode = "fused"
		}
		for _, n := range []int{1, 8, 32} {
			var queries []gateQuery
			for i := 0; i < n; i++ {
				queries = append(queries, gateQuery{
					name: fmt.Sprintf("bench-%d", i),
					q: relm.SearchQuery{
						Query: relm.QueryString{
							Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
							Prefix:  gatePrefix(i),
						},
						Strategy:   relm.ShortestPath,
						RequireEOS: true, MaxTokens: 24, BatchExpand: 1,
					},
					take: 2,
				})
			}
			b.Run(fmt.Sprintf("%s-%dq", mode, n), func(b *testing.B) {
				var vdev time.Duration
				for i := 0; i < b.N; i++ {
					_, vdev = runGateArm(b, queries, fused)
				}
				b.ReportMetric(float64(vdev.Milliseconds()), "vdev-ms")
			})
		}
	}
}
