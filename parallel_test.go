package repro

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/device"
	"repro/relm"
)

// phoneQuery is the phone-number extraction workload (§2's motivating
// example): ten near-uniform digit positions give the traversal a wide
// frontier of comparable-probability nodes — the "massive sets of test
// vectors" regime the paper's executor batches onto the accelerator. It is
// the decision-6 measurement workload because wide frontiers are where
// batching matters; peaked workloads (URL memorization) spend their time on
// a narrow best-first path that batching can only partially amortize.
func phoneQuery(batch int) relm.SearchQuery {
	return relm.SearchQuery{
		Query:       relm.QueryString{Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})", Prefix: "My phone number is"},
		RequireEOS:  true,
		MaxTokens:   24,
		BatchExpand: batch,
	}
}

// runPhoneExtraction executes the query on a fresh device wrap of the
// built-in corpus model, scoring on a pool of parallelism workers, and
// returns the virtual device time spent extracting n numbers.
func runPhoneExtraction(tb testing.TB, batch, parallelism, n int) time.Duration {
	tb.Helper()
	e := env(tb)
	pool := device.NewPool(parallelism)
	defer pool.Close()
	m := relm.NewModel(e.Large.LM, e.Tok, relm.ModelOptions{Pool: pool})
	results, err := relm.Search(m, phoneQuery(batch))
	if err != nil {
		tb.Fatal(err)
	}
	if got := results.Take(n); len(got) != n {
		tb.Fatalf("extracted %d results, want %d", len(got), n)
	}
	return m.Dev.Stats().Clock
}

// TestBatchedParallelDijkstraSpeedup is the DESIGN.md decision-6 acceptance
// gate: batched parallel shortest-path must be at least 2x faster than the
// sequential path (batch 1, single worker) on the built-in corpus model at
// batch size >= 8, measured in virtual device time — the deterministic
// analog of the paper's GPU-throughput comparison (Figure 6). The virtual
// clock depends only on the traversal, not the host, so the asserted ratio
// is stable across machines.
func TestBatchedParallelDijkstraSpeedup(t *testing.T) {
	seq := runPhoneExtraction(t, 1, 1, 40)
	for _, batch := range []int{8, 32} {
		par := runPhoneExtraction(t, batch, runtime.NumCPU(), 40)
		speedup := float64(seq) / float64(par)
		t.Logf("sequential %v vs batch=%d parallel %v: %.2fx", seq, batch, par, speedup)
		if speedup < 2 {
			t.Errorf("batch=%d speedup %.2fx, want >= 2x", batch, speedup)
		}
	}
}

// BenchmarkAblationParallelDijkstra is the decision-6 ablation bench:
// sequential vs batched parallel phone-number extraction. Metric vdev-ms is
// virtual device time per query (dispatch amortization); ns/op carries the
// wall-clock effect of the worker pool and the single-flight cache.
func BenchmarkAblationParallelDijkstra(b *testing.B) {
	env(b) // build the world outside the timer
	configs := []struct {
		name       string
		batch, par int
	}{
		{"sequential", 1, 1},
		{"batch8", 8, 1},
		{"batch8-parallel", 8, runtime.NumCPU()},
		{"batch32-parallel", 32, runtime.NumCPU()},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var vdev time.Duration
			for i := 0; i < b.N; i++ {
				vdev = runPhoneExtraction(b, cfg.batch, cfg.par, 40)
			}
			b.ReportMetric(float64(vdev.Milliseconds()), "vdev-ms")
		})
	}
}
