package main

import (
	"encoding/json"
	"sort"
)

// metricDef is one row of the ledger: the name later issues refer to, its
// unit, which way is better, and — for end-to-end metrics — the share of the
// parent's median by which it may worsen before a change counts as a
// regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are reported on every workload with tracing off, and each
// carries a bound. A bound is at least three times the widest quartile
// spread any workload showed over ten seeds on the 2-core reference box
// (bench/README.md records the spreads). Only what repeats is here: the
// counts, simulated accelerator time, memory and set-up time. The six
// wall-clock metrics the issue lists beside them (wallClockMetrics) spread by
// 10 to 16 % on that box whatever the run length or estimator, more than half
// the widest bound the contract allows, so by the issue's own rule they are
// not shipped as gates: they are measured and printed on every run, and
// declared in the per-layer list, which has no bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.03},
	{"alloc_kb_per_op", "KiB", lower, 0.04},
	{"peak_rss_mb", "MiB", lower, 0.25},
	{"model_calls_per_op", "count", lower, 0.02},
	{"vdev_ms_per_op", "ms", lower, 0.05},
}

// wallClockMetrics are what a caller sees on the clock. --trace 0 prints
// them from the timed phase for the reader; the contract line carries them
// with --trace 1, from that pass's untraced reference phase.
var wallClockMetrics = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: higher},
	{Name: "op_p50_ms", Unit: "ms", Better: lower},
	{Name: "op_p95_ms", Unit: "ms", Better: lower},
	{Name: "ttfm_p50_ms", Unit: "ms", Better: lower},
	{Name: "ttfm_p95_ms", Unit: "ms", Better: lower},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: lower},
}

// perLayerMetrics come from the traced pass and the direct-call probes.
// They have no bound: they explain a movement, they do not gate one.
var perLayerMetrics = func() []metricDef {
	defs := append([]metricDef(nil), wallClockMetrics...)
	defs = append(defs, []metricDef{
		{Name: "regex.compile_us", Unit: "us", Better: lower},
		{Name: "automaton.minimize_us", Unit: "us", Better: lower},
		{Name: "levenshtein.expand_us", Unit: "us", Better: lower},
		{Name: "compiler.full_us", Unit: "us", Better: lower},
		{Name: "compiler.canonical_us", Unit: "us", Better: lower},
		{Name: "automaton.freeze_us", Unit: "us", Better: lower},
		{Name: "automaton.frozen_states", Unit: "count", Better: lower},
		{Name: "automaton.frozen_edges", Unit: "count", Better: lower},
		{Name: "relm.explain_ms", Unit: "ms", Better: lower},
		{Name: "relm.compile_residual_pct", Unit: "%", Better: lower},
		{Name: "relm.plan_hit_rate", Unit: "ratio", Better: higher},
		{Name: "relm.plan_compile_ms_per_op", Unit: "ms", Better: lower},
		{Name: "tokenizer.encode_us", Unit: "us", Better: lower},
		{Name: "relm.search_ms_per_op", Unit: "ms", Better: lower},
		{Name: "engine.nodes_per_op", Unit: "count", Better: lower},
		{Name: "engine.host_ms_per_op", Unit: "ms", Better: lower},
		{Name: "cache.hit_rate", Unit: "ratio", Better: higher},
		{Name: "cache.misses_per_op", Unit: "count", Better: lower},
		{Name: "cache.flights_per_op", Unit: "count", Better: lower},
		{Name: "cache.hit_us_per_row", Unit: "us", Better: lower},
		{Name: "model.calls_per_op", Unit: "count", Better: lower},
		{Name: "model.rows_per_call", Unit: "count", Better: higher},
		{Name: "model.busy_ms_per_op", Unit: "ms", Better: lower},
		{Name: "model.prefill_ms_per_op", Unit: "ms", Better: lower},
		{Name: "model.extend_ms_per_op", Unit: "ms", Better: lower},
		{Name: "device.batches_per_op", Unit: "count", Better: lower},
		{Name: "device.rows_per_batch", Unit: "count", Better: higher},
		{Name: "device.fused_occupancy", Unit: "count", Better: higher},
		{Name: "device.multi_query_share", Unit: "ratio", Better: higher},
		{Name: "device.window_flush_share", Unit: "ratio", Better: lower},
		{Name: "device.forward_hot_us", Unit: "us", Better: lower},
		{Name: "kvcache.hit_rate", Unit: "ratio", Better: higher},
		{Name: "kvcache.evictions_per_op", Unit: "count", Better: lower},
		{Name: "kvcache.demotions_per_op", Unit: "count", Better: lower},
		{Name: "kvcache.promotions_per_op", Unit: "count", Better: lower},
		{Name: "kvcache.resident_mb", Unit: "MiB", Better: lower},
		{Name: "kvcache.acquire_us", Unit: "us", Better: lower},
		{Name: "kvcache.commit_us", Unit: "us", Better: lower},
		{Name: "server.self_ms_per_op", Unit: "ms", Better: lower},
		{Name: "server.match_gap_p50_ms", Unit: "ms", Better: lower},
		{Name: "server.rejected", Unit: "count", Better: lower},
		{Name: "jobs.items_per_s", Unit: "1/s", Better: higher},
		{Name: "jobs.self_ms_per_job", Unit: "ms", Better: lower},
		{Name: "jobs.ledger_append_us", Unit: "us", Better: lower},
		{Name: "jobs.ledger_sync_us", Unit: "us", Better: lower},
		{Name: "jobs.ledger_bytes_per_item", Unit: "B", Better: lower},
		{Name: "jobs.retries", Unit: "count", Better: lower},
		{Name: "jobs.quarantined", Unit: "count", Better: lower},
		{Name: "jobs.results_refetched", Unit: "count", Better: lower},
		{Name: "jobs.follow_ms_per_job", Unit: "ms", Better: lower},
		{Name: "trace.overhead_pct", Unit: "%", Better: lower},
		{Name: "trace.unattributed_pct", Unit: "%", Better: lower},
		{Name: "go.gc_cpu_pct", Unit: "%", Better: lower},
		{Name: "go.gc_cycles_per_op", Unit: "count", Better: lower},
		{Name: "go.goroutines_peak", Unit: "count", Better: lower},
		{Name: "host.calibration_ms", Unit: "ms", Better: lower},
	}...)
	for _, st := range stageNames {
		defs = append(defs, metricDef{Name: "trace.stage." + st + "_ms_per_op", Unit: "ms", Better: lower})
	}
	return defs
}()

// workloadWhy is each workload's one-line reason for existing
// (bench/README.md has the paragraph).
var workloadWhy = map[string]string{
	wlServeMix:    "interactive mix of the paper's query classes over hot plans: engine traversal, logit cache, device dispatch and fusion, stream emit; compile chain and kvcache nearly idle",
	wlCompileCold: "every op is a pattern never seen before: regex, automaton, levenshtein, compiler, Freeze and the plan-cache miss path dominate; traversal and emit are small",
	wlIncremental: "deep incremental decoding on the transformer under a tight KV budget: Prefill/ExtendBatch dispatch and kvcache on every op; wall time is the fusion window's timer, counts and CPU are the layers'",
	wlAudit:       "4-item validation jobs over warm caches, results polled every 2 ms: jobs scheduling, per-worker sessions, hash-chained ledger appends and fsync'd checkpoints beside a cheap engine",
}

// manifest renders BENCHMARK.json from the tables above, so the file the
// driver reads and the metrics the program prints cannot drift apart
// (TestManifestMatchesBenchmarkJSON compares them).
func manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"` // no bounds: omitted
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
		EndToEnd:   endToEndMetrics,
	}
	for _, name := range workloadNames {
		m.Workloads = append(m.Workloads, workload{name, workloadWhy[name]})
	}
	m.PerLayer = append(m.PerLayer, perLayerMetrics...)
	sort.Slice(m.PerLayer, func(i, j int) bool { return m.PerLayer[i].Name < m.PerLayer[j].Name })
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
