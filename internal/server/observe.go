// Observability endpoints (DESIGN.md decision 16): a rich /healthz, the
// Prometheus text exposition at /metrics, and the trace browser at
// /v1/trace. All three read the same unified snapshot as /v1/stats
// (snapshotStats), so no counter is ever defined twice.
package server

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/relm"
)

// HealthResponse is the /healthz body. The status code still carries the
// machine-readable liveness verdict (200 ok, 503 draining); the body tells a
// human — or a fleet dashboard — which build is running, for how long, and
// over which exact model behaviors (the fingerprints).
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	UptimeMS int64  `json:"uptime_ms"`
	// GoVersion and Build identify the binary: the toolchain that compiled it
	// and the main-module version/VCS stamp when the build recorded one.
	GoVersion string `json:"go_version,omitempty"`
	Build     string `json:"build,omitempty"`
	Draining  bool   `json:"draining"`
	// Models maps each registered model to its behavioral fingerprint
	// (relm.Model.Fingerprint, cached at registration): two replicas serving
	// the same fingerprint are interchangeable.
	Models map[string]string `json:"models"`
}

// buildInfo is read once: the binary cannot change under a running process.
var buildVersion, buildGo = func() (string, string) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "", ""
	}
	version := bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			version = kv.Value
			if len(version) > 12 {
				version = version[:12]
			}
		}
	}
	return version, bi.GoVersion
}()

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	fps := make(map[string]string, len(s.fingerprints))
	for n, fp := range s.fingerprints {
		fps[n] = fp
	}
	s.mu.Unlock()
	resp := HealthResponse{
		Status:    "ok",
		UptimeMS:  time.Since(s.started).Milliseconds(),
		GoVersion: buildGo,
		Build:     buildVersion,
		Models:    fps,
	}
	code := http.StatusOK
	if s.draining.Load() {
		// Failing the liveness probe during drain is what tells an
		// orchestrator to route new traffic elsewhere.
		resp.Status = "draining"
		resp.Draining = true
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// promWriter accumulates exposition-format lines, emitting each family's
// # HELP / # TYPE header exactly once, on the first sample of the family.
type promWriter struct {
	b      strings.Builder
	headed map[string]bool
}

func newPromWriter() *promWriter { return &promWriter{headed: map[string]bool{}} }

func (p *promWriter) head(name, help, typ string) {
	if p.headed[name] {
		return
	}
	p.headed[name] = true
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// counter emits one int64-valued sample. labels is either "" or a
// `k="v",k2="v2"` fragment the caller has already escaped.
func (p *promWriter) counter(name, help, labels string, v int64) {
	p.sample(name, help, "counter", labels, strconv.FormatInt(v, 10))
}

func (p *promWriter) gauge(name, help, labels string, v int64) {
	p.sample(name, help, "gauge", labels, strconv.FormatInt(v, 10))
}

func (p *promWriter) gaugeF(name, help, labels string, v float64) {
	p.sample(name, help, "gauge", labels, strconv.FormatFloat(v, 'g', -1, 64))
}

func (p *promWriter) sample(name, help, typ, labels, val string) {
	p.head(name, help, typ)
	if labels == "" {
		fmt.Fprintf(&p.b, "%s %s\n", name, val)
		return
	}
	fmt.Fprintf(&p.b, "%s{%s} %s\n", name, labels, val)
}

// handleMetrics renders every counter family the service owns — the same
// snapshot /v1/stats serves, in Prometheus text exposition format — plus the
// per-stage latency histograms from each model's tracer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.snapshotStats()
	p := newPromWriter()

	p.gauge("relm_uptime_seconds", "Seconds since the server started.", "",
		int64(time.Since(s.started).Seconds()))
	p.gauge("relm_queries_active", "Queries currently streaming.", "", int64(snap.Active))
	p.counter("relm_queries_rejected_total", "Queries refused by admission control.", "", snap.Rejected)
	statuses := make([]string, 0, len(snap.ByStatus))
	for st := range snap.ByStatus {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	for _, st := range statuses {
		p.counter("relm_queries_finished_total", "Finished queries by terminal status.",
			fmt.Sprintf("status=%q", trace.PromEscape(st)), snap.ByStatus[st])
	}
	p.counter("relm_engine_nodes_expanded_total", "Search-tree nodes expanded across all queries.", "", snap.Aggregate.NodesExpanded)
	p.counter("relm_engine_model_calls_total", "Per-sequence model scoring calls across all queries.", "", snap.Aggregate.ModelCalls)
	p.counter("relm_engine_emitted_total", "Matches emitted across all queries.", "", snap.Aggregate.Emitted)
	p.counter("relm_engine_attempts_total", "Sampler attempts across all queries.", "", snap.Aggregate.Attempts)
	p.counter("relm_engine_rejected_total", "Sampler rejections across all queries.", "", snap.Aggregate.Rejected)

	for _, ms := range snap.Models {
		l := fmt.Sprintf("model=%q", trace.PromEscape(ms.Name))
		p.counter("relm_device_clock_ms", "Virtual device time consumed.", l, ms.DeviceClock)
		p.gaugeF("relm_device_utilization", "Virtual device busy fraction.", l, ms.DeviceUtil)
		p.counter("relm_device_batches_total", "Device batches dispatched.", l, ms.Batches)
		p.counter("relm_cache_hits_total", "Shared logit-cache hits.", l, ms.CacheHits)
		p.counter("relm_cache_misses_total", "Shared logit-cache misses.", l, ms.CacheMisses)
		p.counter("relm_cache_flights_total", "Logit-cache single-flight merges.", l, ms.CacheFlights)
		p.gauge("relm_cache_entries", "Logit-cache resident entries.", l, int64(ms.CacheLen))
		p.gauge("relm_cache_row_bytes", "Bytes held by the logit-cache rows.", l, ms.CacheRowBytes)
		p.counter("relm_plan_hits_total", "Plan-cache hits (compilation skipped).", l, ms.PlanHits)
		p.counter("relm_plan_misses_total", "Plan-cache misses (plan compiled).", l, ms.PlanMisses)
		p.counter("relm_plan_bypassed_total", "Queries that bypassed the plan cache.", l, ms.PlanBypassed)
		p.gauge("relm_plan_entries", "Compiled plans resident.", l, int64(ms.PlanEntries))
		p.counter("relm_plan_compile_ms_total", "Wall time spent compiling plans.", l, ms.PlanCompileMS)
		p.counter("relm_kv_hits_total", "KV-arena prefix-state hits.", l, ms.KVHits)
		p.counter("relm_kv_misses_total", "KV-arena prefix-state misses.", l, ms.KVMisses)
		p.counter("relm_kv_evictions_total", "KV-arena evictions.", l, ms.KVEvictions)
		p.gauge("relm_kv_resident_bytes", "KV-arena resident bytes.", l, ms.KVResidentBytes)
		p.gauge("relm_kv_nodes", "KV-arena resident prefix states.", l, int64(ms.KVNodes))
		p.gauge("relm_kv_demoted_nodes", "KV-arena states demoted to their token context.", l, int64(ms.KVDemotedNodes))
		p.gauge("relm_kv_demoted_bytes", "Bytes held by the demoted KV-arena states.", l, ms.KVDemotedBytes)
		p.counter("relm_kv_promotions_total", "Demoted states promoted back.", l, ms.KVPromotions)
		p.counter("relm_kv_demotions_total", "States demoted to their token context.", l, ms.KVDemotions)
		if b := ms.Batcher; b != nil {
			p.counter("relm_batcher_fused_batches_total", "Fused batches executed.", l, b.FusedBatches)
			p.counter("relm_batcher_fused_rows_total", "Rows executed through fused batches.", l, b.Rows)
			p.counter("relm_batcher_multi_query_batches_total", "Fused batches holding >1 query.", l, b.MultiQueryBatches)
			p.gaugeF("relm_batcher_mean_occupancy", "Mean rows per fused batch.", l, b.MeanOccupancy)
			p.gauge("relm_batcher_queue_depth", "Rows waiting in the admission queue.", l, int64(b.QueueDepth))
			p.gauge("relm_batcher_peak_queue_depth", "Peak rows waiting in the admission queue.", l, int64(b.PeakQueueDepth))
			p.counter("relm_batcher_window_flushes_total", "Batches flushed by the fusion window.", l, b.WindowFlushes)
			p.counter("relm_batcher_size_flushes_total", "Batches flushed at the size limit.", l, b.SizeFlushes)
			p.counter("relm_batcher_urgent_flushes_total", "Batches flushed for deadline urgency.", l, b.UrgentFlushes)
			p.gauge("relm_batcher_fairness_deficit", "Fair-share deficit across accounts.", l, b.FairnessDeficit)
		}
		if t := ms.Trace; t != nil {
			p.counter("relm_trace_sampled_total", "Queries recorded as traces.", l, t.Sampled)
			p.counter("relm_trace_skipped_total", "Queries skipped by the trace sampling rate.", l, t.Skipped)
			p.counter("relm_trace_stored_total", "Traces published to the ring.", l, t.Stored)
			p.gauge("relm_trace_retained", "Traces currently retained for /v1/trace.", l, int64(t.Retained))
		}
	}
	if j := snap.Jobs; j != nil {
		p.counter("relm_jobs_submitted_total", "Validation jobs submitted.", "", j.Submitted)
		p.gauge("relm_jobs_queued", "Jobs waiting to run.", "", j.Queued)
		p.gauge("relm_jobs_running", "Jobs currently running.", "", j.Running)
		p.counter("relm_jobs_completed_total", "Jobs finished successfully.", "", j.Completed)
		p.counter("relm_jobs_failed_total", "Jobs that failed.", "", j.Failed)
		p.counter("relm_jobs_cancelled_total", "Jobs cancelled.", "", j.Cancelled)
		p.counter("relm_jobs_resumed_total", "Jobs resumed from the ledger.", "", j.Resumed)
		p.counter("relm_jobs_items_done_total", "Work items completed across jobs.", "", j.ItemsDone)
		p.gauge("relm_jobs_ledger_bytes", "Bytes written to the job ledger.", "", j.LedgerBytes)
		p.counter("relm_jobs_retries_total", "Work-item retries.", "", j.Retries)
		p.counter("relm_jobs_quarantined_total", "Work items quarantined after retry exhaustion.", "", j.Quarantined)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = fmt.Fprint(w, p.b.String())

	// Stage-latency histograms last: one shared family, every model's tracer
	// contributing samples under its own model label.
	const histFamily = "relm_stage_duration_us"
	s.mu.Lock()
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	models := make(map[string]*relm.Model, len(s.models))
	for n, m := range s.models {
		models[n] = m
	}
	s.mu.Unlock()
	sort.Strings(names)
	headed := false
	for _, n := range names {
		tr := models[n].Tracer()
		if tr == nil || len(tr.Histograms()) == 0 {
			continue
		}
		if !headed {
			headed = true
			fmt.Fprintf(w, "# HELP %s Per-stage latency (vdev where recorded, else wall), microseconds.\n# TYPE %s histogram\n",
				histFamily, histFamily)
		}
		_ = tr.WritePromHistograms(w, histFamily, fmt.Sprintf("model=%q", trace.PromEscape(n)))
	}
}

// handleTraceList serves GET /v1/trace: compact rows for recent traces
// across every model, newest first. ?n= bounds the listing (default 32).
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	n := 32
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
		n = v
	}
	s.mu.Lock()
	models := make(map[string]*relm.Model, len(s.models))
	for name, m := range s.models {
		models[name] = m
	}
	s.mu.Unlock()
	type row struct {
		Model string `json:"model"`
		trace.Summary
	}
	var rows []row
	var names []string
	for name := range models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, d := range models[name].Tracer().Recent(n) {
			rows = append(rows, row{Model: name, Summary: d.Summarize()})
		}
	}
	// Newest first across models, then bound the merged listing.
	sort.Slice(rows, func(i, j int) bool { return rows[i].Began.After(rows[j].Began) })
	if len(rows) > n {
		rows = rows[:n]
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"traces": rows})
}

// handleTraceGet serves GET /v1/trace/{id}: the full span tree as NDJSON (a
// header line, then one span per line), the same shape trace.WriteNDJSON
// produces for files.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusBadRequest, "trace id is required")
		return
	}
	s.mu.Lock()
	models := make([]*relm.Model, 0, len(s.models))
	for _, m := range s.models {
		models = append(models, m)
	}
	s.mu.Unlock()
	for _, m := range models {
		if d := m.Tracer().Get(id); d != nil {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			_ = d.WriteNDJSON(w)
			return
		}
	}
	httpError(w, http.StatusNotFound, fmt.Sprintf("no retained trace %q", id))
}
