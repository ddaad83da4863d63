package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/relm"
)

// newFusedTestServer builds a server over a continuous-batching model — the
// regime the stats-coherence invariants are about.
func newFusedTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	tok, lm := trainOnce()
	m := relm.NewModel(lm, tok, relm.ModelOptions{
		MaxBatch:           32,
		ContinuousBatching: true,
		FusionWindow:       time.Millisecond,
	})
	tb.Cleanup(func() { m.Close() })
	s := New(cfg)
	s.AddModel("test", m)
	ts := httptest.NewServer(s)
	tb.Cleanup(ts.Close)
	return s, ts
}

func runQueryToEnd(tb testing.TB, ts *httptest.Server, body string) ([]MatchEvent, *DoneEvent) {
	tb.Helper()
	resp := postSearch(tb, ts, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		tb.Fatalf("search status = %d", resp.StatusCode)
	}
	return readStream(tb, resp.Body)
}

// TestHealthzJSON pins the rich health body: liveness verdict, uptime, build
// identity, and the model fingerprints, flipping to 503/draining once the
// server begins its drain.
func TestHealthzJSON(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	get := func() (int, HealthResponse) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, hr
	}

	code, hr := get()
	if code != http.StatusOK || hr.Status != "ok" || hr.Draining {
		t.Fatalf("healthy: code=%d body=%+v", code, hr)
	}
	if hr.UptimeMS < 0 {
		t.Errorf("uptime_ms = %d", hr.UptimeMS)
	}
	if hr.GoVersion == "" {
		t.Errorf("go_version missing")
	}
	fp, ok := hr.Models["test"]
	if !ok || fp == "" {
		t.Fatalf("models block missing the registered model's fingerprint: %v", hr.Models)
	}

	s.BeginDrain()
	code, hr = get()
	if code != http.StatusServiceUnavailable || hr.Status != "draining" || !hr.Draining {
		t.Fatalf("draining: code=%d body=%+v", code, hr)
	}
	if hr.Models["test"] != fp {
		t.Errorf("fingerprint changed across drain: %q vs %q", hr.Models["test"], fp)
	}
}

// promSampleRe matches one exposition-format sample line: metric name,
// optional label set, and a value (integer, float, or +Inf/NaN).
var promSampleRe = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"\\]*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// TestMetricsExposition scrapes /metrics after real traffic and validates the
// exposition format line by line: every sample parses, every family is
// declared by a # TYPE exactly once before its first sample, the key counter
// families are present, and the stage histogram is internally coherent
// (cumulative buckets, +Inf bucket == count). The model is fused, so the
// batcher families are exposed too, and their HELP text says what the value
// counts.
func TestMetricsExposition(t *testing.T) {
	_, ts := newFusedTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		runQueryToEnd(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> declared type
	help := map[string]string{}  // family -> HELP text
	families := map[string]bool{}
	type bucketKey struct{ labels, le string }
	buckets := map[string][]string{} // label set -> le values in order
	bucketVals := map[bucketKey]float64{}
	counts := map[string]float64{} // label set -> _count value
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			if _, dup := typed[parts[2]]; dup {
				t.Errorf("family %s declared twice", parts[2])
			}
			typed[parts[2]] = parts[3]
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			family, text, _ := strings.Cut(rest, " ")
			help[family] = text
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("unknown comment line %q", line)
			continue
		}
		if !promSampleRe.MatchString(line) {
			t.Errorf("sample line does not parse: %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name && typed[base] == "histogram" {
				family = base
			}
		}
		if _, ok := typed[family]; !ok {
			t.Errorf("sample %q appears before its # TYPE declaration", line)
		}
		families[family] = true

		if family == "relm_stage_duration_us" {
			fields := strings.Fields(line)
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			labels := ""
			if i := strings.Index(name, "{"); i >= 0 {
				labels = name[i:]
			} else if i := strings.Index(fields[0], "{"); i >= 0 {
				labels = fields[0][i:]
			}
			switch {
			case strings.HasPrefix(fields[0], "relm_stage_duration_us_bucket"):
				le := ""
				rest := labels
				for _, kv := range strings.Split(strings.Trim(rest, "{}"), ",") {
					if strings.HasPrefix(kv, `le="`) {
						le = strings.TrimSuffix(strings.TrimPrefix(kv, `le="`), `"`)
					}
				}
				base := strings.ReplaceAll(rest, fmt.Sprintf(`,le=%q`, le), "")
				base = strings.ReplaceAll(base, fmt.Sprintf(`le=%q,`, le), "")
				base = strings.ReplaceAll(base, fmt.Sprintf(`le=%q`, le), "")
				buckets[base] = append(buckets[base], le)
				bucketVals[bucketKey{base, le}] = v
			case strings.HasPrefix(fields[0], "relm_stage_duration_us_count"):
				counts[labels] = v
			}
		}
	}

	for _, want := range []string{
		"relm_uptime_seconds",
		"relm_queries_active",
		"relm_queries_finished_total",
		"relm_engine_model_calls_total",
		"relm_cache_hits_total",
		"relm_cache_row_bytes",
		"relm_plan_hits_total",
		"relm_trace_sampled_total",
		"relm_stage_duration_us",
	} {
		if !families[want] {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if typed["relm_stage_duration_us"] != "histogram" {
		t.Errorf("stage family typed %q, want histogram", typed["relm_stage_duration_us"])
	}
	// The batcher's occupancy and queue depths are rows, not queries or
	// requests; the KV demotion families name the token-only form.
	for family, want := range map[string]string{
		"relm_batcher_mean_occupancy":   "Mean rows per fused batch.",
		"relm_batcher_queue_depth":      "Rows waiting in the admission queue.",
		"relm_batcher_peak_queue_depth": "Peak rows waiting in the admission queue.",
		"relm_kv_demoted_nodes":         "KV-arena states demoted to their token context.",
		"relm_kv_demoted_bytes":         "Bytes held by the demoted KV-arena states.",
		"relm_kv_demotions_total":       "States demoted to their token context.",
	} {
		if got, ok := help[family]; !ok || got != want {
			t.Errorf("# HELP %s = %q (present %v), want %q", family, got, ok, want)
		}
	}
	for family := range typed {
		if strings.Contains(family, "breaker") {
			t.Errorf("family %s exposed: the batcher has no circuit breaker", family)
		}
	}

	// Histogram coherence per label set: buckets cumulative, ending at +Inf,
	// whose value matches the series count.
	if len(buckets) == 0 {
		t.Fatalf("no stage histogram buckets after traffic")
	}
	for base, les := range buckets {
		prev := -1.0
		for _, le := range les {
			v := bucketVals[bucketKey{base, le}]
			if v < prev {
				t.Errorf("%s: bucket le=%s value %g below previous %g (not cumulative)", base, le, v, prev)
			}
			prev = v
		}
		if les[len(les)-1] != "+Inf" {
			t.Errorf("%s: bucket list does not end at +Inf: %v", base, les)
		}
		if inf := bucketVals[bucketKey{base, "+Inf"}]; inf != counts[base] {
			t.Errorf("%s: +Inf bucket %g != count %g", base, inf, counts[base])
		}
	}
}

// TestTraceEndpoints walks the trace browser end to end: a query's done
// event carries its trace id, /v1/trace lists it, and /v1/trace/{id} serves
// the full span tree as NDJSON.
func TestTraceEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	matches, done := runQueryToEnd(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`)
	if len(matches) == 0 || done == nil {
		t.Fatalf("query produced no stream")
	}
	if done.TraceID == "" || !strings.HasPrefix(done.TraceID, "test-") {
		t.Fatalf("done.trace_id = %q, want a test-prefixed id", done.TraceID)
	}

	// The listing carries the finished trace, newest first, model-attributed.
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Traces []struct {
			Model string `json:"model"`
			ID    string `json:"id"`
			Spans int    `json:"spans"`
			Query string `json:"query"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range list.Traces {
		if row.ID == done.TraceID {
			found = true
			if row.Model != "test" || row.Spans == 0 {
				t.Errorf("listing row %+v", row)
			}
			if row.Query == "" {
				t.Errorf("listing row lost the query pattern: %+v", row)
			}
		}
	}
	if !found {
		t.Fatalf("trace %q not in listing %+v", done.TraceID, list.Traces)
	}

	// The full span tree comes back as NDJSON: header line, then spans.
	resp2, err := http.Get(ts.URL + "/v1/trace/" + done.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if ct := resp2.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("trace content type = %q", ct)
	}
	sc := bufio.NewScanner(resp2.Body)
	if !sc.Scan() {
		t.Fatalf("empty trace body")
	}
	var hdr struct {
		ID    string `json:"id"`
		Spans int    `json:"spans"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.ID != done.TraceID || hdr.Spans == 0 {
		t.Fatalf("trace header %q (err %v)", sc.Text(), err)
	}
	names := map[string]int{}
	spans := 0
	for sc.Scan() {
		var sp trace.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		spans++
		names[sp.Name]++
		if sp.ID != trace.RootID && sp.Parent == 0 {
			t.Errorf("non-root span %d has no parent", sp.ID)
		}
	}
	if spans != hdr.Spans {
		t.Errorf("body has %d spans, header says %d", spans, hdr.Spans)
	}
	for _, want := range []string{"query", "plan.compile", "emit"} {
		if names[want] == 0 {
			t.Errorf("span tree missing %q: %v", want, names)
		}
	}
	if names["emit"] != len(matches) {
		t.Errorf("%d emit spans for %d streamed matches", names["emit"], len(matches))
	}

	// Defect paths: unknown id is 404, malformed id is 400.
	for _, c := range []struct {
		path string
		code int
	}{
		{"/v1/trace/no-such-trace", http.StatusNotFound},
		{"/v1/trace/bad/id", http.StatusBadRequest},
	} {
		r, err := http.Get(ts.URL + c.path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != c.code {
			t.Errorf("GET %s = %d, want %d", c.path, r.StatusCode, c.code)
		}
	}
}

// TestStatsCoherence holds snapshotStats to its read-order contract: after
// concurrent fused traffic, one snapshot's families reconcile — the
// batcher's fused rows cover every device-bound row any per-query counter
// implies, the aggregate equals the per-query sum, and a later snapshot
// never moves a counter backwards.
func TestStatsCoherence(t *testing.T) {
	_, ts := newFusedTestServer(t, Config{MaxConcurrent: 8})

	const queries = 8
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runQueryToEnd(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5,"deadline_ms":20000}`)
		}()
	}
	wg.Wait()

	sr := getStats(t, ts)
	if len(sr.Queries) != queries {
		t.Fatalf("stats list %d queries, want %d", len(sr.Queries), queries)
	}

	// Aggregate == sum over finished queries (none are running now).
	var sumCalls, sumNodes, sumMisses int64
	for _, q := range sr.Queries {
		if q.Status == statusRunning {
			t.Fatalf("query %d still running after streams closed", q.ID)
		}
		sumCalls += q.Engine.ModelCalls
		sumNodes += q.Engine.NodesExpanded
		sumMisses += q.Cache.Misses
	}
	if sr.Aggregate.ModelCalls != sumCalls || sr.Aggregate.NodesExpanded != sumNodes {
		t.Errorf("aggregate (%d calls, %d nodes) != per-query sum (%d, %d)",
			sr.Aggregate.ModelCalls, sr.Aggregate.NodesExpanded, sumCalls, sumNodes)
	}
	var finished int64
	for _, n := range sr.ByStatus {
		finished += n
	}
	if finished != queries {
		t.Errorf("by_status sums to %d, want %d", finished, queries)
	}

	if len(sr.Models) != 1 {
		t.Fatalf("models = %d", len(sr.Models))
	}
	ms := sr.Models[0]
	if ms.Batcher == nil {
		t.Fatalf("fused model reports no batcher block")
	}
	// Every logit-cache miss any query observed was dispatched as a fused
	// row before that query's counters could advance (the snapshot reads
	// queries first), so the shared total must cover the per-query sum.
	if ms.Batcher.Rows < sumMisses {
		t.Errorf("fused_rows %d < per-query cache-miss sum %d — snapshot order violated",
			ms.Batcher.Rows, sumMisses)
	}
	if ms.Trace == nil {
		t.Fatalf("model reports no trace block after traffic")
	}
	if ms.Trace.Sampled < queries {
		t.Errorf("trace sampled %d < %d queries at rate 1.0", ms.Trace.Sampled, queries)
	}
	if ms.Trace.Stored > ms.Trace.Sampled {
		t.Errorf("stored %d > sampled %d", ms.Trace.Stored, ms.Trace.Sampled)
	}
	if int64(ms.Trace.Retained) > ms.Trace.Stored {
		t.Errorf("retained %d > stored %d", ms.Trace.Retained, ms.Trace.Stored)
	}

	// Monotonicity: a later snapshot never decreases a counter — every
	// field whose metric tag types it a counter.
	old, cur := counterFields(sr), counterFields(getStats(t, ts))
	if len(old) < 25 {
		t.Fatalf("only %d counter fields in the snapshot: %v", len(old), old)
	}
	for k, v := range old {
		if nv, ok := cur[k]; !ok || nv < v {
			t.Errorf("%s moved backwards: %g -> %g (present %v)", k, v, nv, ok)
		}
	}
}

// counterFields reads every counter-tagged field of a snapshot, keyed by
// its path, walking the snapshot the way promWriter does.
func counterFields(sr StatsResponse) map[string]float64 {
	out := map[string]float64{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			v = v.Elem()
		}
		if v.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			f, fv := v.Type().Field(i), v.Field(i)
			tag := f.Tag.Get("metric")
			_, rest, _ := strings.Cut(tag, ",")
			switch {
			case tag == "":
				walk(fv, path+"."+f.Name)
			case !strings.HasPrefix(rest, "counter,"):
			case fv.CanFloat():
				out[path+"."+f.Name] = fv.Float()
			default:
				out[path+"."+f.Name] = float64(fv.Int())
			}
		}
	}
	walk(reflect.ValueOf(sr), "stats")
	for _, ms := range sr.Models {
		walk(reflect.ValueOf(ms), "models["+ms.Name+"]")
	}
	return out
}
