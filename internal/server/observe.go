// Observability endpoints (DESIGN.md decision 16): a rich /healthz, the
// Prometheus text exposition at /metrics, and the trace browser at
// /v1/trace. All three read the same unified snapshot as /v1/stats
// (snapshotStats), so no counter is ever defined twice.
package server

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"reflect"
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
	// (relm.Model.Fingerprint, probed once at registration): two replicas
	// serving the same fingerprint are interchangeable.
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
	fps := make(map[string]string, len(s.models))
	for n, m := range s.models {
		fps[n] = m.Fingerprint()
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

// promWriter renders snapshots in Prometheus text exposition format. A
// numeric field tagged `metric:"<family>,<counter|gauge>,<HELP>"` is one
// sample of its family. Samples are grouped by family, so each family is one
// block — # HELP, # TYPE, then all of its samples — however many models
// contribute to it.
type promWriter struct {
	order    []string
	families map[string]*strings.Builder
}

// family returns name's block, starting it with its # HELP and # TYPE lines
// the first time the family is seen.
func (p *promWriter) family(name, typ, help string) *strings.Builder {
	b := p.families[name]
	if b == nil {
		b = &strings.Builder{}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		p.families[name] = b
		p.order = append(p.order, name)
	}
	return b
}

// add appends one sample. labels is either "" or a `k="v",k2="v2"` fragment
// the caller has already escaped.
func (p *promWriter) add(name, typ, help, labels, val string) {
	b := p.family(name, typ, help)
	if labels != "" {
		name += "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s %s\n", name, val)
}

// walk emits every metric-tagged field of v, a struct or a pointer to one,
// and recurses into untagged struct and non-nil struct-pointer fields.
func (p *promWriter) walk(v reflect.Value, labels string) {
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return
	}
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch tag := f.Tag.Get("metric"); {
		case tag == "-":
		case tag == "":
			p.walk(fv, labels)
		default:
			name, rest, _ := strings.Cut(tag, ",")
			typ, help, _ := strings.Cut(rest, ",")
			if fv.CanFloat() {
				p.add(name, typ, help, labels, strconv.FormatFloat(fv.Float(), 'g', -1, 64))
			} else {
				p.add(name, typ, help, labels, strconv.FormatInt(fv.Int(), 10))
			}
		}
	}
}

// handleMetrics renders the snapshot /v1/stats serves in Prometheus text
// exposition format — every tagged counter, per model under a model label —
// plus the per-stage latency histograms from each model's tracer.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	snap := s.snapshotStats()
	s.mu.Lock()
	models := maps.Clone(s.models)
	s.mu.Unlock()
	p := &promWriter{families: map[string]*strings.Builder{}}
	p.add("relm_uptime_seconds", "gauge", "Seconds since the server started.", "",
		strconv.FormatInt(int64(time.Since(s.started).Seconds()), 10))
	statuses := make([]string, 0, len(snap.ByStatus))
	for st := range snap.ByStatus {
		statuses = append(statuses, st)
	}
	sort.Strings(statuses)
	for _, st := range statuses {
		p.add("relm_queries_finished_total", "counter", "Finished queries by terminal status.",
			fmt.Sprintf("status=%q", trace.PromEscape(st)), strconv.FormatInt(snap.ByStatus[st], 10))
	}
	p.walk(reflect.ValueOf(snap), "")
	for _, ms := range snap.Models {
		l := fmt.Sprintf("model=%q", trace.PromEscape(ms.Name))
		p.walk(reflect.ValueOf(ms), l)
		// Stage-latency histograms: one shared family, every model's tracer
		// contributing samples under its own model label.
		if tr := models[ms.Name].Tracer(); len(tr.Histograms()) > 0 {
			const hist = "relm_stage_duration_us"
			_ = tr.WritePromHistograms(p.family(hist, "histogram",
				"Per-stage latency (vdev where recorded, else wall), microseconds."), hist, l)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	for _, name := range p.order {
		_, _ = io.WriteString(w, p.families[name].String())
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
