package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/relm"
)

// SearchRequest is the POST /v1/search body. Only Pattern is required (and
// Model, when more than one is registered).
type SearchRequest struct {
	Model   string `json:"model"`
	Pattern string `json:"pattern"`
	Prefix  string `json:"prefix"`
	// Strategy is "shortest" (default), "beam", or "random".
	Strategy string `json:"strategy"`
	// Tokenization is "canonical" (default) or "all".
	Tokenization string  `json:"tokenization"`
	TopK         int     `json:"topk"`
	TopP         float64 `json:"topp"`
	Temperature  float64 `json:"temperature"`
	RequireEOS   bool    `json:"require_eos"`
	Dedup        bool    `json:"dedup"`
	Edits        int     `json:"edits"`
	Seed         int64   `json:"seed"`
	BeamWidth    int     `json:"beam_width"`
	// MaxMatches is the per-query result budget (0: server default; capped
	// at the server max).
	MaxMatches int `json:"max_matches"`
	// DeadlineMS bounds the query's runtime (0: server default; capped at
	// the server max).
	DeadlineMS int64 `json:"deadline_ms"`
	// Batch is the DESIGN.md decision-6 frontier batch (0: the device's
	// batch limit). A negative value is rejected (relm.SearchQuery.Validate).
	Batch int `json:"batch"`
	// Parallelism is accepted on the wire and ignored: a query expands and
	// samples on its own goroutine, and the server's scoring pool is the
	// one parallel knob. The performance ledger (bench/relmperf) still
	// names it, so it is kept only until the ledger's own change drops it
	// (ROADMAP 1(g)).
	Parallelism int `json:"parallelism"`
	// Incremental enables KV-cache prefix-state reuse across the query's
	// frontier (DESIGN.md decision 10). Results are byte-identical either
	// way; the knob trades arena memory for per-round scoring work.
	Incremental bool `json:"incremental"`
}

func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (*SearchRequest, *relm.Model, string, error) {
	var req SearchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, nil, "", fmt.Errorf("bad request body: %w", err)
	}
	if req.Pattern == "" {
		return nil, nil, "", errors.New("pattern is required")
	}
	switch req.Strategy {
	case "", "shortest", "beam", "random":
	default:
		return nil, nil, "", fmt.Errorf("unknown strategy %q (want shortest, beam, or random)", req.Strategy)
	}
	switch req.Tokenization {
	case "", "canonical", "all":
	default:
		return nil, nil, "", fmt.Errorf("unknown tokenization %q (want canonical or all)", req.Tokenization)
	}
	if err := buildQuery(&req, r.Context()).Validate(); err != nil {
		return nil, nil, "", err
	}
	if req.MaxMatches < 0 {
		return nil, nil, "", fmt.Errorf("max_matches must be >= 0, got %d", req.MaxMatches)
	}
	if req.DeadlineMS < 0 {
		return nil, nil, "", fmt.Errorf("deadline_ms must be >= 0, got %d", req.DeadlineMS)
	}
	if req.Edits < 0 {
		return nil, nil, "", fmt.Errorf("edits must be >= 0, got %d", req.Edits)
	}
	if req.Edits > s.cfg.MaxEdits {
		// Clamping would silently change the query's language; refuse.
		return nil, nil, "", fmt.Errorf("edits must be <= %d, got %d", s.cfg.MaxEdits, req.Edits)
	}
	m, name, err := s.lookup(req.Model)
	if err != nil {
		return nil, nil, "", err
	}
	return &req, m, name, nil
}

// buildQuery translates the wire request into a relm.SearchQuery.
func buildQuery(req *SearchRequest, ctx context.Context) relm.SearchQuery {
	q := relm.SearchQuery{
		Query:       relm.QueryString{Pattern: req.Pattern, Prefix: req.Prefix},
		TopK:        req.TopK,
		TopP:        req.TopP,
		Temperature: req.Temperature,
		RequireEOS:  req.RequireEOS,
		DedupByText: req.Dedup,
		Seed:        req.Seed,
		BeamWidth:   req.BeamWidth,
		BatchExpand: req.Batch,
		Incremental: req.Incremental,
		Context:     ctx,
	}
	switch req.Strategy {
	case "beam":
		q.Strategy = relm.BeamSearch
	case "random":
		q.Strategy = relm.RandomSampling
	}
	if req.Tokenization == "all" {
		q.Tokenization = relm.AllTokens
	}
	if req.Edits > 0 {
		q.Preprocessors = []relm.Preprocessor{relm.EditDistance{K: req.Edits}}
	}
	return q
}

// MatchEvent is one streamed result row.
type MatchEvent struct {
	Type      string  `json:"type"` // "match"
	Index     int     `json:"index"`
	Text      string  `json:"text"`
	Prefix    string  `json:"prefix,omitempty"`
	Pattern   string  `json:"pattern"`
	LogProb   float64 `json:"logprob"`
	Canonical bool    `json:"canonical"`
}

// DoneEvent terminates a stream.
type DoneEvent struct {
	Type    string           `json:"type"` // "done"
	ID      int64            `json:"id"`
	Status  string           `json:"status"`
	Error   string           `json:"error,omitempty"`
	Matches int64            `json:"matches"`
	Engine  engine.Stats     `json:"engine"`
	Cache   cache.ScopeStats `json:"cache"`
	// TraceID names the query's span tree in GET /v1/trace/{id}, when the
	// query was sampled (DESIGN.md decision 16).
	TraceID string `json:"trace_id,omitempty"`
}

// eventWriter abstracts the two streaming framings.
type eventWriter struct {
	w     http.ResponseWriter
	flush func()
	sse   bool
	enc   *json.Encoder
}

func newEventWriter(w http.ResponseWriter, r *http.Request) *eventWriter {
	ew := &eventWriter{w: w, flush: func() {}}
	if f, ok := w.(http.Flusher); ok {
		ew.flush = f.Flush
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		ew.sse = true
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	ew.enc = json.NewEncoder(w)
	ew.enc.SetEscapeHTML(false)
	return ew
}

// event writes one frame and flushes it so clients see matches as the
// traversal produces them, not when the query ends.
func (ew *eventWriter) event(typ string, v interface{}) error {
	if ew.sse {
		if _, err := fmt.Fprintf(ew.w, "event: %s\ndata: ", typ); err != nil {
			return err
		}
		if err := ew.enc.Encode(v); err != nil { // Encode appends \n
			return err
		}
		if _, err := fmt.Fprint(ew.w, "\n"); err != nil {
			return err
		}
	} else {
		if err := ew.enc.Encode(v); err != nil {
			return err
		}
	}
	ew.flush()
	return nil
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		retryAfter(w)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if f := fault.Hit(fault.ServerSearch); f != nil && f.Failure() {
		// Injected handler fault: transient reads as a retriable outage
		// (503 + Retry-After, the same shape a drain presents), permanent as
		// a hard 500.
		if fault.IsTransient(f) {
			retryAfter(w)
			httpError(w, http.StatusServiceUnavailable, f.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, f.Error())
		return
	}
	req, m, modelName, err := s.parseRequest(w, r)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errUnknownModel) {
			code = http.StatusNotFound
		}
		httpError(w, code, err.Error())
		return
	}

	// Admission control: a bounded number of traversals may hold the device
	// at once. No queueing — overload is the client's signal to back off.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Add(1)
		retryAfter(w)
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server is at its concurrency limit (%d queries)", s.cfg.MaxConcurrent))
		return
	}

	// Budget, deadline, and execution knobs, clamped to server policy: an
	// admitted query must not be able to exceed the time or memory bounds
	// the operator configured.
	budget := req.MaxMatches
	if budget == 0 {
		budget = s.cfg.DefaultMatches
	}
	if budget > s.cfg.MaxMatches {
		budget = s.cfg.MaxMatches
	}
	deadline := s.cfg.DefaultDeadline
	// Compare in milliseconds before converting: a huge deadline_ms would
	// overflow the Duration multiplication and dodge the clamp as a
	// negative value.
	if req.DeadlineMS > 0 {
		if req.DeadlineMS >= s.cfg.MaxDeadline.Milliseconds() {
			deadline = s.cfg.MaxDeadline
		} else {
			deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		}
	}
	if req.Batch > s.cfg.MaxBatchExpand {
		req.Batch = s.cfg.MaxBatchExpand
	}
	if req.BeamWidth > s.cfg.MaxBeamWidth {
		req.BeamWidth = s.cfg.MaxBeamWidth
	}

	// The traversal context: cancelled by client disconnect (r.Context) or
	// the per-query deadline, whichever first. Search wires it down into
	// the engine, so cancellation stops node expansion, not just the
	// response.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	id := s.nextID.Add(1)
	sess := m.NewSession()
	results, err := relm.Search(sess.Model, buildQuery(req, ctx))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	defer results.Close()

	strategy := req.Strategy
	if strategy == "" {
		strategy = "shortest"
	}
	rec := &queryRecord{
		id:       id,
		model:    modelName,
		pattern:  req.Pattern,
		prefix:   req.Prefix,
		strategy: strategy,
		started:  time.Now(),
		status:   statusRunning,
		results:  results,
		session:  sess,
	}
	s.register(rec)
	// The record must not stay "running" in /v1/stats after any exit of
	// this handler, a panic from an engine bug included.
	defer func() {
		rec.mu.Lock()
		running := rec.status == statusRunning
		rec.mu.Unlock()
		if running {
			results.Close()
			rec.finish(statusError, "internal error: query handler exited mid-stream")
			s.retire(rec, statusError)
		}
	}()

	ew := newEventWriter(w, r)
	writeFailed := false
	// tr instruments each emitted frame: one "emit" span per match covers
	// encoding + flush, so a trace shows when a slow client (not the device)
	// paces the stream. Spans are per-match because the stream's trace
	// snapshot freezes the moment Next returns its terminal error.
	tr := results.Tracing()
	for i := 0; i < budget; i++ {
		match, nerr := results.Next()
		if nerr != nil {
			break
		}
		rec.matches.Add(1)
		ev := MatchEvent{
			Type:      "match",
			Index:     i,
			Text:      match.Text,
			Prefix:    match.PrefixText,
			Pattern:   match.PatternText,
			LogProb:   match.LogProb,
			Canonical: match.Canonical,
		}
		emitSpan := tr.Start(trace.RootID, "emit")
		werr := ew.event("match", ev)
		if tr != nil {
			tr.Annotate(emitSpan, "index", fmt.Sprintf("%d", i))
			tr.End(emitSpan)
		}
		if werr != nil {
			// The client went away mid-stream; stop the traversal now
			// rather than burning the device on an unread answer.
			writeFailed = true
			break
		}
	}
	results.Close()

	status, errMsg := classify(results.Err(), rec.matches.Load(), int64(budget), writeFailed)
	rec.finish(status, errMsg)
	s.retire(rec, status)

	done := DoneEvent{
		Type:    "done",
		ID:      rec.id,
		Status:  status,
		Error:   errMsg,
		Matches: rec.matches.Load(),
		Engine:  results.Stats(),
		Cache:   sess.CacheStats(),
		TraceID: results.TraceID(),
	}
	_ = ew.event("done", done)
}

// classify maps the stream's terminal condition to a wire status.
func classify(err error, matches, budget int64, writeFailed bool) (string, string) {
	switch {
	case writeFailed:
		return statusCancelled, "client disconnected"
	case err == nil:
		if matches >= budget {
			return statusBudget, ""
		}
		return statusExhausted, ""
	case errors.Is(err, context.DeadlineExceeded):
		return statusDeadline, err.Error()
	case errors.Is(err, context.Canceled):
		return statusCancelled, "client disconnected"
	default:
		return statusError, err.Error()
	}
}
