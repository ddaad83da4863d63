package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
)

// The validation-job API (DESIGN.md decision 11) exposes internal/jobs over
// HTTP, alongside the ad-hoc /v1/search endpoint:
//
//	POST   /v1/jobs              — submit a sweep (suite, model, knobs)
//	GET    /v1/jobs              — list all jobs, newest first
//	GET    /v1/jobs/{id}         — one job: live progress + engine/kv/plan
//	                               stat attribution
//	DELETE /v1/jobs/{id}         — cancel (queued or running)
//	POST   /v1/jobs/{id}/resume  — re-enqueue a cancelled/failed run from
//	                               its ledger
//	GET    /v1/jobs/{id}/results — NDJSON per-item results; ?follow=1
//	                               streams new results until the job ends
//
// Submission knobs are validated by jobs.Spec.Validate — the same
// reject-don't-clamp policy the search endpoint applies via
// engine.ValidateBatch/ValidateParallelism — so a bad shard size or worker
// count fails with a 400 at submit time, never mid-run.

// EnableJobs mounts the job API backed by mgr. Models already registered on
// the server are shared into the manager's registry; later AddModel calls
// forward automatically.
func (s *Server) EnableJobs(mgr *jobs.Manager) {
	s.mu.Lock()
	s.jobsMgr = mgr
	for n, m := range s.models {
		mgr.RegisterModel(n, m)
	}
	s.mu.Unlock()
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
}

// jobsManager returns the mounted manager (nil when jobs are disabled).
func (s *Server) jobsManager() *jobs.Manager {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobsMgr
}

// jobError maps the jobs package's error classes onto HTTP statuses.
func jobError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, jobs.ErrInvalid):
		code = http.StatusBadRequest
	case errors.Is(err, jobs.ErrUnknownModel), errors.Is(err, jobs.ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, jobs.ErrQueueFull):
		code = http.StatusTooManyRequests
		retryAfter(w)
	}
	httpError(w, code, err.Error())
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager()
	if mgr == nil {
		httpError(w, http.StatusNotFound, "jobs are not enabled on this server")
		return
	}
	switch r.Method {
	case http.MethodPost:
		if s.draining.Load() {
			retryAfter(w)
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		if f := fault.Hit(fault.ServerJobs); f != nil && f.Failure() {
			if fault.IsTransient(f) {
				retryAfter(w)
				httpError(w, http.StatusServiceUnavailable, f.Error())
				return
			}
			httpError(w, http.StatusInternalServerError, f.Error())
			return
		}
		var spec jobs.Spec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return
		}
		j, err := mgr.Submit(spec)
		if err != nil {
			jobError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	case http.MethodGet:
		writeJSON(w, http.StatusOK, map[string]interface{}{"jobs": mgr.List()})
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or GET")
	}
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	mgr := s.jobsManager()
	if mgr == nil {
		httpError(w, http.StatusNotFound, "jobs are not enabled on this server")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		httpError(w, http.StatusNotFound, "job id is required")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		j, ok := mgr.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id))
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	case sub == "" && r.Method == http.MethodDelete:
		if err := mgr.Cancel(id); err != nil {
			// Cancelling a job that already ended is a conflict, not a
			// malformed request.
			if errors.Is(err, jobs.ErrInvalid) {
				httpError(w, http.StatusConflict, err.Error())
				return
			}
			jobError(w, err)
			return
		}
		j, _ := mgr.Get(id)
		writeJSON(w, http.StatusOK, j.Snapshot())
	case sub == "resume" && r.Method == http.MethodPost:
		if s.draining.Load() {
			retryAfter(w)
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		j, err := mgr.Resume(id)
		if err != nil {
			jobError(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Snapshot())
	case sub == "results" && r.Method == http.MethodGet:
		j, ok := mgr.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id))
			return
		}
		s.streamJobResults(w, r, j)
	default:
		httpError(w, http.StatusMethodNotAllowed, "unsupported job operation")
	}
}

// jobResultEvent frames one streamed per-item result.
type jobResultEvent struct {
	Type   string          `json:"type"` // "result"
	Result jobs.ItemResult `json:"result"`
}

// jobSummaryEvent terminates a result stream.
type jobSummaryEvent struct {
	Type string        `json:"type"` // "summary"
	Job  jobs.Snapshot `json:"job"`
}

// jobReader is what the results stream reads of a job: *jobs.Job in the
// server, and in the regression test a stand-in that completes between two
// reads.
type jobReader interface {
	Snapshot() jobs.Snapshot
	Results() []jobs.ItemResult
}

// streamJobResults writes the job's merged per-item results as NDJSON.
// With ?follow=1 it keeps streaming newly recorded results until the job
// reaches a terminal status (or the client disconnects); otherwise it
// snapshots what exists now. Every stream ends with a summary event.
//
// The summary is the snapshot taken *before* the last results pass, never
// one taken after it: a job records its last item and then completes, so a
// snapshot that already says "completed" guarantees the pass that follows
// sees every item, while a status read after the pass can say "completed"
// about an item the pass missed — a stream one row short of its own summary.
// The other way round is harmless: a stream may carry a row its "running"
// summary has not counted yet, and the client simply reads again.
func (s *Server) streamJobResults(w http.ResponseWriter, r *http.Request, j jobReader) {
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	emitted := map[string]bool{}
	var summary jobs.Snapshot
	for {
		summary = j.Snapshot()
		for _, res := range j.Results() {
			if emitted[res.ID] {
				continue
			}
			emitted[res.ID] = true
			if err := enc.Encode(jobResultEvent{Type: "result", Result: res}); err != nil {
				return // client went away
			}
		}
		flush()
		status := summary.Status
		terminal := status == jobs.StatusCompleted || status == jobs.StatusFailed || status == jobs.StatusCancelled
		if !follow || terminal {
			break
		}
		select {
		case <-time.After(50 * time.Millisecond):
		case <-r.Context().Done():
			return
		}
	}
	_ = enc.Encode(jobSummaryEvent{Type: "summary", Job: summary})
	flush()
}
