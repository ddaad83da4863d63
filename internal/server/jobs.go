package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

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
//	GET    /v1/jobs/{id}/results — NDJSON per-item results in ledger
//	                               order and a summary; ?follow=1 streams
//	                               each new result until the job ends
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
	s.mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) { s.handleJobs(w, r, mgr) })
	s.mux.HandleFunc("/v1/jobs/", func(w http.ResponseWriter, r *http.Request) { s.handleJobByID(w, r, mgr) })
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

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, mgr *jobs.Manager) {
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

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request, mgr *jobs.Manager) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		httpError(w, http.StatusNotFound, "job id is required")
		return
	}
	switch {
	case (sub == "" || sub == "results") && r.Method == http.MethodGet:
		j, ok := mgr.Get(id)
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("no such job %q", id))
		} else if sub == "" {
			writeJSON(w, http.StatusOK, j.Snapshot())
		} else {
			s.streamJobResults(w, r, j)
		}
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

// streamJobResults writes the job's per-item results as NDJSON in ledger
// order — a resumed job's replayed results first, then the live ones — and
// ends the stream with a summary event. Each pass is one jobs.Job.Since read,
// so the rows and the summary come from one hold of the job's fold: the
// summary counts exactly the rows the stream delivered. With ?follow=1 the
// stream waits for the job's next applied record or status change (or for
// the client to go away) and streams until the job ends; otherwise it
// carries what exists now.
func (s *Server) streamJobResults(w http.ResponseWriter, r *http.Request, j *jobs.Job) {
	follow := r.URL.Query().Get("follow") == "1"
	w.Header().Set("Content-Type", "application/x-ndjson")
	flush := func() {}
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)

	for n := 0; ; {
		results, summary, wake := j.Since(n, follow)
		for _, res := range results {
			if err := enc.Encode(jobResultEvent{Type: "result", Result: res}); err != nil {
				return // client went away
			}
		}
		n += len(results)
		if wake == nil {
			_ = enc.Encode(jobSummaryEvent{Type: "summary", Job: summary})
			flush()
			return
		}
		flush()
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}
