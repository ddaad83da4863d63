package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/server"
)

var watchEnv = sync.OnceValue(func() *experiments.Env {
	return experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
})

// newWatchServer serves the jobs API over a fresh ledger directory. The
// first rejectFirst requests for a results stream get a 503 with
// Retry-After: 0, as from a draining server; connects counts them all.
func newWatchServer(t *testing.T, rejectFirst int64) (*httptest.Server, *jobs.Manager, *atomic.Int64) {
	t.Helper()
	env := watchEnv()
	mgr, err := jobs.NewManager(jobs.Config{Dir: t.TempDir(), Env: env})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{})
	s.AddModel("large", env.Large)
	s.EnableJobs(mgr)
	var connects atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/results") && connects.Add(1) <= rejectFirst {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"server is draining"}`, http.StatusServiceUnavailable)
			return
		}
		s.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, mgr, &connects
}

// lines splits watch output into its lines.
func lines(out string) []string { return strings.Split(strings.TrimSuffix(out, "\n"), "\n") }

// TestWatchRemoteFollowsToSummary watches a urlmatch job through the server:
// a line per result, then the summary line, and a clean return once the job
// completes.
func TestWatchRemoteFollowsToSummary(t *testing.T) {
	ts, mgr, _ := newWatchServer(t, 0)
	j, err := mgr.Submit(jobs.Spec{Suite: "urlmatch", Model: "large", ShardSize: 4, MaxItems: 12})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := watchRemote(&out, ts.URL, j.ID); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	got := lines(out.String())
	if len(got) != 13 {
		t.Fatalf("watch printed %d lines, want 12 results and a summary:\n%s", len(got), out.String())
	}
	for _, l := range got[:12] {
		if !strings.HasPrefix(l, "["+j.ID+"] item ") {
			t.Fatalf("result line %q", l)
		}
	}
	if want := fmt.Sprintf("[%s] completed items 12/12", j.ID); !strings.HasPrefix(got[12], want) {
		t.Fatalf("summary line %q, want prefix %q", got[12], want)
	}
}

// TestWatchRemoteCancelledPrintsResumeHint watches a job that its kill
// switch cancels: the summary is followed by the resume hint, and watch
// returns nil, since a deliberate kill is an outcome.
func TestWatchRemoteCancelledPrintsResumeHint(t *testing.T) {
	ts, mgr, _ := newWatchServer(t, 0)
	j, err := mgr.Submit(jobs.Spec{Suite: "urlmatch", Model: "large", ShardSize: 4, MaxItems: 12, CancelAfterItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := watchRemote(&out, ts.URL, j.ID); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	got := lines(out.String())
	n := len(got)
	if n < 2 || !strings.HasPrefix(got[n-2], "["+j.ID+"] cancelled ") {
		t.Fatalf("no cancelled summary before the last line:\n%s", out.String())
	}
	if want := "cancelled; resume with: POST " + ts.URL + "/v1/jobs/" + j.ID + "/resume"; got[n-1] != want {
		t.Fatalf("last line %q, want %q", got[n-1], want)
	}
}

// TestWatchRemoteOutwaitsRejection connects while the server answers 503:
// watch backs off through doWithRetry and then follows the job to its end.
func TestWatchRemoteOutwaitsRejection(t *testing.T) {
	ts, mgr, connects := newWatchServer(t, 2)
	j, err := mgr.Submit(jobs.Spec{Suite: "urlmatch", Model: "large", ShardSize: 4, MaxItems: 12})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := watchRemote(&out, ts.URL, j.ID); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	if n := connects.Load(); n != 3 {
		t.Fatalf("%d connects, want 2 rejected and 1 followed", n)
	}
	got := lines(out.String())
	if !strings.HasPrefix(got[len(got)-1], "["+j.ID+"] completed items 12/12") {
		t.Fatalf("watch after a 503 did not follow to the summary:\n%s", out.String())
	}
}
