package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
)

// (helpers shared with server_test.go: newTestServer, readStream)

// jobsEnv is the synthetic world the job suites draw their datasets from,
// built once per test binary (training the tokenizer and models is the
// expensive part).
var jobsEnv = sync.OnceValue(func() *experiments.Env {
	return experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
})

// newJobsServer mounts a jobs-enabled server over the shared env models.
func newJobsServer(tb testing.TB, jcfg jobs.Config) (*httptest.Server, *jobs.Manager) {
	tb.Helper()
	env := jobsEnv()
	if jcfg.Dir == "" {
		jcfg.Dir = tb.TempDir()
	}
	jcfg.Env = env
	if jcfg.MaxWorkers == 0 {
		jcfg.MaxWorkers = 8 // tests submit explicit worker counts
	}
	mgr, err := jobs.NewManager(jcfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(Config{})
	s.EnableJobs(mgr)
	s.AddModel("large", env.Large)
	ts := httptest.NewServer(s)
	tb.Cleanup(ts.Close)
	return ts, mgr
}

func postJob(tb testing.TB, ts *httptest.Server, body string) *http.Response {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

func decodeSnapshot(tb testing.TB, r io.Reader) jobs.Snapshot {
	tb.Helper()
	var snap jobs.Snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		tb.Fatal(err)
	}
	return snap
}

// waitJobStatus polls GET /v1/jobs/{id} until the job reaches want.
func waitJobStatus(tb testing.TB, ts *httptest.Server, id, want string) jobs.Snapshot {
	tb.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			tb.Fatal(err)
		}
		snap := decodeSnapshot(tb, resp.Body)
		resp.Body.Close()
		if snap.Status == want {
			return snap
		}
		terminal := snap.Status == jobs.StatusCompleted || snap.Status == jobs.StatusFailed || snap.Status == jobs.StatusCancelled
		if terminal || time.Now().After(deadline) {
			tb.Fatalf("job %s is %s (err=%q), want %s", id, snap.Status, snap.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestJobSubmitWatchResults(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Config{})
	resp := postJob(t, ts, `{"suite":"urlmatch","model":"large","shard_size":16,"workers":2}`)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	if snap.ID == "" || snap.Suite != "urlmatch" {
		t.Fatalf("bad snapshot: %+v", snap)
	}

	final := waitJobStatus(t, ts, snap.ID, jobs.StatusCompleted)
	if final.Progress.ItemsDone != final.Progress.Items || final.Progress.Items == 0 {
		t.Fatalf("progress off: %+v", final.Progress)
	}
	if final.LedgerBytes == 0 {
		t.Fatal("ledger bytes not reported")
	}

	// NDJSON results: one row per item plus a summary trailer.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if ct := rresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	rows, summary := readJobStream(t, rresp.Body)
	if len(rows) != final.Progress.Items {
		t.Fatalf("streamed %d rows, want %d", len(rows), final.Progress.Items)
	}
	if summary == nil || summary.Job.Status != jobs.StatusCompleted {
		t.Fatalf("bad summary: %+v", summary)
	}

	// The jobs list includes it.
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != snap.ID {
		t.Fatalf("list: %+v", list.Jobs)
	}

	// /v1/stats grows a jobs block.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Jobs == nil {
		t.Fatal("/v1/stats has no jobs block")
	}
	if stats.Jobs.Submitted != 1 || stats.Jobs.Completed != 1 || stats.Jobs.LedgerBytes == 0 {
		t.Fatalf("jobs stats: %+v", stats.Jobs)
	}
}

func readJobStream(tb testing.TB, r io.Reader) ([]jobs.ItemResult, *jobSummaryEvent) {
	tb.Helper()
	var rows []jobs.ItemResult
	var summary *jobSummaryEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			tb.Fatalf("bad stream line %q: %v", line, err)
		}
		switch probe.Type {
		case "result":
			var ev jobResultEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				tb.Fatal(err)
			}
			rows = append(rows, ev.Result)
		case "summary":
			var ev jobSummaryEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				tb.Fatal(err)
			}
			summary = &ev
		default:
			tb.Fatalf("unknown stream event %q", probe.Type)
		}
	}
	return rows, summary
}

// TestJobValidationRejectedAtSubmit is the satellite: bad knobs get 400s at
// submit time, unknown models 404, and the queue bound 429 — never a
// mid-run failure.
func TestJobValidationRejectedAtSubmit(t *testing.T) {
	ts, mgr := newJobsServer(t, jobs.Config{MaxActive: 1, MaxQueued: 1})
	cases := []struct {
		body string
		want int
	}{
		{`{"suite":"urlmatch","model":"large","shard_size":-1}`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"large","shard_size":1048576}`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"large","workers":-3}`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"large","checkpoint_every":-1}`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"large","max_items":-1}`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"large","priority":9999}`, http.StatusBadRequest},
		{`{"suite":"mystery","model":"large"}`, http.StatusBadRequest},
		{`{"suite":"lambada","model":"large","variant":"nope"}`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"large","bogus_knob":1}`, http.StatusBadRequest},
		{`{"suite":"urlmatch"`, http.StatusBadRequest},
		{`{"suite":"urlmatch","model":"ghost"}`, http.StatusNotFound},
	}
	for i, c := range cases {
		resp := postJob(t, ts, c.body)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("case %d (%s): got %d %s, want %d", i, c.body, resp.StatusCode, body, c.want)
		}
	}

	// Admission: with dispatch drained and the one-deep queue full, the
	// next submission must bounce with 429 — deterministically, no matter
	// how fast jobs complete.
	mgr.PauseDispatch()
	r1 := postJob(t, ts, `{"suite":"urlmatch","model":"large"}`)
	s1 := decodeSnapshot(t, r1.Body)
	r1.Body.Close()
	r2 := postJob(t, ts, `{"suite":"urlmatch","model":"large"}`)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow submit: %d, want 429", r2.StatusCode)
	}
	r2.Body.Close()
	mgr.ResumeDispatch()
	waitJobStatus(t, ts, s1.ID, jobs.StatusCompleted)
}

func TestJobCancelAndResumeOverHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Config{})
	// cancel_after_items kills the sweep partway — the HTTP analog of the
	// crash in the jobs-package resume test.
	resp := postJob(t, ts, `{"suite":"memorization","model":"large","shard_size":2,"cancel_after_items":3}`)
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()
	waitJobStatus(t, ts, snap.ID, jobs.StatusCancelled)

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs/"+snap.ID+"/resume", nil)
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if rresp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(rresp.Body)
		t.Fatalf("resume: %d %s", rresp.StatusCode, body)
	}
	rsnap := decodeSnapshot(t, rresp.Body)
	rresp.Body.Close()
	if rsnap.Resumes != 1 {
		t.Fatalf("resume count %d, want 1", rsnap.Resumes)
	}
	final := waitJobStatus(t, ts, snap.ID, jobs.StatusCompleted)
	if final.Progress.ItemsDone != final.Progress.Items {
		t.Fatalf("resumed run incomplete: %+v", final.Progress)
	}

	// DELETE on a finished job conflicts.
	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel finished job: %d, want 409", dresp.StatusCode)
	}
}

func TestJobCancelRunningOverHTTP(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Config{})
	resp := postJob(t, ts, `{"suite":"memorization","model":"large","shard_size":1}`)
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()

	// Cancel immediately: the job is queued or freshly running; both must
	// accept the DELETE (unless the run already won the race and finished,
	// which returns 409 and is equally terminal).
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+snap.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK && dresp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel: %d", dresp.StatusCode)
	}
	// The run may complete before the cancel lands; either terminal state
	// is legal, but it must terminate.
	deadline := time.Now().Add(60 * time.Second)
	for {
		gresp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		got := decodeSnapshot(t, gresp.Body)
		gresp.Body.Close()
		if got.Status == jobs.StatusCancelled || got.Status == jobs.StatusCompleted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobResultsFollowStreams verifies ?follow=1 holds the stream open
// until the job finishes and still delivers every row exactly once.
func TestJobResultsFollowStreams(t *testing.T) {
	ts, _ := newJobsServer(t, jobs.Config{})
	resp := postJob(t, ts, `{"suite":"memorization","model":"large","shard_size":1}`)
	snap := decodeSnapshot(t, resp.Body)
	resp.Body.Close()

	rresp, err := http.Get(ts.URL + "/v1/jobs/" + snap.ID + "/results?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	rows, summary := readJobStream(t, rresp.Body)
	if summary == nil {
		t.Fatal("follow stream ended without a summary")
	}
	if summary.Job.Status != jobs.StatusCompleted {
		t.Fatalf("summary status %s", summary.Job.Status)
	}
	if len(rows) != summary.Job.Progress.Items {
		t.Fatalf("follow streamed %d rows, want %d", len(rows), summary.Job.Progress.Items)
	}
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("item %s streamed %d times", id, n)
		}
	}
}

// racingJob is a job caught at the worst moment: it has recorded all but its
// last item, and it records that item and completes right after the stream's
// first read of it, whichever accessor that read is.
type racingJob struct {
	items int
	reads int
}

func (j *racingJob) done() bool {
	j.reads++
	return j.reads > 1
}

func (j *racingJob) Snapshot() jobs.Snapshot {
	snap := jobs.Snapshot{ID: "job-race", Status: jobs.StatusRunning}
	snap.Progress.Items, snap.Progress.ItemsDone = j.items, j.items-1
	if j.done() {
		snap.Status, snap.Progress.ItemsDone = jobs.StatusCompleted, j.items
	}
	return snap
}

func (j *racingJob) Results() []jobs.ItemResult {
	n := j.items - 1
	if j.done() {
		n = j.items
	}
	out := make([]jobs.ItemResult, n)
	for i := range out {
		out[i] = jobs.ItemResult{ID: "item-" + string(rune('a'+i)), OK: true}
	}
	return out
}

// TestJobResultsNeverShortOfSummary is the regression test for the stream
// that ended one row short of its summary: a job that records its last item
// and completes between the stream's two reads must not get a "completed"
// summary without that item. Polled (no follow) the stream may end on a
// "running" summary, and the next poll then sees the finished job; followed,
// it must run on to the complete one.
func TestJobResultsNeverShortOfSummary(t *testing.T) {
	s := New(Config{})
	for _, target := range []string{"/results", "/results?follow=1"} {
		j := &racingJob{items: 4}
		var summary *jobSummaryEvent
		rows := 0
		for polls := 0; polls < 3 && (summary == nil || summary.Job.Status != jobs.StatusCompleted); polls++ {
			rec := httptest.NewRecorder()
			s.streamJobResults(rec, httptest.NewRequest(http.MethodGet, target, nil), j)
			var got []jobs.ItemResult
			got, summary = readJobStream(t, rec.Body)
			if summary == nil {
				t.Fatalf("%s: stream ended without a summary", target)
			}
			rows = len(got)
			if summary.Job.Progress.ItemsDone > rows {
				t.Fatalf("%s: %s summary counts %d items, stream carried %d",
					target, summary.Job.Status, summary.Job.Progress.ItemsDone, rows)
			}
		}
		if summary.Job.Status != jobs.StatusCompleted || rows != j.items {
			t.Fatalf("%s: ended %s with %d of %d rows", target, summary.Job.Status, rows, j.items)
		}
	}
}

func TestJobsDisabledReturns404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJob(t, ts, `{"suite":"urlmatch"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("jobs on plain server: %d, want 404", resp.StatusCode)
	}
	// And /v1/stats omits the block entirely.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	raw, _ := io.ReadAll(sresp.Body)
	if bytes.Contains(raw, []byte(`"jobs"`)) {
		t.Fatalf("stats contains jobs block without EnableJobs: %s", raw)
	}
}
