package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
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

// getBody reads one whole response body within a minute; it is safe off the
// test goroutine.
func getBody(url string) ([]byte, error) {
	resp, err := (&http.Client{Timeout: time.Minute}).Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// streamEnded reports whether a results stream's last line is the summary of
// a job that has ended.
func streamEnded(body []byte) bool {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var ev jobSummaryEvent
	if json.Unmarshal(lines[len(lines)-1], &ev) != nil || ev.Type != "summary" {
		return false
	}
	st := ev.Job.Status
	return st == jobs.StatusCompleted || st == jobs.StatusFailed || st == jobs.StatusCancelled
}

// checkStream parses one results stream and fails unless it ends in a
// summary that counts exactly the rows the stream delivered.
func checkStream(tb testing.TB, what string, body []byte) ([]jobs.ItemResult, jobs.Snapshot) {
	tb.Helper()
	rows, summary := readJobStream(tb, bytes.NewReader(body))
	if summary == nil {
		tb.Fatalf("%s: stream ended without a summary", what)
	}
	if summary.Job.Progress.ItemsDone != len(rows) {
		tb.Fatalf("%s: %s summary counts %d items, stream carried %d",
			what, summary.Job.Status, summary.Job.Progress.ItemsDone, len(rows))
	}
	return rows, summary.Job
}

// checkComplete fails unless a completed job's stream carries every item
// exactly once.
func checkComplete(tb testing.TB, what string, rows []jobs.ItemResult, snap jobs.Snapshot) {
	tb.Helper()
	if snap.Status != jobs.StatusCompleted || len(rows) != snap.Progress.Items || len(rows) == 0 {
		tb.Fatalf("%s: ended %s with %d of %d rows", what, snap.Status, len(rows), snap.Progress.Items)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.ID] {
			tb.Fatalf("%s: item %s streamed twice", what, r.ID)
		}
		seen[r.ID] = true
	}
}

// followJob reads a job's whole follow=1 stream.
func followJob(tb testing.TB, ts *httptest.Server, id string) ([]jobs.ItemResult, jobs.Snapshot) {
	tb.Helper()
	body, err := getBody(ts.URL + "/v1/jobs/" + id + "/results?follow=1")
	if err != nil {
		tb.Fatal(err)
	}
	return checkStream(tb, id+" follow", body)
}

// TestJobResultsNeverShortOfSummary is the regression test for the stream
// that ended one row short of its summary. Twenty two-worker memorization
// jobs are read while they queue, run and finish, each by a follower from the start and
// by plain reads repeated until one sees the job end: every stream's summary
// counts exactly the rows that stream delivered, every stream is a prefix of
// the job's completed stream (ledger order does not change under a reader),
// and a completed stream carries every item once. A resumed job streams its
// replayed results, in the cancelled run's order, before the live ones.
func TestJobResultsNeverShortOfSummary(t *testing.T) {
	ts, mgr := newJobsServer(t, jobs.Config{MaxActive: 4, MaxQueued: 32})
	mgr.PauseDispatch() // every reader starts while its job is queued
	const nJobs = 20
	ids := make([]string, nJobs)
	for i := range ids {
		resp := postJob(t, ts, `{"suite":"memorization","model":"large","shard_size":2,"workers":2,"max_items":12}`)
		if resp.StatusCode != http.StatusAccepted {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit %d: %d %s", i, resp.StatusCode, body)
		}
		ids[i] = decodeSnapshot(t, resp.Body).ID
		resp.Body.Close()
	}

	follows := make([][]byte, nJobs)
	polls := make([][][]byte, nJobs)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(2)
		go func() {
			defer wg.Done()
			body, err := getBody(ts.URL + "/v1/jobs/" + id + "/results?follow=1")
			if err != nil {
				t.Error(err)
			}
			follows[i] = body
		}()
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(60 * time.Second)
			for time.Now().Before(deadline) {
				body, err := getBody(ts.URL + "/v1/jobs/" + id + "/results")
				if err != nil {
					t.Error(err)
					return
				}
				polls[i] = append(polls[i], body)
				if streamEnded(body) {
					return
				}
			}
			t.Errorf("job %s did not end", id)
		}()
	}
	mgr.ResumeDispatch()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, id := range ids {
		final, snap := checkStream(t, id+" follow", follows[i])
		checkComplete(t, id+" follow", final, snap)
		for p, body := range polls[i] {
			what := fmt.Sprintf("%s read %d", id, p)
			rows, _ := checkStream(t, what, body)
			if len(rows) > len(final) || !slices.Equal(rows, final[:len(rows)]) {
				t.Fatalf("%s: %d rows are not a prefix of the completed stream", what, len(rows))
			}
		}
		rows, snap := checkStream(t, id+" last read", polls[i][len(polls[i])-1])
		checkComplete(t, id+" last read", rows, snap)
	}

	// A cancelled run, then its resume: the resumed stream replays the
	// cancelled run's results in its order before any live one.
	resp := postJob(t, ts, `{"suite":"memorization","model":"large","shard_size":2,"workers":2,"max_items":12,"cancel_after_items":5}`)
	id := decodeSnapshot(t, resp.Body).ID
	resp.Body.Close()
	replayed, snap := followJob(t, ts, id)
	if snap.Status != jobs.StatusCancelled || len(replayed) < 5 || len(replayed) >= snap.Progress.Items {
		t.Fatalf("killed run ended %s with %d of %d rows", snap.Status, len(replayed), snap.Progress.Items)
	}
	rresp, err := http.Post(ts.URL+"/v1/jobs/"+id+"/resume", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume: %d", rresp.StatusCode)
	}
	resumed, snap := followJob(t, ts, id)
	checkComplete(t, id+" resumed", resumed, snap)
	if !slices.Equal(resumed[:len(replayed)], replayed) {
		t.Fatalf("resumed stream does not start with the %d replayed results", len(replayed))
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
