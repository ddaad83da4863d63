package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/jobs"
)

// matchRec is one streamed search match as the client saw it. Verification
// compares the sequence with what a direct relm.Search produces.
type matchRec struct {
	Text    string
	LogProb float64
}

// opResult is what one op looked like from the client side.
type opResult struct {
	op    *op
	began time.Time         // when the request was written
	total time.Duration     // request write → terminal event parsed
	ttfm  time.Duration     // request write → first match / item-result line parsed
	rows  []matchRec        // search ops
	items []jobs.ItemResult // job ops
	// program-reported counters carried by the terminal event
	modelCalls int64
	status     string
	jobID      string
	itemsDone  int    // job ops: items the summary says were recorded
	refetched  bool   // job ops: a finished job's results came up short and were read again
	rejected   bool   // 429 or 503
	fail       string // non-empty: why the op counts as failed
	// ownCalls is how many decorated model calls ran during the op. It is the
	// op's own count only when one client drives the stack (-sensitivity).
	ownCalls int64
}

// delivered is how many rows the stream carried before its terminal event.
func (r *opResult) delivered() int { return len(r.rows) + len(r.items) }

// client is one closed-loop caller: one goroutine, one keep-alive
// connection. Buffers are reused across ops so the client's share of
// allocs_per_op stays small and constant.
type client struct {
	base string
	hc   *http.Client
	br   *bufio.Reader
	gaps []time.Duration // gaps between successive streamed rows, all ops
	// follow makes job ops read the server's follow=1 stream instead of
	// polling (the per-layer pass's jobs.follow_ms_per_job).
	follow bool
}

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
		br: bufio.NewReaderSize(nil, 16<<10),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// streamEvent covers every line of both streams: search match/done events
// and job result/summary events.
type streamEvent struct {
	Type    string  `json:"type"`
	Text    string  `json:"text"`
	LogProb float64 `json:"logprob"`
	Status  string  `json:"status"`
	Error   string  `json:"error"`
	Matches int64   `json:"matches"`
	Engine  struct {
		ModelCalls int64
	} `json:"engine"`
	Result *jobs.ItemResult `json:"result"`
	Job    *jobs.Snapshot   `json:"job"`
}

func (c *client) do(o *op) opResult {
	if o.job != nil {
		return c.doJob(o)
	}
	return c.doSearch(o)
}

// readStream parses an NDJSON body line by line, timestamping each row line
// against t0 and checking the terminal event's status. It reads to EOF so
// the connection returns to the keep-alive pool.
func (c *client) readStream(body io.Reader, t0 time.Time, res *opResult, rowType, termType string) {
	c.br.Reset(body)
	var last time.Time
	terminal := false
	for {
		line, err := c.br.ReadSlice('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev streamEvent
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				res.fail = fmt.Sprintf("bad stream line: %v", jerr)
				break
			}
			now := time.Now()
			switch ev.Type {
			case rowType:
				if res.delivered() == 0 {
					res.ttfm = now.Sub(t0)
				} else {
					c.gaps = append(c.gaps, now.Sub(last))
				}
				last = now
				if ev.Result != nil {
					res.items = append(res.items, *ev.Result)
				} else {
					res.rows = append(res.rows, matchRec{Text: ev.Text, LogProb: ev.LogProb})
				}
			case termType:
				res.total = now.Sub(t0)
				terminal = true
				if ev.Job != nil {
					res.status = ev.Job.Status
					res.itemsDone = ev.Job.Progress.ItemsDone
					res.modelCalls = ev.Job.Engine.ModelCalls
					// A snapshot of a job still queued or running is not a
					// failure; one that ended badly, or short, is.
					ended := ev.Job.Status == jobs.StatusFailed || ev.Job.Status == jobs.StatusCancelled
					short := ev.Job.Status == jobs.StatusCompleted && ev.Job.Progress.ItemsDone != ev.Job.Progress.Items
					if ended || short || ev.Job.Quarantined != 0 {
						res.fail = fmt.Sprintf("job ended %s with %d/%d items, %d quarantined: %s",
							ev.Job.Status, ev.Job.Progress.ItemsDone, ev.Job.Progress.Items, ev.Job.Quarantined, ev.Job.Error)
					}
				} else {
					res.status = ev.Status
					res.modelCalls = ev.Engine.ModelCalls
					if ev.Status != "budget" && ev.Status != "exhausted" {
						res.fail = fmt.Sprintf("query ended %s: %s", ev.Status, ev.Error)
					}
				}
			}
		}
		if err != nil {
			if err != io.EOF && res.fail == "" {
				res.fail = fmt.Sprintf("stream read: %v", err)
			}
			break
		}
	}
	if !terminal && res.fail == "" {
		res.fail = "stream ended without a terminal event"
	}
}

// refuse records a non-success HTTP status as a failed op.
func refuse(res *opResult, resp *http.Response, want int) bool {
	if resp.StatusCode == want {
		return false
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	res.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
	res.fail = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	return true
}

func (c *client) doSearch(o *op) opResult {
	t0 := time.Now()
	res := opResult{op: o, began: t0}
	resp, err := c.hc.Post(c.base+"/v1/search", "application/json", bytes.NewReader(o.body))
	if err != nil {
		res.fail = err.Error()
		return res
	}
	defer resp.Body.Close()
	if refuse(&res, resp, http.StatusOK) {
		return res
	}
	c.readStream(resp.Body, t0, &res, "match", "done")
	if res.fail == "" && res.delivered() < o.minRows {
		res.fail = fmt.Sprintf("%d matches, want at least %d", res.delivered(), o.minRows)
	}
	return res
}

// pollEvery is how long a job op waits between two reads of the job's
// results. The server's own follow=1 stream looks every 50 ms, which rounds
// every job's latency up to a multiple of 50 ms and hides the job path's
// cost until a job crosses a tick; reading the snapshot stream every 2 ms
// instead lets the op's time follow the job's.
const pollEvery = 2 * time.Millisecond

// doJob submits a job and reads GET /v1/jobs/{id}/results — every stream is
// the results recorded so far and a summary carrying the job's status —
// until the summary is terminal and the results are all there.
func (c *client) doJob(o *op) opResult {
	t0 := time.Now()
	res := opResult{op: o, began: t0}
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(o.body))
	if err != nil {
		res.fail = err.Error()
		return res
	}
	if refuse(&res, resp, http.StatusAccepted) {
		resp.Body.Close()
		return res
	}
	var snap jobs.Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	_, _ = io.Copy(io.Discard, resp.Body) // drain to EOF so the connection is reused
	resp.Body.Close()
	if err != nil {
		res.fail = fmt.Sprintf("bad submit reply: %v", err)
		return res
	}
	res.jobID = snap.ID
	url := c.base + "/v1/jobs/" + snap.ID + "/results"
	if c.follow {
		url += "?follow=1"
	}
	for {
		ttfm := res.ttfm
		res.items = res.items[:0] // each stream starts from the first result
		if !c.readResults(url, t0, &res) {
			return res
		}
		if ttfm > 0 {
			res.ttfm = ttfm // the first result was seen by an earlier read
		}
		done := res.status == jobs.StatusCompleted // any other ending failed the op in readStream
		if done && len(res.items) >= res.itemsDone {
			break
		}
		if done {
			// The handler reads the result list and then the status; a job
			// that records its last item and completes between the two reads
			// ends the stream short of its own summary. A careful client
			// reads the finished job's results again.
			res.refetched = true
			continue
		}
		time.Sleep(pollEvery)
	}
	if res.delivered() < o.minRows {
		res.fail = fmt.Sprintf("%d item results, want at least %d", res.delivered(), o.minRows)
	}
	return res
}

// readResults reads one results stream into res; false means the op failed.
func (c *client) readResults(url string, t0 time.Time, res *opResult) bool {
	resp, err := c.hc.Get(url)
	if err != nil {
		res.fail = err.Error()
		return false
	}
	defer resp.Body.Close()
	if refuse(res, resp, http.StatusOK) {
		return false
	}
	c.readStream(resp.Body, t0, res, "result", "summary")
	return res.fail == ""
}
