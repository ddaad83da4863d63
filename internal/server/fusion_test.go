package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/relm"
)

// Serving-layer coverage for continuous cross-query batching (DESIGN.md
// decision 12): the full HTTP path — admission, sessions, streaming — over
// a fused device must produce the same streams as an unfused server,
// /v1/stats must expose the batcher block, and tearing the batcher down
// under live traffic (the server drain path) must strand neither requests
// nor goroutines.

func fusedTestServer(tb testing.TB, cfg Config) (*relm.Model, *httptest.Server) {
	tb.Helper()
	tok, lm := trainOnce()
	m := relm.NewModel(lm, tok, relm.ModelOptions{
		ContinuousBatching: true,
		FusionWindow:       300 * time.Microsecond,
	})
	tb.Cleanup(m.Close)
	s := New(cfg)
	s.AddModel("test", m)
	ts := httptest.NewServer(s)
	tb.Cleanup(ts.Close)
	return m, ts
}

// fusionServerBodies is the concurrent request mix: three strategies,
// incremental on and off, two patterns.
func fusionServerBodies() []string {
	return []string{
		`{"pattern":" ([0-9]{3}) ([0-9]{3}) ([0-9]{4})","prefix":"My phone number is","max_matches":3,"batch":2}`,
		`{"pattern":" ([0-9]{3}) ([0-9]{3}) ([0-9]{4})","prefix":"My phone number is","max_matches":3,"incremental":true}`,
		`{"pattern":" ((cat)|(dog))","prefix":"The","strategy":"beam","beam_width":2,"max_matches":2}`,
		`{"pattern":" ((cat)|(dog))","prefix":"The","strategy":"random","seed":7,"max_matches":2}`,
		`{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":2}`,
		`{"pattern":" ([0-9]{3}) ([0-9]{3}) ([0-9]{4})","prefix":"My phone number is","strategy":"random","seed":11,"max_matches":2}`,
	}
}

// streamSig renders one response stream comparably: every match's index,
// text, and logprob, plus the terminal status.
func streamSig(matches []MatchEvent, done *DoneEvent) string {
	var sb strings.Builder
	for _, m := range matches {
		fmt.Fprintf(&sb, "%d|%s|%v;", m.Index, m.Text, m.LogProb)
	}
	if done != nil {
		fmt.Fprintf(&sb, "status=%s matches=%d", done.Status, done.Matches)
	}
	return sb.String()
}

// TestFusedServerByteIdenticalStreams: the same request mix, run
// sequentially on an unfused server and concurrently on a fused one, must
// stream identical results — and the fused server's /v1/stats must show the
// batcher block with real fusion, while the unfused server omits it.
func TestFusedServerByteIdenticalStreams(t *testing.T) {
	_, plain := newTestServer(t, Config{MaxConcurrent: 8})
	_, fused := fusedTestServer(t, Config{MaxConcurrent: 8})
	bodies := fusionServerBodies()

	want := make([]string, len(bodies))
	for i, body := range bodies {
		resp := postSearch(t, plain, body)
		matches, done := readStream(t, resp.Body)
		resp.Body.Close()
		if done == nil || len(matches) == 0 {
			t.Fatalf("request %d: plain server returned no stream (%+v)", i, done)
		}
		want[i] = streamSig(matches, done)
	}

	got := make([]string, len(bodies))
	errs := make([]error, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func(i int, body string) {
			defer wg.Done()
			resp, err := http.Post(fused.URL+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			matches, done := readStream(t, resp.Body)
			got[i] = streamSig(matches, done)
		}(i, body)
	}
	wg.Wait()
	for i := range bodies {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("request %d: fused stream differs\nfused: %s\nplain: %s", i, got[i], want[i])
		}
	}

	fs := getStats(t, fused)
	if len(fs.Models) != 1 || fs.Models[0].Batcher == nil {
		t.Fatalf("fused server /v1/stats missing batcher block: %+v", fs.Models)
	}
	bb := fs.Models[0].Batcher
	if bb.FusedBatches == 0 || bb.Rows == 0 || bb.MeanOccupancy <= 0 {
		t.Errorf("batcher block shows no fusion: %+v", bb)
	}
	if bb.QueueDepth != 0 {
		t.Errorf("idle server reports queued rows: %+v", bb)
	}
	// The block is relm.BatcherStats itself; its wire names are the ones
	// /v1/stats has always served.
	resp, err := http.Get(fused.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Models []struct {
			Batcher map[string]any `json:"batcher"`
		} `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"fused_batches", "fused_rows", "mean_occupancy", "multi_query_batches",
		"queue_depth", "peak_queue_depth", "window_flushes", "size_flushes"} {
		if _, ok := raw.Models[0].Batcher[key]; !ok {
			t.Errorf("/v1/stats batcher block lacks %q: %v", key, raw.Models[0].Batcher)
		}
	}
	ps := getStats(t, plain)
	if ps.Models[0].Batcher != nil {
		t.Errorf("unfused server reports a batcher block: %+v", ps.Models[0].Batcher)
	}
}

// TestBatcherShutdownDrainsWithoutLeak: closing the batcher while queries
// are mid-stream (the server drain path) must let every in-flight request
// finish — late scoring calls fall back to direct dispatch — keep serving
// new requests, and leave no scheduler or worker goroutines behind.
func TestBatcherShutdownDrainsWithoutLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m, ts := fusedTestServer(t, Config{MaxConcurrent: 8})

	const n = 6
	sigs := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := `{"pattern":" ([0-9]{3}) ([0-9]{3}) ([0-9]{4})","prefix":"My phone number is","max_matches":3,"batch":1}`
			resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			matches, done := readStream(t, resp.Body)
			if done == nil || done.Status == statusError {
				errs[i] = fmt.Errorf("stream ended badly: %+v", done)
				return
			}
			sigs[i] = streamSig(matches, done)
		}(i)
	}
	// Close the fusion scheduler while those queries are in flight.
	time.Sleep(2 * time.Millisecond)
	m.Close()
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("in-flight request %d failed across batcher shutdown: %v", i, errs[i])
		}
		if sigs[i] != sigs[0] {
			t.Errorf("request %d stream diverged across shutdown:\n%s\nvs\n%s", i, sigs[i], sigs[0])
		}
	}

	// The server keeps answering on the direct path.
	resp := postSearch(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":2}`)
	matches, done := readStream(t, resp.Body)
	resp.Body.Close()
	if done == nil || len(matches) != 2 {
		t.Fatalf("post-shutdown query failed: %d matches, done %+v", len(matches), done)
	}

	// Goroutine regression: scheduler and handlers must wind down.
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if runtime.NumGoroutine() <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after batcher shutdown: %d, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
