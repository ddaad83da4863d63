package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"repro/internal/corpus"
	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/relm"
)

// trainOnce builds the shared tokenizer + n-gram weights one time; each test
// server wraps them in a fresh relm.Model so caches and devices are
// isolated per test.
var trainOnce = sync.OnceValues(func() (*tokenizer.BPE, *model.NGram) {
	gen := corpus.NewGenerator(42)
	lines := gen.BuildBiasCorpus(corpus.BiasCorpusConfig{SentencesPerPair: 2})
	lines = append(lines,
		"My phone number is 555 555 5555",
		"My phone number is 555 555 5555",
		"My phone number is 412 268 7100",
		"The cat sat on the mat",
		"The dog sat on the mat",
	)
	tok := tokenizer.Train(lines, 300)
	lm := model.TrainNGram(lines, tok, model.NGramConfig{Order: 6, MaxSeqLen: 64})
	return tok, lm
})

func freshModel(tb testing.TB) *relm.Model {
	tb.Helper()
	tok, lm := trainOnce()
	return relm.NewModel(lm, tok, relm.ModelOptions{})
}

func newTestServer(tb testing.TB, cfg Config) (*Server, *httptest.Server) {
	tb.Helper()
	s := New(cfg)
	s.AddModel("test", freshModel(tb))
	ts := httptest.NewServer(s)
	tb.Cleanup(ts.Close)
	return s, ts
}

func postSearch(tb testing.TB, ts *httptest.Server, body string) *http.Response {
	tb.Helper()
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// readStream decodes an NDJSON response into match and done events.
func readStream(tb testing.TB, r io.Reader) ([]MatchEvent, *DoneEvent) {
	tb.Helper()
	var matches []MatchEvent
	var done *DoneEvent
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
		case "match":
			var m MatchEvent
			if err := json.Unmarshal(line, &m); err != nil {
				tb.Fatal(err)
			}
			matches = append(matches, m)
		case "done":
			done = &DoneEvent{}
			if err := json.Unmarshal(line, done); err != nil {
				tb.Fatal(err)
			}
		default:
			tb.Fatalf("unknown event type %q", probe.Type)
		}
	}
	return matches, done
}

func getStats(tb testing.TB, ts *httptest.Server) StatsResponse {
	tb.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		tb.Fatal(err)
	}
	return sr
}

func TestSearchHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSearch(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	matches, done := readStream(t, resp.Body)
	if len(matches) != 2 {
		t.Fatalf("got %d matches, want 2", len(matches))
	}
	for _, m := range matches {
		if m.Text != "The cat" && m.Text != "The dog" {
			t.Errorf("unexpected match %q", m.Text)
		}
	}
	// Best-first order: probabilities must be non-increasing.
	if matches[1].LogProb > matches[0].LogProb+1e-9 {
		t.Error("matches out of probability order")
	}
	if done == nil || done.Status != statusExhausted {
		t.Fatalf("done = %+v, want exhausted", done)
	}
	if done.Matches != 2 || done.Engine.ModelCalls == 0 {
		t.Errorf("done stats look wrong: %+v", done)
	}
}

func TestSearchBudgetStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSearch(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":1}`)
	defer resp.Body.Close()
	matches, done := readStream(t, resp.Body)
	if len(matches) != 1 || done == nil || done.Status != statusBudget {
		t.Fatalf("matches=%d done=%+v, want 1 match with budget status", len(matches), done)
	}
}

// TestConcurrentQueriesShareCache is the acceptance e2e: two streaming
// queries against one shared model finish with correct matches and the
// shared cache's wins are attributed across queries.
func TestConcurrentQueriesShareCache(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxConcurrent: 4})

	// Expected result set, computed directly through the library.
	wantTexts := map[string]bool{"The cat": true, "The dog": true}

	body := `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5,"deadline_ms":20000}`
	type outcome struct {
		matches []MatchEvent
		done    *DoneEvent
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postSearch(t, ts, body)
			defer resp.Body.Close()
			m, d := readStream(t, resp.Body)
			results[i] = outcome{m, d}
		}(i)
	}
	wg.Wait()

	var totalMisses, totalHits, totalFlights int64
	for i, r := range results {
		if r.done == nil || r.done.Status != statusExhausted {
			t.Fatalf("query %d done = %+v", i, r.done)
		}
		if len(r.matches) != 2 {
			t.Fatalf("query %d returned %d matches", i, len(r.matches))
		}
		for _, m := range r.matches {
			if !wantTexts[m.Text] {
				t.Errorf("query %d: unexpected match %q", i, m.Text)
			}
		}
		cs := r.done.Cache
		totalMisses += cs.Misses
		totalHits += cs.Hits
		totalFlights += cs.Flights
	}
	// The two frontiers are identical: every unique context is computed at
	// most once across both queries (single-flight + shared LRU), and the
	// second visitor's rows land as hits or flights, attributed to it.
	coldMisses := coldMissBaseline(t)
	if totalMisses > coldMisses {
		t.Errorf("combined misses %d exceed one cold query's %d — cache not shared", totalMisses, coldMisses)
	}
	if totalHits+totalFlights == 0 {
		t.Error("no cross-query hits or flights attributed")
	}

	// /v1/stats reports both queries with per-query attribution.
	sr := getStats(t, ts)
	if len(sr.Queries) != 2 {
		t.Fatalf("stats lists %d queries, want 2", len(sr.Queries))
	}
	var statHits int64
	for _, q := range sr.Queries {
		if q.Status != statusExhausted {
			t.Errorf("query %d status %q", q.ID, q.Status)
		}
		statHits += q.Cache.Hits
	}
	if statHits != totalHits {
		t.Errorf("stats attribute %d hits, streams reported %d", statHits, totalHits)
	}
	if len(sr.Models) != 1 || sr.Models[0].CacheMisses == 0 {
		t.Fatalf("model stats missing shared-cache counters: %+v", sr.Models)
	}
	if ms := sr.Models[0]; ms.CacheRowBytes == 0 || ms.CacheRowBytes != int64(ms.CacheLen)*int64(ms.VocabSize)*8 {
		t.Errorf("cache_row_bytes %d, want cache_len %d × vocab %d × 8", ms.CacheRowBytes, ms.CacheLen, ms.VocabSize)
	}
}

// coldMissBaseline measures one cold query's misses on a fresh server.
func coldMissBaseline(t *testing.T) int64 {
	_, ts := newTestServer(t, Config{})
	resp := postSearch(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`)
	defer resp.Body.Close()
	_, done := readStream(t, resp.Body)
	if done == nil || done.Cache.Misses == 0 {
		t.Fatalf("cold baseline done = %+v", done)
	}
	return done.Cache.Misses
}

// TestClientDisconnectCancelsTraversal: dropping the connection mid-stream
// must cancel the engine traversal (observed via /v1/stats) and release the
// handler's goroutines.
func TestClientDisconnectCancelsTraversal(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"pattern":"[a-z]{1,10}","max_matches":1000,"deadline_ms":30000,"parallelism":4}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/search", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one streamed match, then walk away.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first match before disconnect: %v", sc.Err())
	}
	cancel()
	resp.Body.Close()

	// The server must notice, cancel the traversal, and record it.
	deadline := time.Now().Add(15 * time.Second)
	var last StatsResponse
	for {
		last = getStats(t, ts)
		if len(last.Queries) == 1 && last.Queries[0].Status == statusCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("query never reached cancelled status: %+v", last.Queries)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if last.Queries[0].Engine.NodesExpanded == 0 {
		t.Error("cancelled query should have expanded nodes before the disconnect")
	}
	// Expansion has stopped: the counters are frozen.
	s1 := getStats(t, ts).Queries[0].Engine.NodesExpanded
	time.Sleep(50 * time.Millisecond)
	if s2 := getStats(t, ts).Queries[0].Engine.NodesExpanded; s2 != s1 {
		t.Errorf("traversal still running after cancel: %d -> %d nodes", s1, s2)
	}

	// Goroutine regression: the handler and engine workers must wind down.
	// Keep-alive transport goroutines are not the leak under test; drop
	// them each round so the count converges to engine-side reality.
	gdeadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(gdeadline) {
			t.Fatalf("goroutines leaked after disconnect: %d, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDeadlineExpiresQuery: deadline_ms ends a query with the deadline
// status on an unfused server and on a fused one. Under fusion the deadline
// acts only through the query's context — the batcher serves in arrival
// order — so the query must still stop and leave no row queued.
func TestDeadlineExpiresQuery(t *testing.T) {
	for _, fused := range []bool{false, true} {
		t.Run(map[bool]string{false: "unfused", true: "fused"}[fused], func(t *testing.T) {
			var m *relm.Model
			var ts *httptest.Server
			if fused {
				m, ts = fusedTestServer(t, Config{})
			} else {
				_, ts = newTestServer(t, Config{})
			}
			resp := postSearch(t, ts,
				`{"pattern":"[a-z]{1,10}","max_matches":1000,"deadline_ms":1}`)
			defer resp.Body.Close()
			_, done := readStream(t, resp.Body)
			if done == nil || done.Status != statusDeadline {
				t.Fatalf("done = %+v, want deadline status", done)
			}
			sr := getStats(t, ts)
			if sr.ByStatus[statusDeadline] != 1 {
				t.Errorf("by_status = %v, want one deadline", sr.ByStatus)
			}
			if m != nil {
				if bs := m.BatcherStats(); bs.QueueDepth != 0 {
					t.Errorf("%d rows still queued after the deadline ended the query: %+v", bs.QueueDepth, bs)
				}
			}
		})
	}
}

// heldLM blocks its scoring calls, once armed, until release is closed, and
// closes entered at the first it blocks: a query on it holds its admission
// slot until the test lets it go. Its ScoreBatch goes through NextLogProbs.
type heldLM struct {
	model.LanguageModel
	armed            atomic.Bool
	once             sync.Once
	entered, release chan struct{}
}

func (h *heldLM) NextLogProbs(ctx []model.Token) []float64 {
	if h.armed.Load() {
		h.once.Do(func() { close(h.entered) })
		<-h.release
	}
	return h.LanguageModel.NextLogProbs(ctx)
}

func (h *heldLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(h, ctxs) }

// TestAdmissionControl: with one slot, a query that is running holds it, so a
// second is refused with 429 and counted as rejected. The first query is
// parked on a model that blocks until the test releases it, so it cannot
// finish and free the slot before the second request arrives.
func TestAdmissionControl(t *testing.T) {
	tok, lm := trainOnce()
	held := &heldLM{LanguageModel: lm, entered: make(chan struct{}), release: make(chan struct{})}
	s := New(Config{MaxConcurrent: 1})
	s.AddModel("test", relm.NewModel(held, tok, relm.ModelOptions{})) // probes the fingerprint unarmed
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	held.armed.Store(true)

	ctx, cancel := context.WithCancel(context.Background())
	body := `{"pattern":"[a-z]{1,10}","max_matches":1000,"deadline_ms":30000}`
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/search", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	first := make(chan struct{})
	go func() {
		defer close(first)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	defer func() { // let the parked query go and wait for its request to end
		cancel()
		close(held.release)
		<-first
	}()
	select {
	case <-held.entered: // the first query is scoring, so it holds the slot
	case <-first:
		t.Fatal("first query ended before it scored a row")
	}

	resp2 := postSearch(t, ts, `{"pattern":"a","max_matches":1}`)
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second query status = %d, want 429", resp2.StatusCode)
	}
	if sr := getStats(t, ts); sr.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", sr.Rejected)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		body string
		code int
	}{
		{`{"pattern":""}`, http.StatusBadRequest},                                   // missing pattern
		{`{"pattern":"a","strategy":"bogus"}`, http.StatusBadRequest},               // bad strategy
		{`{"pattern":"a","model":"nope"}`, http.StatusNotFound},                     // unknown model
		{`{"pattern":"a","batch":-1}`, http.StatusBadRequest},                       // negative batch
		{`{"pattern":"a","parallelism":-2}`, http.StatusBadRequest},                 // negative parallelism
		{`{"pattern":"a","parallelism":0,"max_matches":-5}`, http.StatusBadRequest}, // negative budget
		{`{"pattern":"(("}`, http.StatusBadRequest},                                 // regex error
		{`{"pattern":"a","deadline_ms":-1}`, http.StatusBadRequest},                 // negative deadline
		{`{"pattern":"a","edits":100}`, http.StatusBadRequest},                      // edits beyond policy cap
		{`{"pattern":"a","beam_width":-1}`, http.StatusBadRequest},                  // negative beam width
		{`{"pattern":"a","temperature":-1}`, http.StatusBadRequest},                 // inverting temperature
		{`{"pattern":"a","topp":1.5}`, http.StatusBadRequest},                       // out-of-range nucleus
		{`{"pattern":"a","strategy":"unknown model"}`, http.StatusBadRequest},       // 400, not 404: only registry misses are 404
		{`not json`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp := postSearch(t, ts, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("body %s: status = %d, want %d", c.body, resp.StatusCode, c.code)
		}
	}
	// GET on the search endpoint.
	resp, err := http.Get(ts.URL + "/v1/search")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/search = %d, want 405", resp.StatusCode)
	}
}

func TestPolicyClampsKnobsAndDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxParallelism: 2, MaxBatchExpand: 8})
	// A deadline_ms large enough to overflow Duration math must clamp to
	// MaxDeadline, not wrap negative and kill the query instantly; huge
	// execution knobs must clamp to server policy rather than fanning out.
	resp := postSearch(t, ts,
		`{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5,`+
			`"deadline_ms":10000000000000000,"parallelism":1000000,"batch":1000000}`)
	defer resp.Body.Close()
	matches, done := readStream(t, resp.Body)
	if len(matches) != 2 || done == nil || done.Status != statusExhausted {
		t.Fatalf("clamped query: %d matches, done = %+v; want 2 matches, exhausted", len(matches), done)
	}
	// Beam width clamps to policy instead of sizing the frontier.
	resp2 := postSearch(t, ts,
		`{"pattern":" ((cat)|(dog))","prefix":"The","strategy":"beam","beam_width":2000000000,"max_matches":5}`)
	defer resp2.Body.Close()
	matches2, done2 := readStream(t, resp2.Body)
	if len(matches2) != 2 || done2 == nil || done2.Status != statusExhausted {
		t.Fatalf("clamped beam query: %d matches, done = %+v", len(matches2), done2)
	}
}

func TestSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/search",
		strings.NewReader(`{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if strings.Count(text, "event: match\n") != 2 {
		t.Errorf("SSE stream should carry 2 match events:\n%s", text)
	}
	if !strings.Contains(text, "event: done\ndata: ") {
		t.Errorf("SSE stream missing done event:\n%s", text)
	}
}

func TestModelsAndHealthEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body["models"]) != 1 || body["models"][0] != "test" {
		t.Errorf("models = %v", body["models"])
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz = %d", hr.StatusCode)
	}
}

func TestRandomStrategyOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postSearch(t, ts,
		`{"pattern":" ((cat)|(dog))","prefix":"The","strategy":"random","seed":7,"max_matches":8}`)
	defer resp.Body.Close()
	matches, done := readStream(t, resp.Body)
	if len(matches) != 8 {
		t.Fatalf("random strategy streamed %d matches, want the full budget of 8", len(matches))
	}
	for _, m := range matches {
		if m.Text != "The cat" && m.Text != "The dog" {
			t.Errorf("sampled match %q escaped the language", m.Text)
		}
	}
	if done == nil || done.Status != statusBudget {
		t.Fatalf("done = %+v", done)
	}
}

func TestHistoryCapped(t *testing.T) {
	_, ts := newTestServer(t, Config{History: 3})
	for i := 0; i < 5; i++ {
		resp := postSearch(t, ts, fmt.Sprintf(`{"pattern":"cat","max_matches":%d}`, i+1))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	sr := getStats(t, ts)
	if len(sr.Queries) != 3 {
		t.Errorf("history holds %d queries, want cap 3", len(sr.Queries))
	}
	// Aggregate still covers all five.
	if sr.ByStatus[statusBudget]+sr.ByStatus[statusExhausted] != 5 {
		t.Errorf("by_status = %v, want 5 finished queries", sr.ByStatus)
	}
}

// TestHistoryReleasesPrunedRecords: a record pruned from the history is
// unreachable at once — the cap bounds what the server holds, not only what
// /v1/stats lists.
func TestHistoryReleasesPrunedRecords(t *testing.T) {
	s, ts := newTestServer(t, Config{History: 3})
	var recs []weak.Pointer[queryRecord]
	for i := 0; i < 5; i++ {
		resp := postSearch(t, ts, `{"pattern":"cat","max_matches":1}`)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s.mu.Lock()
		recs = append(recs, weak.Make(s.history[len(s.history)-1]))
		s.mu.Unlock()
	}
	runtime.GC()
	runtime.GC()
	for i, p := range recs {
		if kept := i >= len(recs)-3; (p.Value() != nil) != kept {
			t.Errorf("query %d: reachable %v, want %v (history keeps the last 3)", i, p.Value() != nil, kept)
		}
	}
}

// TestStatsReportPlanCache asserts /v1/stats surfaces the per-model plan
// and prefix caches: a repeated query must show up as a hit in both, meaning
// the server skipped compilation entirely for the repeat (DESIGN.md decision
// 9).
func TestStatsReportPlanCache(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp := postSearch(t, ts, `{"pattern":" ((cat)|(dog))","prefix":"The","max_matches":5}`)
		matches, _ := readStream(t, resp.Body)
		resp.Body.Close()
		if len(matches) != 2 {
			t.Fatalf("run %d: got %d matches", i, len(matches))
		}
	}
	sr := getStats(t, ts)
	if len(sr.Models) != 1 {
		t.Fatalf("models = %d", len(sr.Models))
	}
	ms := sr.Models[0]
	if ps := ms.PlanCacheStats; ps.Misses != 1 || ps.Hits != 2 || ps.Entries != 1 {
		t.Fatalf("plan cache: %d hits / %d misses, %d entries, want 2/1, 1", ps.Hits, ps.Misses, ps.Entries)
	}
	if ms.PrefixMisses != 1 || ms.PrefixHits != 2 || ms.PrefixEntries != 1 {
		t.Fatalf("prefix cache: %d hits / %d misses, %d entries, want 2/1, 1", ms.PrefixHits, ms.PrefixMisses, ms.PrefixEntries)
	}
}
