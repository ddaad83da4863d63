package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/tokenizer"
	"repro/relm"
)

// trainTransformerOnce builds the prefix-stateful substrate the KV arena
// serves; the window-model test server (newTestServer) keeps the full path.
var trainTransformerOnce = sync.OnceValues(func() (*tokenizer.BPE, *model.Transformer) {
	lines := []string{
		"My phone number is 555 555 5555",
		"My phone number is 555 555 5555",
		"My phone number is 412 268 7100",
		"The cat sat on the mat",
	}
	tok := tokenizer.Train(lines, 200)
	lm := model.TrainTransformer(lines, tok, model.TransformerConfig{
		DModel: 16, NHeads: 2, NLayers: 1, DFF: 32, MaxSeqLen: 48, Epochs: 2, Seed: 7,
	})
	return tok, lm
})

// TestIncrementalQueryAndKVStats runs the same query with and without
// incremental decoding through the wire API on a transformer model: matches
// must be identical, and /v1/stats must report the model's KV-arena activity
// after the incremental run. The model has no logit cache: with one, the
// incremental run would find every row the full run scored resident and
// never ask the arena.
func TestIncrementalQueryAndKVStats(t *testing.T) {
	tok, lm := trainTransformerOnce()
	s := New(Config{})
	s.AddModel("tr", relm.NewModel(lm, tok, relm.ModelOptions{CacheSize: -1}))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp := postSearch(t, ts, `{"pattern": " 555 555 5555", "prefix": "My phone number is", "max_matches": 3}`)
	full, fullDone := readStream(t, resp.Body)
	resp.Body.Close()
	if fullDone == nil {
		t.Fatal("no done event on the full path")
	}

	resp = postSearch(t, ts, `{"pattern": " 555 555 5555", "prefix": "My phone number is", "max_matches": 3, "incremental": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("incremental query status %d", resp.StatusCode)
	}
	incr, incrDone := readStream(t, resp.Body)
	resp.Body.Close()
	if incrDone == nil {
		t.Fatal("no done event on the incremental path")
	}
	if len(incr) != len(full) {
		t.Fatalf("incremental returned %d matches, full %d", len(incr), len(full))
	}
	for i := range full {
		if incr[i].Text != full[i].Text || incr[i].LogProb != full[i].LogProb {
			t.Fatalf("match %d differs: %+v vs %+v", i, incr[i], full[i])
		}
	}

	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if len(stats.Models) != 1 {
		t.Fatalf("%d models in stats", len(stats.Models))
	}
	ms := stats.Models[0]
	if ms.KVStats.Hits+ms.KVStats.Misses == 0 {
		t.Fatalf("incremental query left no KV-arena activity: %+v", ms)
	}
	if ms.Nodes == 0 {
		t.Fatal("no resident KV states after an incremental query")
	}
}
