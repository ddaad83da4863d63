package repro

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"weak"

	"repro/internal/model"
	"repro/relm"
)

// Memory gate (DESIGN.md decisions 4 and 12): a serving model holds at most
// as many logit rows as its cache budget. After a stream of queries —
// fused, each under its own fair-share account as the server runs them — a
// row the model computed is reachable only while the logit LRU keeps it;
// nothing on the dispatch path (the fusion queue, an idle account, a
// finished request) may hold more.

// weakRowLM scores through its model and takes a weak pointer to every row
// it computes, so a test can count how many are still reachable.
type weakRowLM struct {
	model.LanguageModel
	mu   sync.Mutex
	rows []weak.Pointer[float64]
}

func (w *weakRowLM) NextLogProbs(ctx []model.Token) []float64 {
	row := w.LanguageModel.NextLogProbs(ctx)
	p := weak.Make(&row[0])
	w.mu.Lock()
	w.rows = append(w.rows, p)
	w.mu.Unlock()
	return row
}

func (w *weakRowLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(w, ctxs) }

// live reports how many computed rows are still reachable, and how many were
// computed.
func (w *weakRowLM) live() (live, computed int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, p := range w.rows {
		if p.Value() != nil {
			live++
		}
	}
	return live, len(w.rows)
}

func TestServingRetainsOnlyCachedRows(t *testing.T) {
	const cacheSize, queries, clients = 64, 300, 2
	e := env(t)
	lm := &weakRowLM{LanguageModel: e.Large.LM}
	m := relm.NewModel(lm, e.Tok, relm.ModelOptions{CacheSize: cacheSize, ContinuousBatching: true})
	defer m.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < queries; i += clients {
				sess := m.NewSession()
				results, err := relm.Search(sess.Model, relm.SearchQuery{
					Query:    relm.QueryString{Pattern: " ([0-9]{3})", Prefix: fmt.Sprintf("Query %d reads", i)},
					Strategy: relm.ShortestPath, MaxTokens: 8,
				})
				if err != nil {
					t.Error(err)
					return
				}
				results.Take(2)
				if err := results.Err(); err != nil {
					t.Error(err)
				}
				results.Close()
			}
		}()
	}
	wg.Wait()

	runtime.GC()
	runtime.GC()
	live, computed := lm.live()
	t.Logf("%d of %d computed rows reachable after %d queries (cache %d)", live, computed, queries, cacheSize)
	if computed < 4*cacheSize {
		t.Fatalf("only %d rows computed: the queries do not overflow the cache", computed)
	}
	if live > cacheSize {
		t.Errorf("%d computed rows still reachable, want at most the cache's %d", live, cacheSize)
	}
	runtime.KeepAlive(m)
}
