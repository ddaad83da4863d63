package cache

import (
	"sync"
	"testing"

	"repro/internal/model"
)

// countingLM counts how many times NextLogProbs is invoked.
type countingLM struct {
	model.Uniform
	mu      sync.Mutex
	calls   int // contexts scored (NextLogProbs calls + ScoreBatch rows)
	batches int // ScoreBatch invocations
}

func (c *countingLM) NextLogProbs(ctx []model.Token) []float64 {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	return c.Uniform.NextLogProbs(ctx)
}

// ScoreBatch counts one call per context scored, mirroring NextLogProbs.
func (c *countingLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	c.mu.Lock()
	c.calls += len(ctxs)
	c.batches++
	c.mu.Unlock()
	return model.ScoreSerial(&c.Uniform, ctxs)
}

func newCounting() *countingLM {
	return &countingLM{Uniform: model.Uniform{Vocab: 8, EOSTok: 7, SeqLen: 16}}
}

func TestCacheHit(t *testing.T) {
	inner := newCounting()
	c := New(inner, 10)
	ctx := []model.Token{1, 2, 3}
	c.NextLogProbs(ctx)
	c.NextLogProbs(ctx)
	c.NextLogProbs(ctx)
	if inner.calls != 1 {
		t.Errorf("inner called %d times, want 1", inner.calls)
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
}

func TestCacheDistinguishesContexts(t *testing.T) {
	inner := newCounting()
	c := New(inner, 10)
	c.NextLogProbs([]model.Token{1})
	c.NextLogProbs([]model.Token{2})
	c.NextLogProbs([]model.Token{1, 2})
	c.NextLogProbs(nil)
	if inner.calls != 4 {
		t.Errorf("distinct contexts should all miss: %d calls", inner.calls)
	}
}

// TestCacheEviction: at capacity, the context the window pushes out leaves
// unless the sketch counts it more often than the main list's least recent
// one, and a context that left is computed again on its next request.
func TestCacheEviction(t *testing.T) {
	inner := newCounting()
	c := New(inner, 2)               // a window of one, a main list of one
	c.NextLogProbs([]model.Token{1}) // {1}: window
	c.NextLogProbs([]model.Token{2}) // {2}: window, {1}: main
	c.NextLogProbs([]model.Token{3}) // {2} does not outcount {1}: {2} leaves
	if c.Len() != 2 {
		t.Errorf("cache len = %d, want 2", c.Len())
	}
	c.NextLogProbs([]model.Token{1})
	c.NextLogProbs([]model.Token{3})
	if inner.calls != 3 {
		t.Errorf("{1} or {3} left instead of {2}: %d calls, want 3", inner.calls)
	}
	c.NextLogProbs([]model.Token{2}) // miss again
	if inner.calls != 4 {
		t.Errorf("the dropped context was not computed again: %d calls, want 4", inner.calls)
	}
	if c.Len() != 2 {
		t.Errorf("cache len = %d, want 2", c.Len())
	}
}

func TestCacheLRUOrdering(t *testing.T) {
	inner := newCounting()
	c := New(inner, 2)
	c.NextLogProbs([]model.Token{1})
	c.NextLogProbs([]model.Token{2})
	c.NextLogProbs([]model.Token{1}) // refresh {1}
	c.NextLogProbs([]model.Token{3}) // should evict {2}, not {1}
	c.NextLogProbs([]model.Token{1}) // hit
	if inner.calls != 3 {
		t.Errorf("MoveToFront broken: %d calls, want 3", inner.calls)
	}
}

func TestCacheSharesRows(t *testing.T) {
	c := New(newCounting(), 10)
	a := c.NextLogProbs([]model.Token{1})
	if b := c.NextLogProbs([]model.Token{1}); &b[0] != &a[0] {
		t.Error("a hit returned a copy; rows are read-only and shared")
	}
}

func TestCacheDelegates(t *testing.T) {
	inner := newCounting()
	c := New(inner, 10)
	if c.VocabSize() != 8 || c.EOS() != 7 || c.MaxSeqLen() != 16 {
		t.Error("cache does not delegate model metadata")
	}
}

func TestCacheConcurrent(t *testing.T) {
	inner := newCounting()
	c := New(inner, 64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.NextLogProbs([]model.Token{g % 4, i % 16})
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}
