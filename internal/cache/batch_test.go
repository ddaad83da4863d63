package cache

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/model"
)

func tok(ts ...model.Token) []model.Token { return ts }

func TestScoreBatchForwardsOnlyMisses(t *testing.T) {
	inner := newCounting()
	c := New(inner, 64)
	c.NextLogProbs(tok(1)) // prime one context
	lps := c.ScoreBatch([][]model.Token{tok(1), tok(2), tok(3)})
	if len(lps) != 3 {
		t.Fatalf("batch returned %d rows, want 3", len(lps))
	}
	if inner.calls != 3 { // 1 prime + 2 misses; the hit must not be forwarded
		t.Errorf("inner scored %d contexts, want 3", inner.calls)
	}
	if inner.batches != 2 { // one for the prime, one for the whole miss set
		t.Errorf("inner saw %d batch calls, want 2", inner.batches)
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 3 {
		t.Errorf("stats = %d hits / %d misses, want 1/3", hits, misses)
	}
}

func TestScoreBatchDedupesWithinBatch(t *testing.T) {
	inner := newCounting()
	c := New(inner, 64)
	ctxs := [][]model.Token{tok(5), tok(5), tok(5), tok(6), tok(5)}
	lps := c.ScoreBatch(ctxs)
	if inner.calls != 2 {
		t.Errorf("inner scored %d contexts, want 2 (duplicates must single-flight)", inner.calls)
	}
	for i, lp := range lps {
		if len(lp) != 8 {
			t.Fatalf("row %d has %d entries, want vocab size 8", i, len(lp))
		}
	}
	if c.FlightStats() != 3 {
		t.Errorf("flight count = %d, want 3 duplicate rows parked", c.FlightStats())
	}
}

// TestScoreBatchSharesRows: rows are read-only and handed out by reference.
// The miss that computes a context, a duplicate parked on its flight and a
// later hit all get the one slice the LRU stores.
func TestScoreBatchSharesRows(t *testing.T) {
	c := New(newCounting(), 64)
	lps := c.ScoreBatch([][]model.Token{tok(1), tok(1)})
	again := c.ScoreBatch([][]model.Token{tok(1)})
	if &lps[1][0] != &lps[0][0] {
		t.Error("a flight waiter got a different slice than the miss that computed it")
	}
	if &again[0][0] != &lps[0][0] {
		t.Error("a hit got a different slice than the LRU stored")
	}
}

// TestResidentCallsAllocateNoRows: answering n resident rows allocates the
// result's slice headers, never a V-sized row, on ScoreBatch's hit path and
// through the probe.
func TestResidentCallsAllocateNoRows(t *testing.T) {
	const vocab, n, runs = 4096, 8, 20
	c := New(&model.Uniform{Vocab: vocab, EOSTok: vocab - 1, SeqLen: 16}, 64)
	ctxs := scopeCtxs(n)
	c.ScoreBatch(ctxs)
	out := make([][]float64, n)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"ScoreBatch", func() { c.ScoreBatch(ctxs) }},
		{"ResidentRows", func() { clear(out); c.ResidentRows(ctxs, out) }},
	} {
		allocs := testing.AllocsPerRun(runs, tc.call)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			tc.call()
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; allocs > 3 || perCall >= vocab*8 {
			t.Errorf("%s of %d resident rows: %.0f allocations, %d bytes per call; want <= 3 and less than one %d-byte row",
				tc.name, n, allocs, perCall, vocab*8)
		}
	}
}

// TestScoreBatchSingleFlightConcurrent launches many goroutines scoring the
// same small context set; single-flight plus the LRU must produce exactly
// one inner computation per unique context. Run with -race.
func TestScoreBatchSingleFlightConcurrent(t *testing.T) {
	inner := newCounting()
	c := New(inner, 1024)
	uniq := [][]model.Token{tok(1), tok(2), tok(3), tok(4)}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c.ScoreBatch(uniq)
			}
		}()
	}
	wg.Wait()
	if inner.calls != len(uniq) {
		t.Errorf("inner scored %d contexts, want exactly %d (one per unique context)", inner.calls, len(uniq))
	}
}

// TestScoreBatchConcurrentMixed hammers overlapping batches of hot and cold
// contexts under -race, checking capacity is respected throughout.
func TestScoreBatchConcurrentMixed(t *testing.T) {
	inner := newCounting()
	c := New(inner, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.ScoreBatch([][]model.Token{
					tok(model.Token(i % 64)),
					tok(1), // hot
					tok(model.Token(g), model.Token(i%16)),
				})
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 32 {
		t.Errorf("cache exceeded capacity: %d", c.Len())
	}
}
