package relm

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestTakeRecordsCancellation: Take must stop at a real engine failure and
// Err must expose it — previously any error was conflated with exhaustion.
func TestTakeRecordsCancellation(t *testing.T) {
	m := testModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead on arrival
	results, err := Search(m, SearchQuery{
		Query:   QueryString{Pattern: "((cat)|(dog))"},
		Context: ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := results.Take(10); len(got) != 0 {
		t.Fatalf("cancelled query yielded %d matches", len(got))
	}
	if !errors.Is(results.Err(), context.Canceled) {
		t.Errorf("Err() = %v, want context.Canceled", results.Err())
	}
}

// TestErrNilAfterCleanExhaustion: draining a finite language is not an
// error condition.
func TestErrNilAfterCleanExhaustion(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{Query: QueryString{Pattern: "((cat)|(dog))"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := results.Take(10); len(got) != 2 {
		t.Fatalf("got %d matches, want 2", len(got))
	}
	if results.Err() != nil {
		t.Errorf("Err() after clean exhaustion = %v, want nil", results.Err())
	}
}

// TestCloseBeforeDraining: a closed Results fails fast.
func TestCloseBeforeDraining(t *testing.T) {
	m := testModel(t)
	for _, strategy := range []SearchStrategy{ShortestPath, BeamSearch, RandomSampling} {
		results, err := Search(m, SearchQuery{
			Query:    QueryString{Pattern: "((cat)|(dog))"},
			Strategy: strategy,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := results.Close(); err != nil {
			t.Fatalf("strategy %d: Close: %v", strategy, err)
		}
		if _, err := results.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("strategy %d: Next after Close = %v, want context.Canceled", strategy, err)
		}
		if !errors.Is(results.Err(), context.Canceled) {
			t.Errorf("strategy %d: Err() = %v, want context.Canceled", strategy, results.Err())
		}
	}
}

// closeReleasesWorkers is the goroutine-count regression for the abandoned-
// stream leak: a consumer drains part of a large query, walks away, and
// Close must unblock the pump goroutine (stuck in a long traversal) and let
// it exit.
func closeReleasesWorkers(t *testing.T, strategy SearchStrategy) {
	m := testModel(t)
	base := runtime.NumGoroutine()

	results, err := Search(m, SearchQuery{
		Query:     QueryString{Pattern: "[a-z]{1,10}"},
		Strategy:  strategy,
		MaxTokens: 12,
		MaxNodes:  1 << 30,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	first := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			_, nerr := results.Next()
			if nerr != nil {
				done <- nerr
				return
			}
			once.Do(func() { close(first) })
		}
	}()

	select {
	case <-first: // half-drained: at least one match consumed
	case <-time.After(30 * time.Second):
		t.Fatal("query produced no matches")
	}
	if err := results.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case nerr := <-done:
		if !errors.Is(nerr, context.Canceled) {
			t.Errorf("pump exited with %v, want context.Canceled", nerr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not unblock the draining goroutine")
	}

	// The pump must wind down; poll because it exits asynchronously with
	// the draining goroutine.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestCloseReleasesWorkersDijkstra(t *testing.T) { closeReleasesWorkers(t, ShortestPath) }
func TestCloseReleasesWorkersSampler(t *testing.T)  { closeReleasesWorkers(t, RandomSampling) }

// TestFilterDroppedMatchesDontConsumeDedupSlots: deferred filters run
// before dedup bookkeeping, so a dropped match neither occupies a dedup
// slot nor grows the seen map.
func TestFilterDroppedMatchesDontConsumeDedupSlots(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:       QueryString{Pattern: "((cat)|(dog))"},
		DedupByText: true,
		DeferredFilters: []func(string) bool{
			func(text string) bool { return text != "dog" },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	matches := results.Take(10)
	if len(matches) != 1 || matches[0].Text != "cat" {
		t.Fatalf("matches = %v, want [cat]", matches)
	}
	if len(results.seen) != 1 || !results.seen["cat"] {
		t.Errorf("dedup map = %v, want only the emitted match", results.seen)
	}
}

// TestDedupMapGrowthBoundedByEmissions: with every candidate filtered out,
// the dedup map must stay empty — the old order (dedup before filters)
// grew it with every distinct candidate the filters then discarded.
func TestDedupMapGrowthBoundedByEmissions(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:        QueryString{Pattern: "cat"},
		Tokenization: AllTokens, // several encodings of the same text
		DedupByText:  true,
		DeferredFilters: []func(string) bool{
			func(string) bool { return false },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := results.Take(50); len(got) != 0 {
		t.Fatalf("filter-everything query emitted %d matches", len(got))
	}
	if len(results.seen) != 0 {
		t.Errorf("dedup map holds %d filtered-out entries, want 0", len(results.seen))
	}
	if results.Err() != nil {
		t.Errorf("Err() = %v, want nil after clean exhaustion", results.Err())
	}
}

// TestDedupStillCollapsesAfterReorder: the reorder must not break dedup for
// matches that pass the filters.
func TestDedupStillCollapsesAfterReorder(t *testing.T) {
	m := testModel(t)
	results, err := Search(m, SearchQuery{
		Query:        QueryString{Pattern: "cat"},
		Tokenization: AllTokens,
		DedupByText:  true,
		DeferredFilters: []func(string) bool{
			func(string) bool { return true },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := results.Take(50); len(got) != 1 {
		t.Fatalf("dedup left %d matches, want 1", len(got))
	}
}

// TestSessionAttributesSharedCache: two sessions over one model share the
// logit cache; the second session's identical query is answered from
// entries the first one computed, and the win is attributed to the second
// session.
func TestSessionAttributesSharedCache(t *testing.T) {
	m := testModel(t)
	run := func() *Session {
		sess := m.NewSession()
		results, err := Search(sess.Model, SearchQuery{
			Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := results.Take(10); len(got) != 2 {
			t.Fatalf("got %d matches", len(got))
		}
		return sess
	}
	a := run()
	b := run()
	as, bs := a.CacheStats(), b.CacheStats()
	if as.Misses == 0 {
		t.Fatalf("cold session should miss: %+v", as)
	}
	if bs.Hits == 0 {
		t.Errorf("warm session should hit entries the cold one computed: %+v", bs)
	}
	if bs.Misses >= as.Misses {
		t.Errorf("warm session misses %d, want fewer than cold %d", bs.Misses, as.Misses)
	}
	// Sessions share one device: its counters cover both queries.
	if m.Dev.Stats().Batches == 0 {
		t.Error("shared device saw no batches")
	}
}
