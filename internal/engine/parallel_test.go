package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/regex"
)

// parallelQuery compiles the standard bias-corpus query used across these
// tests, returning a fresh stream factory so each configuration traverses
// from scratch.
func parallelEnv(t *testing.T) (*ngramEnv, *Query) {
	t.Helper()
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" was trained in ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 48, 5000)
	if err != nil {
		t.Fatal(err)
	}
	q := &Query{
		Pattern: pat,
		Prefixes: [][]model.Token{
			env.tok.Encode("The man"),
			env.tok.Encode("The woman"),
		},
		RequireEOS: true,
	}
	return env, q
}

// attachPool attaches a fresh n-worker scoring pool to dev and returns the
// function that detaches and closes it.
func attachPool(dev *device.Device, n int) func() {
	pool := device.NewPool(n)
	dev.SetPool(pool)
	return func() {
		dev.SetPool(nil)
		pool.Close()
	}
}

// sequences drains up to n results into comparable (text, logprob) rows.
func sequences(t *testing.T, s Stream, n int) []Result {
	t.Helper()
	var out []Result
	for i := 0; i < n; i++ {
		r, err := s.Next()
		if err != nil {
			break
		}
		out = append(out, *r)
	}
	return out
}

// TestParallelDijkstraDeterminism checks the decision-6 contract: for a
// fixed batch size, the emitted result sequence is identical at any device
// worker count — the scoring pool changes wall-clock speed only.
func TestParallelDijkstraDeterminism(t *testing.T) {
	env, q := parallelEnv(t)
	run := func(devWorkers int) []Result {
		qc := *q
		qc.BatchExpand = 8
		defer attachPool(env.dev, devWorkers)()
		return sequences(t, ShortestPath(env.dev, &qc), 6)
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no results from baseline traversal")
	}
	for _, devWorkers := range []int{4, 8} {
		got := run(devWorkers)
		if len(got) != len(base) {
			t.Fatalf("devWorkers=%d: %d results, want %d", devWorkers, len(got), len(base))
		}
		for i := range base {
			if string(tokKey(got[i].Tokens())) != string(tokKey(base[i].Tokens())) || got[i].LogProb != base[i].LogProb {
				t.Fatalf("devWorkers=%d: result %d diverged from sequential order", devWorkers, i)
			}
		}
	}
}

// TestBatchingReordersOnlyTies: a match emits only from the top of the
// frontier, and costs never decrease along a path, so every match not yet
// emitted costs at least as much as the one emitted. The log-probability
// sequence is therefore the same at every BatchExpand; batching can only swap
// matches of equal cost. Checked over the first 60 results of four patterns,
// with the canonical filter on and off.
func TestBatchingReordersOnlyTies(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	prefix := env.tok.Encode("The man was trained in")
	for _, pat := range []string{
		" (trained|art|in| )+",
		" [a-e]{1,3}",
		" [a-z]+",
		" ((engineering)|(medicine)|(art))( in (art|medicine))*",
	} {
		full := compiler.CompileFull(regex.MustCompile(pat), env.tok)
		for _, filter := range []*compiler.CanonicalFilter{nil, compiler.NewCanonicalFilter(env.tok)} {
			var want []float64
			for _, batch := range []int{1, 3, 8, 64} {
				q := &Query{Pattern: full, Prefixes: [][]model.Token{prefix}, Filter: filter, MaxTokens: 8, BatchExpand: batch}
				var got []float64
				for _, r := range sequences(t, ShortestPath(env.dev, q), 60) {
					got = append(got, r.LogProb)
				}
				if batch == 1 {
					if want = got; len(want) < 20 {
						t.Fatalf("%q filter=%t: only %d results", pat, filter != nil, len(want))
					}
					continue
				}
				if !slices.Equal(got, want) {
					t.Errorf("%q filter=%t batch %d: log-probs %v, batch 1 %v", pat, filter != nil, batch, got, want)
				}
			}
		}
	}
}

func tokKey(toks []model.Token) string { return model.Key(toks) }

// TestParallelBeamDeterminism checks the same contract for beam search.
func TestParallelBeamDeterminism(t *testing.T) {
	env, q := parallelEnv(t)
	run := func(devWorkers int) []Result {
		qc := *q
		defer attachPool(env.dev, devWorkers)()
		return sequences(t, Beam(env.dev, &qc, BeamOptions{Width: 8}), 6)
	}
	base := run(1)
	if len(base) == 0 {
		t.Fatal("no results from baseline beam")
	}
	got := run(6)
	if len(got) != len(base) {
		t.Fatalf("parallel beam: %d results, want %d", len(got), len(base))
	}
	for i := range base {
		if string(tokKey(got[i].Tokens())) != string(tokKey(base[i].Tokens())) {
			t.Fatalf("parallel beam result %d diverged", i)
		}
	}
}

// TestDijkstraCancellation cancels a traversal over an unbounded language
// mid-stream and checks Next surfaces the context error instead of spinning.
func TestDijkstraCancellation(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("( (engineering|medicine|art))+")
	pat := compiler.CompileFull(char, env.tok)
	ctx, cancel := context.WithCancel(context.Background())
	q := &Query{
		Pattern:     pat,
		Prefixes:    [][]model.Token{env.tok.Encode("The man was trained in")},
		Context:     ctx,
		BatchExpand: 8,
	}
	s := ShortestPath(env.dev, q)
	if _, err := s.Next(); err != nil {
		t.Fatalf("first Next before cancel: %v", err)
	}
	cancel()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
	// The stream must keep reporting the error, not resume.
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next after cancel = %v, want context.Canceled", err)
	}
}

// TestSamplerCancellation cancels a sampling stream between draws.
func TestSamplerCancellation(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" was trained in ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 48, 5000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Query{
		Pattern:  pat,
		Prefixes: [][]model.Token{env.tok.Encode("The man")},
		Context:  ctx,
	}
	s := Sample(env.dev, q, SamplerOptions{Seed: 7})
	if _, err := s.Next(); err != nil {
		t.Fatalf("draw before cancel: %v", err)
	}
	cancel()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel = %v, want context.Canceled", err)
	}
}

// TestCancelledQueryDispatchesNothing: a query whose context is cancelled
// before the stream is built does no device work, not even its prefix
// scoring, on any strategy, and Next keeps returning context.Canceled. Each
// strategy runs on a cold device of its own.
func TestCancelledQueryDispatchesNothing(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("( (engineering|medicine|art))+")
	pat := compiler.CompileFull(char, env.tok)
	strategies := []struct {
		name string
		open func(*device.Device, *Query) Stream
	}{
		{"dijkstra", func(d *device.Device, q *Query) Stream { return ShortestPath(d, q) }},
		{"beam", func(d *device.Device, q *Query) Stream { return Beam(d, q, BeamOptions{Width: 4}) }},
		{"sampler", func(d *device.Device, q *Query) Stream { return Sample(d, q, SamplerOptions{Seed: 1}) }},
	}
	for _, st := range strategies {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		dev := countingDevice(env.lm, 32)
		s := st.open(dev, &Query{
			Pattern:  pat,
			Prefixes: [][]model.Token{env.tok.Encode("The man was trained in")},
			Context:  ctx,
		})
		for i := 0; i < 2; i++ {
			if _, err := s.Next(); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: Next #%d = %v, want context.Canceled", st.name, i+1, err)
			}
		}
		s.Close()
		if n := dev.Stats().Batches; n != 0 {
			t.Errorf("%s: cancelled query dispatched %d batches, want 0", st.name, n)
		}
	}
}

// TestSamplerParallelReproducible: attempt i draws from (seed, i) alone, so
// the sampler emits the same draws and log-probabilities at every scoring
// pool width, and a rerun repeats them.
func TestSamplerParallelReproducible(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" was trained in ((engineering)|(medicine)|(art))")
	pat, err := compiler.CompileCanonical(char, env.tok, 48, 5000)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(devWorkers int) []string {
		defer attachPool(env.dev, devWorkers)()
		q := &Query{Pattern: pat, Prefixes: [][]model.Token{env.tok.Encode("The man")}}
		return resultRows(sequences(t, Sample(env.dev, q, SamplerOptions{Seed: 42}), 12))
	}
	want := draw(1)
	if len(want) != 12 {
		t.Fatalf("%d draws at width 1, want 12", len(want))
	}
	for _, devWorkers := range []int{1, 2, 4, 8} {
		sameResults(t, fmt.Sprintf("width %d", devWorkers), draw(devWorkers), want)
	}
}

// TestStatsRaceSafe hammers Stats() from a second goroutine while a
// traversal runs on a scoring pool; the race detector validates the counters.
func TestStatsRaceSafe(t *testing.T) {
	env, q := parallelEnv(t)
	qc := *q
	qc.BatchExpand = 8
	defer attachPool(env.dev, 4)()
	s := ShortestPath(env.dev, &qc)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				_ = s.Stats()
			}
		}
	}()
	sequences(t, s, 6)
	close(done)
	wg.Wait()
	if st := s.Stats(); st.NodesExpanded == 0 || st.Emitted == 0 {
		t.Fatalf("stats not accounted: %+v", st)
	}
}
