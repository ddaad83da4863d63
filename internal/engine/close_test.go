package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/compiler"
	"repro/internal/regex"
)

// TestCloseBeforeNext: a closed stream must fail fast with a cancellation
// error for every traversal strategy.
func TestCloseBeforeNext(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("((art)|(medicine))")
	dfa, err := compiler.CompileCanonical(char, env.tok, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	pat := dfa.Freeze()
	streams := map[string]Stream{
		"dijkstra": ShortestPath(env.dev, &Query{Pattern: pat}),
		"beam":     Beam(env.dev, &Query{Pattern: pat}, BeamOptions{Width: 8}),
		"sampler": Sample(env.dev, &Query{Pattern: pat},
			SamplerOptions{Seed: 1}),
	}
	for name, s := range streams {
		if err := s.Close(); err != nil {
			t.Fatalf("%s: Close: %v", name, err)
		}
		if _, err := s.Next(); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: Next after Close = %v, want context.Canceled", name, err)
		}
		// Close is idempotent.
		if err := s.Close(); err != nil {
			t.Errorf("%s: second Close: %v", name, err)
		}
	}
}

// TestExhaustionIsSticky: natural exhaustion must keep reporting
// ErrExhausted — not a cancellation error — even though the stream releases
// its derived context when it ends, and even after an explicit Close.
func TestExhaustionIsSticky(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("((art)|(medicine))")
	dfa, err := compiler.CompileCanonical(char, env.tok, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	pat := dfa.Freeze()
	for name, s := range map[string]Stream{
		"dijkstra": ShortestPath(env.dev, &Query{Pattern: pat}),
		"beam":     Beam(env.dev, &Query{Pattern: pat}, BeamOptions{Width: 8}),
	} {
		for {
			if _, err := s.Next(); err != nil {
				break
			}
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Next(); !errors.Is(err, ErrExhausted) {
				t.Fatalf("%s: Next after exhaustion = %v, want ErrExhausted", name, err)
			}
		}
		s.Close()
		if _, err := s.Next(); !errors.Is(err, ErrExhausted) {
			t.Errorf("%s: Next after exhaustion+Close = %v, want ErrExhausted", name, err)
		}
	}
}

// TestCloseHonorsParentContext: closing the stream must not disturb the
// caller's own context, and a parent cancellation surfaces as the parent's
// error.
func TestCloseHonorsParentContext(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile("((art)|(medicine))")
	dfa, err := compiler.CompileCanonical(char, env.tok, 12, 100)
	if err != nil {
		t.Fatal(err)
	}
	pat := dfa.Freeze()
	parent, cancel := context.WithCancel(context.Background())
	s := ShortestPath(env.dev, &Query{Pattern: pat, Context: parent})
	cancel()
	if _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Errorf("Next under cancelled parent = %v, want context.Canceled", err)
	}
	if parent.Err() == nil {
		t.Error("parent context should be cancelled by the test, not revived")
	}

	// And the reverse: Close must not cancel the parent.
	parent2 := context.Background()
	s2 := ShortestPath(env.dev, &Query{Pattern: pat, Context: parent2})
	s2.Close()
	if parent2.Err() != nil {
		t.Error("closing a stream must not cancel the caller's context")
	}
}

func TestValidateKnobs(t *testing.T) {
	if err := ValidateBatch(0); err != nil {
		t.Errorf("batch 0 (device default) should be valid: %v", err)
	}
	if err := ValidateBatch(16); err != nil {
		t.Errorf("batch 16 should be valid: %v", err)
	}
	if err := ValidateBatch(-1); err == nil {
		t.Error("negative batch must be rejected")
	}
	if err := ValidateParallelism(1); err != nil {
		t.Errorf("parallelism 1 should be valid: %v", err)
	}
	if err := ValidateParallelism(0); err == nil {
		t.Error("zero parallelism must be rejected")
	}
	if err := ValidateParallelism(-3); err == nil {
		t.Error("negative parallelism must be rejected")
	}
}
