package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/decoding"
	"repro/internal/model"
	"repro/internal/regex"
)

// resultKey renders a Result for exact comparison: token sequences and
// probabilities must match bit for bit between representations.
func resultKey(r *Result) string {
	return fmt.Sprintf("%v|%v|%v|%v", r.Prefix, r.Pattern, r.LogProb, r.PrefixLogProb)
}

func drain(t *testing.T, s Stream, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		r, err := s.Next()
		if err != nil {
			break
		}
		out = append(out, resultKey(r))
	}
	s.Close()
	return out
}

func sameResults(t *testing.T, name string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d results vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs:\n  dfa:    %s\n  frozen: %s", name, i, a[i], b[i])
		}
	}
}

// TestEnginesFrozenEquivalence runs every traversal against the same query
// with the pattern automaton in both representations and demands
// byte-identical output streams. Patterns cover property-test territory:
// finite and cyclic languages, alternation, classes, and repetition.
func TestEnginesFrozenEquivalence(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	patterns := []string{
		" ((engineering)|(medicine)|(art))",
		" (engineering|medicine){1,2}",
		"((art)|(medicine))",
		" [a-e]{1,3}",
		"(The )?(man|woman)",
	}
	prefix := env.tok.Encode("The man was trained in")
	for _, pat := range patterns {
		char := regex.MustCompile(pat)
		tokenDFA, err := compiler.CompileCanonical(char, env.tok, 24, 2000)
		if err != nil {
			t.Fatalf("%q: %v", pat, err)
		}
		frozen := tokenDFA.Freeze()
		query := func(p automaton.Walker) *Query {
			return &Query{
				Pattern:   p,
				Prefixes:  [][]model.Token{prefix},
				MaxTokens: 8,
			}
		}

		sameResults(t, pat+"/dijkstra",
			drain(t, ShortestPath(env.dev, query(tokenDFA)), 12),
			drain(t, ShortestPath(env.dev, query(frozen)), 12))

		sameResults(t, pat+"/beam",
			drain(t, Beam(env.dev, query(tokenDFA), BeamOptions{Width: 6}), 12),
			drain(t, Beam(env.dev, query(frozen), BeamOptions{Width: 6}), 12))

		sameResults(t, pat+"/sampler",
			drain(t, Sample(env.dev, query(tokenDFA), SamplerOptions{Rng: rand.New(rand.NewSource(7))}), 6),
			drain(t, Sample(env.dev, query(frozen), SamplerOptions{Rng: rand.New(rand.NewSource(7))}), 6))

		md := must(Mass(env.dev, query(tokenDFA), MassOptions{Tolerance: 1e-6, MaxNodes: 4000}))
		mf := must(Mass(env.dev, query(frozen), MassOptions{Tolerance: 1e-6, MaxNodes: 4000}))
		if md.Lower != mf.Lower || md.Upper != mf.Upper || md.Matches != mf.Matches || md.Expanded != mf.Expanded {
			t.Fatalf("%s/mass: %+v vs %+v", pat, md, mf)
		}
	}
}

// TestFrozenEquivalenceWithRules repeats the Dijkstra check under decision
// rules and RequireEOS, where pruning interacts with edge iteration order.
func TestFrozenEquivalenceWithRules(t *testing.T) {
	env := newNgramEnv(t, biasCorpus())
	char := regex.MustCompile(" ((engineering)|(medicine)|(art))")
	tokenDFA, err := compiler.CompileCanonical(char, env.tok, 24, 2000)
	if err != nil {
		t.Fatal(err)
	}
	frozen := tokenDFA.Freeze()
	prefix := env.tok.Encode("The woman was trained in")
	query := func(p automaton.Walker) *Query {
		return &Query{
			Pattern:    p,
			Prefixes:   [][]model.Token{prefix},
			RequireEOS: true,
			MaxTokens:  8,
			Rule:       decoding.TopK{K: 40},
		}
	}
	sameResults(t, "rules/dijkstra",
		drain(t, ShortestPath(env.dev, query(tokenDFA)), 12),
		drain(t, ShortestPath(env.dev, query(frozen)), 12))
}
