package relm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/regex"
	"repro/internal/rewrite"
)

func TestPlanCacheHitOnRepeatQuery(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "(cat)|(dog)"}}

	p1, err := Explain(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if p1.PlanCacheHit {
		t.Error("first query must be a cache miss")
	}
	s1 := m.PlanCacheStats()
	if s1.Misses != 1 || s1.Hits != 0 || s1.Entries != 1 {
		t.Fatalf("after first query: %+v", s1)
	}
	if s1.CompileTime <= 0 {
		t.Error("miss must record compile time")
	}

	p2, err := Explain(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if !p2.PlanCacheHit {
		t.Error("repeat query must hit the plan cache")
	}
	s2 := m.PlanCacheStats()
	if s2.Misses != 1 || s2.Hits != 1 {
		t.Fatalf("after repeat query: %+v", s2)
	}
	// The benchmark-gate property: a cached repeat spends ~0 time compiling —
	// the cumulative compile clock must not advance on a hit.
	if s2.CompileTime != s1.CompileTime {
		t.Errorf("hit advanced the compile clock: %v -> %v", s1.CompileTime, s2.CompileTime)
	}
	// The cached plan must describe the same automaton.
	if p1.TokenStates != p2.TokenStates || p1.TokenEdges != p2.TokenEdges {
		t.Errorf("cached plan differs: %+v vs %+v", p1, p2)
	}
}

func TestPlanCacheSearchSharesCompiledPlan(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "The (cat|dog) sat on the mat"}}
	for i := 0; i < 3; i++ {
		results, err := Search(m, q)
		if err != nil {
			t.Fatal(err)
		}
		matches := results.Take(5)
		results.Close()
		if len(matches) != 2 {
			t.Fatalf("run %d: got %d matches, want 2", i, len(matches))
		}
	}
	s := m.PlanCacheStats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("3 identical searches should compile once: %+v", s)
	}
}

func TestPlanCacheKeySeparatesQueries(t *testing.T) {
	m := testModel(t)
	base := SearchQuery{Query: QueryString{Pattern: "(cat)|(dog)"}}
	variants := []SearchQuery{
		base,
		{Query: QueryString{Pattern: "(cat)|(dog)"}, Tokenization: AllTokens},
		{Query: QueryString{Pattern: "(cat)|(dog)"}, Preprocessors: []Preprocessor{PrependLiteral{Lit: "a "}}},
		{Query: QueryString{Pattern: "(cat)|(dogs)"}},
	}
	for _, q := range variants {
		if _, err := Explain(m, q); err != nil {
			t.Fatal(err)
		}
	}
	s := m.PlanCacheStats()
	if s.Misses != int64(len(variants)) {
		t.Fatalf("each distinct compile input must miss once: %+v", s)
	}
	if s.Entries != len(variants) {
		t.Fatalf("entries = %d, want %d", s.Entries, len(variants))
	}
	// Prefix and traversal knobs are NOT part of the compiled plan: varying
	// them must hit.
	for _, q := range []SearchQuery{
		{Query: QueryString{Pattern: "(cat)|(dog)", Prefix: "The "}},
		{Query: QueryString{Pattern: "(cat)|(dog)"}, Strategy: BeamSearch, BeamWidth: 4},
		{Query: QueryString{Pattern: "(cat)|(dog)"}, TopK: 7},
	} {
		if _, err := Explain(m, q); err != nil {
			t.Fatal(err)
		}
	}
	s2 := m.PlanCacheStats()
	if s2.Misses != s.Misses {
		t.Fatalf("prefix/strategy/rule knobs must not force recompilation: %+v", s2)
	}
}

// TestPlanCacheLRUEviction: the plan cache is an lru.Map like the logit
// cache. At capacity the plan its window pushes out leaves unless requested
// more often than the main list's least recent plan, and a plan that left is
// compiled again.
func TestPlanCacheLRUEviction(t *testing.T) {
	m := testModel(t)
	m.plans = newPlanCache[*compiled](2) // a window of one, a main list of one
	explain := func(pat string) {
		t.Helper()
		if _, err := Explain(m, SearchQuery{Query: QueryString{Pattern: pat}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, pat := range []string{"cat", "dog", "mat"} {
		explain(pat)
	}
	s := m.PlanCacheStats()
	if s.Entries != 2 {
		t.Fatalf("entries = %d, want cap 2", s.Entries)
	}
	// "dog" did not outcount "cat": it left, and "cat" and "mat" hit.
	explain("cat")
	explain("mat")
	if s2 := m.PlanCacheStats(); s2.Misses != 3 || s2.Hits != 2 {
		t.Fatalf("cat or mat left instead of dog: %+v", s2)
	}
	explain("dog")
	if s3 := m.PlanCacheStats(); s3.Misses != 4 || s3.Entries != 2 {
		t.Fatalf("the dropped plan must recompile: %+v", s3)
	}
}

func TestPlanCacheSingleFlight(t *testing.T) {
	m := testModel(t)
	const workers = 16
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results, err := Search(m, SearchQuery{Query: QueryString{Pattern: " ([0-9]{3}) ([0-9]{3})"}})
			if err != nil {
				errs[i] = err
				return
			}
			results.Take(2)
			results.Close()
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	s := m.PlanCacheStats()
	if s.Misses != 1 {
		t.Fatalf("concurrent identical queries must compile once (single-flight): %+v", s)
	}
	if s.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, workers-1)
	}
}

// TestConcurrentSearchSharesFrozenPlan drives many goroutines through one
// shared compiled plan end to end and checks they all see identical results —
// the -race companion to the automaton-level shared-traversal test, through
// the full stack (plan cache -> shared automaton -> engine).
func TestConcurrentSearchSharesFrozenPlan(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "The (cat|dog) sat on the mat"}}
	// Warm the cache so every goroutine traverses the same plan.
	if _, err := Explain(m, q); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	got := make([][]string, workers)
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results, err := Search(m, q)
			if err != nil {
				errs[i] = err
				return
			}
			defer results.Close()
			for _, match := range results.Take(5) {
				got[i] = append(got[i], fmt.Sprintf("%s@%.6f", match.Text, match.LogProb))
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if strings.Join(got[i], "|") != strings.Join(got[0], "|") {
			t.Fatalf("worker %d diverged:\n%v\nvs\n%v", i, got[i], got[0])
		}
	}
	if len(got[0]) != 2 {
		t.Fatalf("got %d matches, want 2", len(got[0]))
	}
}

// opaquePreprocessor lacks a PlanKey, so queries using it must bypass the
// cache rather than collide on an under-specified key.
type opaquePreprocessor struct{}

func (opaquePreprocessor) Transform(d *automaton.DFA) (*automaton.DFA, error) { return d, nil }
func (opaquePreprocessor) Name() string                                       { return "opaque" }

func TestPlanCacheBypassForUnkeyedPreprocessor(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{
		Query:         QueryString{Pattern: "cat"},
		Preprocessors: []Preprocessor{opaquePreprocessor{}},
	}
	for i := 0; i < 2; i++ {
		if _, err := Explain(m, q); err != nil {
			t.Fatal(err)
		}
	}
	s := m.PlanCacheStats()
	if s.Bypassed != 2 || s.Misses != 0 || s.Entries != 0 {
		t.Fatalf("unkeyed preprocessor must bypass the cache: %+v", s)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	m := testModel(t)
	m.plans = nil // as ModelOptions{PlanCacheSize: -1} arranges
	for i := 0; i < 2; i++ {
		p, err := Explain(m, SearchQuery{Query: QueryString{Pattern: "cat"}})
		if err != nil {
			t.Fatal(err)
		}
		if p.PlanCacheHit {
			t.Error("disabled cache cannot hit")
		}
	}
	if s := m.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("disabled cache must report zero stats: %+v", s)
	}
}

func TestSessionsShareModelPlanCache(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{Query: QueryString{Pattern: "(cat)|(dog)"}}
	for i := 0; i < 3; i++ {
		sess := m.NewSession()
		results, err := Search(sess.Model, q)
		if err != nil {
			t.Fatal(err)
		}
		results.Take(2)
		results.Close()
	}
	s := m.PlanCacheStats()
	if s.Misses != 1 || s.Hits != 2 {
		t.Fatalf("sessions must share the model's plan cache: %+v", s)
	}
}

// inflatePreprocessor returns a language-equivalent but non-minimal
// automaton (the start state is duplicated), standing in for preprocessors
// whose constructions do not minimize. It exercises the compile pipeline's
// minimization boundary.
type inflatePreprocessor struct{}

func (inflatePreprocessor) Name() string    { return "inflate" }
func (inflatePreprocessor) PlanKey() string { return "inflate" }
func (inflatePreprocessor) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	n := d.NumStates()
	b := automaton.NewBuilder(n+1, d.NumEdges()+len(d.Edges(d.Start())))
	for i := range n + 1 {
		s := i
		if i == n {
			s = d.Start() // state n duplicates the start state, and starts
		}
		for _, e := range d.Edges(s) {
			b.Edge(e.Sym, e.To)
		}
		b.EndState(d.Accepting(s))
	}
	return b.Build(n), nil
}

// TestPlanMinimizesTokenAutomaton asserts the satellite claim: compilePattern
// minimizes before token compilation, so plan state counts shrink relative
// to compiling the preprocessor's raw (non-minimal) output — which is what
// the old pipeline did.
func TestPlanMinimizesTokenAutomaton(t *testing.T) {
	m := testModel(t)
	q := SearchQuery{
		Query:         QueryString{Pattern: "(the cat )*sat"},
		Tokenization:  AllTokens,
		Preprocessors: []Preprocessor{inflatePreprocessor{}},
	}
	p, err := Explain(m, q)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild what the pre-minimization pipeline produced: the inflated char
	// automaton compiled to tokens directly.
	char := regex.MustCompile(q.Query.Pattern)
	inflated, err := inflatePreprocessor{}.Transform(char)
	if err != nil {
		t.Fatal(err)
	}
	raw := compiler.CompileFull(inflated, m.Tok)
	if p.TokenStates >= raw.NumStates() {
		t.Fatalf("plan token automaton not minimized: %d states, raw pipeline %d", p.TokenStates, raw.NumStates())
	}
	if p.CharStates >= inflated.NumStates() {
		t.Fatalf("plan char automaton not minimized: %d states, inflated %d", p.CharStates, inflated.NumStates())
	}
}

// fixedLanguage is a preprocessor that ignores its input and returns the
// automaton automaton.FromStrings builds for its words.
type fixedLanguage []string

func (f fixedLanguage) Name() string { return "fixed-language" }
func (f fixedLanguage) Transform(*automaton.DFA) (*automaton.DFA, error) {
	return automaton.FromStrings(f), nil
}

// TestPlanIsAFunctionOfTheLanguage: Minimize numbers the minimal automaton
// canonically, so the plan — every state number, edge and accepting
// bit of the char and token automata — is identical whichever route built the
// language: two regexes, a string list, a preprocessor chain through Concat
// and Difference, a non-minimal automaton. So is a compiled prefix: its byte
// automaton, encoded strings and walk counts.
func TestPlanIsAFunctionOfTheLanguage(t *testing.T) {
	m := testModel(t)
	words := fixedLanguage{"The dog ran", "The cat sat", "The cat ran", "The dog sat", "The cow sat", "The cow ran"}
	routes := []SearchQuery{
		{Query: QueryString{Pattern: "The ((cat)|(dog)|(cow)) ((sat)|(ran))"}},
		{Query: QueryString{Pattern: "(The dog (ran|sat))|(The c(at|ow) sat)|(The c(ow|at) ran)"}},
		{Query: QueryString{Pattern: "x"}, Preprocessors: []Preprocessor{words}},
		{Query: QueryString{Pattern: "((cat)|(cow)|(dog)|(pig)) ((ran)|(sat))"}, Preprocessors: []Preprocessor{
			PrependLiteral{Lit: "The "}, RemoveWords{Words: []string{"The pig sat", "The pig ran"}}}},
		{Query: QueryString{Pattern: "The (cat|dog|cow) (sat|ran)"}, Preprocessors: []Preprocessor{inflatePreprocessor{}}},
	}
	for _, edits := range []int{0, 1} {
		for _, tokenization := range []TokenizationStrategy{AllTokens, CanonicalTokens} {
			var want *compiled
			for i, q := range routes {
				q.Tokenization = tokenization
				if edits > 0 {
					q.Preprocessors = append(append([]Preprocessor(nil), q.Preprocessors...), EditDistance{K: edits})
				}
				applyDefaults(&q)
				got, err := compilePattern(m, q, enumerateLimit)
				if err != nil {
					t.Fatalf("route %d: %v", i, err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(got.token, want.token) {
					t.Errorf("%d edits, tokenization %d, route %d: token plan %v differs from route 0's %v",
						edits, tokenization, i, got.token, want.token)
				}
				if !reflect.DeepEqual(got.char, want.char) {
					t.Errorf("%d edits, tokenization %d, route %d: char automaton differs from route 0's", edits, tokenization, i)
				}
			}
		}
	}

	var want *prefixLanguage
	for i, prefix := range []string{
		"The ((cat)|(dog)|(cow)) ((sat)|(ran))",
		"(The dog (ran|sat))|(The c(at|ow) sat)|(The c(ow|at) ran)",
		"The (cat|dog|cow) (sat|ran)",
	} {
		q := SearchQuery{Query: QueryString{Pattern: "x", Prefix: prefix}}
		applyDefaults(&q)
		got, err := compilePrefix(m, &q)
		if err != nil {
			t.Fatalf("prefix route %d: %v", i, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.char, want.char) {
			t.Errorf("prefix route %d: byte automaton differs from route 0's", i)
		}
		gotEnc, _ := got.Encode()
		wantEnc, _ := want.Encode()
		if !reflect.DeepEqual(gotEnc, wantEnc) || len(gotEnc) != 6 {
			t.Errorf("prefix route %d: encoded %v, route 0 %v", i, gotEnc, wantEnc)
		}
		a, b := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
		for draw := 0; draw < 20; draw++ {
			if x, y := got.Walks().SampleUniform(a), want.Walks().SampleUniform(b); !slices.Equal(x, y) {
				t.Fatalf("prefix route %d, draw %d: sampled %v, route 0 %v", i, draw, x, y)
			}
		}
	}
}

// BenchmarkPlanCacheHit measures the per-query cost of a warm repeat query's
// compile resolution — the amortization the paper's serving story is about.
// The miss arm compiles the same pattern into a fresh cache every iteration.
// Nothing records its results: the performance record is the ledger, the
// last line `bash bench/run.sh` prints per workload, committed as
// BENCH_prN.json.
func BenchmarkPlanCacheHit(b *testing.B) {
	m := testModel(b)
	q := SearchQuery{Query: QueryString{Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})"}}
	applyDefaults(&q)
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.plans = newPlanCache[*compiled](128)
			if _, _, err := compileCached(m, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		m.plans = newPlanCache[*compiled](128)
		if _, _, err := compileCached(m, &q); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := compileCached(m, &q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestPlanKeyRuleAmbiguity is the regression test for a key-collision bug:
// formatting rewrite rules with %v collapsed {From:"a b",To:"c"} and
// {From:"a",To:"b c"} into one key, serving one query another query's
// compiled automaton.
func TestPlanKeyRuleAmbiguity(t *testing.T) {
	a := RewriteRules{Rules: []rewrite.Rule{{From: "a b", To: "c"}}}
	b := RewriteRules{Rules: []rewrite.Rule{{From: "a", To: "b c"}}}
	if a.PlanKey() == b.PlanKey() {
		t.Fatalf("distinct rule sets share a plan key: %q", a.PlanKey())
	}
	h1 := HomoglyphExpand{Rules: []rewrite.Rule{{From: "o 0", To: "x"}}}
	h2 := HomoglyphExpand{Rules: []rewrite.Rule{{From: "o", To: "0 x"}}}
	if h1.PlanKey() == h2.PlanKey() {
		t.Fatalf("distinct homoglyph rule sets share a plan key: %q", h1.PlanKey())
	}
}

// TestWordListPlanKeyIsDigest holds the word-list keys (RemoveWords and
// CaseVariants) to an independent restatement — sha256 over each word after
// its length as a little-endian uint64 — and checks what the digest must
// keep apart: lists that split the same bytes differently, and {""} from the
// empty list. nil and {} are one language, so they alone may share a key.
// A key's allocations do not grow with the list: a stop list of 1 800 words
// keys in as many allocations as one of 10.
func TestWordListPlanKeyIsDigest(t *testing.T) {
	reference := func(tag string, words []string) string {
		h := sha256.New()
		for _, w := range words {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(w))))
			h.Write([]byte(w))
		}
		return tag + hex.EncodeToString(h.Sum(nil))
	}
	lists := [][]string{
		nil,
		{},
		{""},
		{" the", "The."},
		{`say "hi"`, `it's`, `back\slash`, "tab\there", "new\nline"},
		{" café", "naïve ", "日本語", "emoji 🙂", "\x00\x7f", "bad \xff utf8"},
		{"ab", "c"},
		{"a", "bc"},
		{"abc"},
		{"abc", ""},
	}
	seen := map[string]string{}
	for i, words := range lists {
		for _, ignoreCase := range []bool{false, true} {
			r := RemoveWords{Words: words, IgnoreCase: ignoreCase}
			got := r.PlanKey()
			if want := reference(fmt.Sprintf("remove-words:%v:", ignoreCase), words); got != want {
				t.Errorf("RemoveWords%q IgnoreCase=%v: PlanKey() = %s, want %s", words, ignoreCase, got, want)
			}
			if i == 1 { // {} is nil's language, so it takes nil's key
				if nilKey := (RemoveWords{IgnoreCase: ignoreCase}).PlanKey(); got != nilKey {
					t.Errorf("nil and empty word lists key apart: %s vs %s", nilKey, got)
				}
				continue
			}
			what := fmt.Sprintf("%q IgnoreCase=%v", words, ignoreCase)
			if prev, dup := seen[got]; dup {
				t.Errorf("%s and %s share plan key %s", prev, what, got)
			}
			seen[got] = what
		}
		c := CaseVariants{Words: words}
		if got, want := c.PlanKey(), reference("case-variants:", words); got != want {
			t.Errorf("CaseVariants%q.PlanKey() = %s, want %s", words, got, want)
		}
	}

	stopList := func(n int) []string {
		words := make([]string, n)
		for i := range words {
			words[i] = fmt.Sprintf("stop word %d", i)
		}
		return words
	}
	for _, ignoreCase := range []bool{false, true} {
		allocs := func(words []string) float64 {
			r := RemoveWords{Words: words, IgnoreCase: ignoreCase}
			return testing.AllocsPerRun(20, func() { _ = r.PlanKey() })
		}
		if short, long := allocs(stopList(10)), allocs(stopList(1800)); long != short {
			t.Errorf("IgnoreCase=%v: PlanKey allocates %v times for 1 800 words, %v for 10", ignoreCase, long, short)
		}
	}
}

// gatedPanicPreprocessor models a defective custom preprocessor behind a
// valid PlanKey: its first Transform signals started, blocks until release
// is closed and panics; later ones pass the automaton through.
type gatedPanicPreprocessor struct {
	started, release chan struct{}
	calls            *atomic.Int32
}

func (g gatedPanicPreprocessor) Transform(d *automaton.DFA) (*automaton.DFA, error) {
	if g.calls.Add(1) == 1 {
		close(g.started)
		<-g.release
		panic("boom")
	}
	return d, nil
}
func (gatedPanicPreprocessor) Name() string    { return "gated-panic" }
func (gatedPanicPreprocessor) PlanKey() string { return "gated-panic" }

// waitParked blocks until n lookups have joined a flight on pc, failing the
// test after 5 s. A lookup counts just before it parks; that is soon enough,
// since Wait on a flight that has already failed returns its error.
func waitParked[V any](t *testing.T, pc *planCache[V], n int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		pc.mu.Lock()
		joined := pc.joined
		pc.mu.Unlock()
		if joined >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fewer than %d lookups joined a flight", n)
		}
	}
}

// TestPlanCachePanicUnwedges asserts a compile panic resolves its
// single-flight entry: the owner and a concurrent identical query parked on
// the flight both get the panic as an error promptly instead of blocking
// forever or unwinding, and a later identical query compiles normally.
func TestPlanCachePanicUnwedges(t *testing.T) {
	m := testModel(t)
	pp := gatedPanicPreprocessor{started: make(chan struct{}), release: make(chan struct{}), calls: new(atomic.Int32)}
	q := SearchQuery{Query: QueryString{Pattern: "cat"}, Preprocessors: []Preprocessor{pp}}

	explain := func() <-chan error {
		out := make(chan error, 1)
		go func() {
			_, err := Explain(m, q)
			out <- err
		}()
		return out
	}
	owner := explain()
	<-pp.started
	waiter := explain()
	waitParked(t, m.plans, 1)
	close(pp.release)

	for name, ch := range map[string]<-chan error{"owner": owner, "waiter": waiter} {
		select {
		case err := <-ch:
			if err == nil || err.Error() != "relm: plan compilation panicked: boom" {
				t.Errorf("%s got %v, want the compile panic as an error", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("plan cache wedged after a compile panic")
		}
	}
	if s := m.PlanCacheStats(); s.Misses != 1 || s.Hits != 0 || s.Entries != 0 {
		t.Fatalf("after the failed flight: %+v, want one uncached miss and no hit", s)
	}

	if _, err := Explain(m, q); err != nil {
		t.Fatalf("retry after the panic: %v", err)
	}
	if s := m.PlanCacheStats(); s.Misses != 2 || s.Entries != 1 {
		t.Fatalf("retry did not compile afresh: %+v", s)
	}
}

// panicPreprocessor panics on every Transform. It has no PlanKey, so a query
// using it bypasses the plan cache.
type panicPreprocessor struct{}

func (panicPreprocessor) Transform(*automaton.DFA) (*automaton.DFA, error) { panic("boom") }
func (panicPreprocessor) Name() string                                     { return "panic" }

// keyedPanicPreprocessor is panicPreprocessor behind a valid PlanKey, so only
// a model with plan caching off compiles it outside the cache.
type keyedPanicPreprocessor struct{ panicPreprocessor }

func (keyedPanicPreprocessor) PlanKey() string { return "panic" }

// TestCompilePanicIsAnError: a compile panic is the query's error on the
// paths outside the plan cache's flights too — a query that bypasses the
// cache, and any query on a model with plan caching off — from both Search
// and Explain, and the model keeps serving afterwards.
func TestCompilePanicIsAnError(t *testing.T) {
	lm, tok := testNGram()
	bypass := SearchQuery{Query: QueryString{Pattern: "cat"}, Preprocessors: []Preprocessor{panicPreprocessor{}}}
	cacheOff := SearchQuery{Query: QueryString{Pattern: "cat"}, Preprocessors: []Preprocessor{keyedPanicPreprocessor{}}}
	for _, tc := range []struct {
		name string
		opts ModelOptions
		q    SearchQuery
	}{
		{"bypass", ModelOptions{}, bypass},
		{"cache-off", ModelOptions{PlanCacheSize: -1}, cacheOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel(lm, tok, tc.opts)
			_, serr := Search(m, tc.q)
			_, eerr := Explain(m, tc.q)
			for call, err := range map[string]error{"Search": serr, "Explain": eerr} {
				if err == nil || err.Error() != "relm: plan compilation panicked: boom" {
					t.Errorf("%s got %v, want the compile panic as an error", call, err)
				}
			}
			if _, err := Explain(m, SearchQuery{Query: QueryString{Pattern: "cat"}}); err != nil {
				t.Fatalf("a plain query after the panic: %v", err)
			}
		})
	}
}
