package relm

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/tokenizer"
)

func prefixQuery(prefix string) SearchQuery {
	q := SearchQuery{Query: QueryString{Pattern: "x", Prefix: prefix}}
	applyDefaults(&q)
	return q
}

// uncached is a model with tokenizer tok and no prefix cache, so
// compilePrefix compiles afresh.
func uncached(tok *tokenizer.BPE) *Model { return &Model{Tok: tok} }

func TestCompilePrefixNoPrefix(t *testing.T) {
	q := prefixQuery("")
	p, err := compilePrefix(uncached(nil), &q)
	if err != nil || p != nil {
		t.Fatalf("no prefix must yield (nil, nil), got (%v, %v)", p, err)
	}
}

func TestCompilePrefixBadRegex(t *testing.T) {
	q := prefixQuery("(")
	if _, err := compilePrefix(uncached(nil), &q); err == nil {
		t.Fatal("malformed prefix must error")
	}
}

func TestCompilePrefixEnumerates(t *testing.T) {
	tok := tokenizer.Train([]string{"ab ac"}, 10)
	q := prefixQuery("a[bc]")
	p, err := compilePrefix(uncached(tok), &q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 2 {
		t.Fatalf("size = %d, want 2", p.Size())
	}
	seqs, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("encoded %d prefixes, want 2", len(seqs))
	}
	for i, want := range []string{"ab", "ac"} {
		if got := tok.Decode(seqs[i]); got != want {
			t.Errorf("prefix %d decodes to %q, want %q (shortlex order)", i, got, want)
		}
	}
}

func TestCompilePrefixOverBudget(t *testing.T) {
	q := prefixQuery("[a-z]{8}")
	q.PrefixLimit = 100
	p, err := compilePrefix(uncached(tokenizer.Train([]string{"abc"}, 5)), &q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != -1 {
		t.Fatalf("size = %d, want -1 for an over-budget language", p.Size())
	}
	if _, err := p.Encode(); err == nil || !strings.Contains(err.Error(), "exceeds 100 strings") {
		t.Fatalf("over-budget Encode error = %v", err)
	}
}

func TestCompilePrefixUnboundedLanguage(t *testing.T) {
	q := prefixQuery("a+")
	p, err := compilePrefix(uncached(nil), &q)
	if err != nil {
		t.Fatal(err)
	}
	// a+ has one string per length up to PrefixMaxLen=128, under the default
	// 4096 limit — bounded enumeration of a cyclic automaton.
	if p.Size() != 128 {
		t.Fatalf("size = %d, want 128", p.Size())
	}
}

func TestCompilePrefixEmptyLanguage(t *testing.T) {
	q := prefixQuery("a[0-9]")
	q.PrefixMaxLen = 1 // no string of the language fits in 1 byte
	p, err := compilePrefix(uncached(tokenizer.Train([]string{"abc"}, 5)), &q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Size() != 0 {
		t.Fatalf("size = %d, want 0", p.Size())
	}
	if _, err := p.Encode(); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty-language Encode error = %v", err)
	}
}

// TestPrefixCacheKeysEveryInput: a compiled prefix depends on the prefix
// regex, both budgets and the tokenizer that encodes it, so queries that
// differ in any one of them get their own entry, and a repeat of any of them
// hits.
func TestPrefixCacheKeysEveryInput(t *testing.T) {
	m := testModel(t)
	other := *m // a view sharing m's caches under another tokenizer
	other.Tok = tokenizer.Train([]string{"The cat sat", "The dog ran"}, 40)
	base := prefixQuery("The (cat|dog)")
	limit, maxLen, regex := base, base, base
	limit.PrefixLimit = 7
	maxLen.PrefixMaxLen = 9
	regex.Query.Prefix = "The (cat|cow)"
	variants := []struct {
		m *Model
		q SearchQuery
	}{{m, base}, {m, limit}, {m, maxLen}, {m, regex}, {&other, base}}
	for pass := 0; pass < 2; pass++ {
		for i, v := range variants {
			if _, err := compilePrefix(v.m, &v.q); err != nil {
				t.Fatalf("variant %d: %v", i, err)
			}
		}
	}
	s := m.PlanCacheStats()
	if n := len(variants); s.PrefixMisses != int64(n) || s.PrefixHits != int64(n) || s.PrefixEntries != n {
		t.Fatalf("prefix cache %d hits / %d misses, %d entries; want %d each", s.PrefixHits, s.PrefixMisses, s.PrefixEntries, n)
	}
	mine, _ := compilePrefix(m, &base)
	theirs, _ := compilePrefix(&other, &base)
	a, _ := mine.Encode()
	b, _ := theirs.Encode()
	if reflect.DeepEqual(a, b) {
		t.Fatal("two tokenizers shared one encoding: the tokenizer is not in the key")
	}
}

// TestPrefixCacheRefusesMalformedPrefix: a prefix that does not compile is
// an error every time it is asked for, and never an entry.
func TestPrefixCacheRefusesMalformedPrefix(t *testing.T) {
	m := testModel(t)
	for i := 0; i < 2; i++ {
		if _, err := Search(m, SearchQuery{Query: QueryString{Pattern: " cat", Prefix: "The ("}}); err == nil {
			t.Fatalf("run %d: malformed prefix accepted", i)
		}
	}
	if s := m.PlanCacheStats(); s.PrefixMisses != 2 || s.PrefixHits != 0 || s.PrefixEntries != 0 {
		t.Fatalf("after two malformed prefixes: %+v, want two uncached misses", s)
	}
}

// TestPrefixCacheDisabledWithPlanCache: PlanCacheSize < 0 turns off both
// caches, so every query compiles its prefix afresh.
func TestPrefixCacheDisabledWithPlanCache(t *testing.T) {
	lm, tok := testNGram()
	m := NewModel(lm, tok, ModelOptions{PlanCacheSize: -1})
	if m.prefixes != nil {
		t.Fatal("PlanCacheSize -1 left a prefix cache")
	}
	q := prefixQuery("The (cat|dog)")
	p1, _ := compilePrefix(m, &q)
	p2, _ := compilePrefix(m, &q)
	if p1 == p2 {
		t.Fatal("a disabled cache served one entry twice")
	}
	if s := m.PlanCacheStats(); s != (PlanCacheStats{}) {
		t.Fatalf("disabled caches report %+v", s)
	}
}

// TestPrefixEntrySharedAcrossStrategies: shortest path, beam and sampling
// with one regex prefix, run concurrently, resolve one entry — compiled
// once, its encoded strings and walk table built once under their sync.Once
// — and each stream equals the same query on a model without plan caches.
// Under -race this is also the check that the lazily built products are
// published safely.
func TestPrefixEntrySharedAcrossStrategies(t *testing.T) {
	lm, tok := testNGram()
	qs := QueryString{Pattern: " ((cat)|(dog))", Prefix: "The( small| big)?"}
	cases := []fusionCase{
		{name: "shortest", q: SearchQuery{Query: qs, Strategy: ShortestPath}, take: 3},
		{name: "beam", q: SearchQuery{Query: qs, Strategy: BeamSearch, BeamWidth: 4}, take: 3},
		{name: "sample", q: SearchQuery{Query: qs, Strategy: RandomSampling, Seed: 7}, take: 4},
	}
	ref := NewModel(lm, tok, ModelOptions{PlanCacheSize: -1})
	want := make([][]string, len(cases))
	for i, c := range cases {
		want[i] = runCase(t, ref, c)
	}

	m := NewModel(lm, tok, ModelOptions{})
	const rounds = 4
	got := make([][]string, rounds*len(cases))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runCase(t, m.NewSession().Model, cases[i%len(cases)])
		}(i)
	}
	wg.Wait()
	for i, rows := range got {
		c := i % len(cases)
		if len(rows) == 0 || fmt.Sprint(rows) != fmt.Sprint(want[c]) {
			t.Errorf("%s, run %d: %v, uncached model %v", cases[c].name, i/len(cases), rows, want[c])
		}
	}
	s := m.PlanCacheStats()
	if s.PrefixMisses != 1 || s.PrefixEntries != 1 || s.PrefixHits != int64(len(got)-1) {
		t.Fatalf("prefix cache %d hits / %d misses, %d entries; want %d / 1, 1", s.PrefixHits, s.PrefixMisses, s.PrefixEntries, len(got)-1)
	}
}

// TestWarmPrefixAllocatesNoCompilation: once a prefix's products are built,
// looking the prefix up again and reading them compiles no regex, enumerates
// nothing and builds no walk table — the only allocation left is the key.
func TestWarmPrefixAllocatesNoCompilation(t *testing.T) {
	m := testModel(t)
	q := prefixQuery("My (phone|fax) number is")
	resolve := func() {
		p, err := compilePrefix(m, &q)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Encode(); err != nil {
			t.Fatal(err)
		}
		p.Walks()
	}
	resolve()
	if allocs := testing.AllocsPerRun(100, resolve); allocs > 1 {
		t.Fatalf("a warm prefix lookup allocates %v times, want at most 1 (its key)", allocs)
	}
}

// TestPrefixBudgetIsVisible: a literal prefix longer than PrefixMaxLen fails
// with an error naming the budget, and Explain warns when a cyclic prefix is
// cut at it.
func TestPrefixBudgetIsVisible(t *testing.T) {
	m := testModel(t)
	long := SearchQuery{Query: QueryString{Pattern: " cat", Prefix: "The cat sat on the mat"}, PrefixMaxLen: 10}
	if _, err := Search(m, long); err == nil || !strings.Contains(err.Error(), "PrefixMaxLen=10") {
		t.Fatalf("a 22-byte prefix under PrefixMaxLen=10: error %v, want one naming PrefixMaxLen=10", err)
	}
	p, err := Explain(m, long)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(p.Warnings, func(w string) bool { return strings.Contains(w, "PrefixMaxLen=10") }) {
		t.Fatalf("Explain of a prefix past PrefixMaxLen: warnings %q name no budget", p.Warnings)
	}
	for _, c := range []struct {
		prefix string
		warn   bool
	}{{"The (cat )+", true}, {"The (cat|dog)", false}} {
		p, err := Explain(m, SearchQuery{Query: QueryString{Pattern: "sat", Prefix: c.prefix}, PrefixMaxLen: 20})
		if err != nil {
			t.Fatal(err)
		}
		cut := slices.ContainsFunc(p.Warnings, func(w string) bool {
			return strings.Contains(w, "infinite") && strings.Contains(w, "PrefixMaxLen=20")
		})
		if cut != c.warn {
			t.Errorf("prefix %q: cut warning %v, want %v (warnings %q)", c.prefix, cut, c.warn, p.Warnings)
		}
	}
}
