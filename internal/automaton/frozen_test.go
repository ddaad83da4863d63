package automaton

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// randomDFA builds a reproducible random DFA directly (determinizing a dense
// random NFA can blow up exponentially), with varied fan-out and acceptance.
func randomDFA(rng *rand.Rand, states, syms, edges int) *DFA {
	d := NewDFA()
	for i := 0; i < states; i++ {
		d.AddState(rng.Intn(3) == 0)
	}
	d.SetStart(0)
	for i := 0; i < edges; i++ {
		from, sym := rng.Intn(states), rng.Intn(syms)
		if _, ok := d.Step(from, sym); !ok {
			d.AddEdge(from, sym, rng.Intn(states))
		}
	}
	return d
}

func TestFrozenMatchesDFA(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		d := randomDFA(rng, 3+rng.Intn(20), 2+rng.Intn(6), 10+rng.Intn(60))
		f := d.Freeze()
		if f.NumStates() != d.NumStates() || f.NumEdges() != d.NumEdges() || f.Start() != d.Start() {
			t.Fatalf("trial %d: shape mismatch: %v vs %v", trial, f, d)
		}
		if f.IsEmpty() != d.IsEmpty() {
			t.Fatalf("trial %d: IsEmpty mismatch", trial)
		}
		alpha := d.Alphabet()
		fAlpha := f.Alphabet()
		if len(alpha) != len(fAlpha) {
			t.Fatalf("trial %d: alphabet size %d vs %d", trial, len(fAlpha), len(alpha))
		}
		for i := range alpha {
			if alpha[i] != fAlpha[i] {
				t.Fatalf("trial %d: alphabet[%d] = %d vs %d", trial, i, fAlpha[i], alpha[i])
			}
		}
		for s := 0; s < d.NumStates(); s++ {
			if f.Accepting(s) != d.Accepting(s) {
				t.Fatalf("trial %d: accepting(%d) mismatch", trial, s)
			}
			de, fe := d.Edges(s), f.Edges(s)
			if len(de) != len(fe) {
				t.Fatalf("trial %d: edges(%d): %d vs %d", trial, s, len(fe), len(de))
			}
			for i := range de {
				if de[i] != fe[i] {
					t.Fatalf("trial %d: edge %d of state %d: %v vs %v", trial, i, s, fe[i], de[i])
				}
			}
			// Step agreement on present and absent symbols.
			for _, sym := range alpha {
				dt, dok := d.Step(s, sym)
				ft, fok := f.Step(s, sym)
				if dok != fok || (dok && dt != ft) {
					t.Fatalf("trial %d: step(%d, %d): (%d,%v) vs (%d,%v)", trial, s, sym, ft, fok, dt, dok)
				}
			}
			if _, ok := f.Step(s, 1<<30); ok {
				t.Fatalf("trial %d: step on absent symbol succeeded", trial)
			}
		}
		if got, want := f.LanguageSize(8), d.LanguageSize(8); got != want {
			t.Fatalf("trial %d: language size %d vs %d", trial, got, want)
		}
		// Random walks must classify identically.
		for w := 0; w < 20; w++ {
			seq := make([]Symbol, rng.Intn(10))
			for i := range seq {
				seq[i] = alphaOr(rng, alpha)
			}
			if f.MatchSymbols(seq) != d.MatchSymbols(seq) {
				t.Fatalf("trial %d: MatchSymbols(%v) disagrees", trial, seq)
			}
		}
	}
}

func alphaOr(rng *rand.Rand, alpha []Symbol) Symbol {
	if len(alpha) == 0 || rng.Intn(4) == 0 {
		return rng.Intn(8) // occasionally off-alphabet
	}
	return alpha[rng.Intn(len(alpha))]
}

func TestFrozenBitsetBeyondOneWord(t *testing.T) {
	// A chain of 200 states exercises accept-bitset words past the first.
	d := NewDFA()
	for i := 0; i < 200; i++ {
		d.AddState(i%3 == 0)
	}
	for i := 0; i+1 < 200; i++ {
		d.AddEdge(i, 1, i+1)
	}
	d.SetStart(0)
	f := d.Freeze()
	for i := 0; i < 200; i++ {
		if f.Accepting(i) != (i%3 == 0) {
			t.Fatalf("accepting(%d) wrong", i)
		}
	}
}

func TestFrozenThawRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		d := randomDFA(rng, 3+rng.Intn(15), 2+rng.Intn(5), 10+rng.Intn(40))
		back := d.Freeze().Thaw()
		if !Equivalent(d, back) {
			t.Fatalf("trial %d: thawed automaton not equivalent", trial)
		}
	}
}

func TestFrozenEmptyAutomaton(t *testing.T) {
	d := NewDFA()
	d.SetStart(d.AddState(false))
	f := d.Freeze()
	if !f.IsEmpty() || f.MatchString("") || f.NumEdges() != 0 {
		t.Fatal("empty automaton misbehaves when frozen")
	}
}

// TestSharedDFAConcurrentTraversal is the regression test for the lazy-seal
// mutation hazard: Step and Edges used to sort edge lists in place on first
// access, so two goroutines traversing one shared automaton raced. Edges are
// now sorted at insertion; this test fails under -race if any read path
// mutates again.
func TestSharedDFAConcurrentTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDFA(rng, 30, 6, 150)
	alpha := d.Alphabet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				s := r.Intn(d.NumStates())
				d.Edges(s)
				if len(alpha) > 0 {
					d.Step(s, alpha[r.Intn(len(alpha))])
				}
				d.Accepting(s)
				d.Alphabet()
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestSharedFrozenConcurrentTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := randomDFA(rng, 30, 6, 150).Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				s := r.Intn(f.NumStates())
				for _, e := range f.Edges(s) {
					f.Step(s, e.Sym)
				}
				f.Accepting(s)
			}
		}(int64(g))
	}
	wg.Wait()
}

// lazySealDFA replicates the pre-PR-3 representation for benchmarking: edge
// lists stored unsorted and sorted in place on first access, with a per-call
// sealed check. It exists so the frozen form's gate compares against the
// path it replaced, not just against today's eagerly-sorted DFA.
type lazySealDFA struct {
	edges  [][]Edge
	start  StateID
	accept []bool
	sealed []bool
}

func newLazySeal(d *DFA) *lazySealDFA {
	l := &lazySealDFA{start: d.Start()}
	rng := rand.New(rand.NewSource(99))
	for s := 0; s < d.NumStates(); s++ {
		es := append([]Edge{}, d.Edges(s)...)
		rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
		l.edges = append(l.edges, es)
		l.accept = append(l.accept, d.Accepting(s))
		l.sealed = append(l.sealed, false)
	}
	return l
}

func (l *lazySealDFA) seal(s StateID) {
	if !l.sealed[s] {
		es := l.edges[s]
		sort.Slice(es, func(i, j int) bool { return es[i].Sym < es[j].Sym })
		l.sealed[s] = true
	}
}
func (l *lazySealDFA) Start() StateID { return l.start }
func (l *lazySealDFA) NumStates() int { return len(l.edges) }
func (l *lazySealDFA) NumEdges() int {
	n := 0
	for _, es := range l.edges {
		n += len(es)
	}
	return n
}
func (l *lazySealDFA) Accepting(s StateID) bool { return l.accept[s] }
func (l *lazySealDFA) Edges(s StateID) []Edge   { l.seal(s); return l.edges[s] }
func (l *lazySealDFA) Alphabet() []Symbol       { return nil }
func (l *lazySealDFA) Step(s StateID, sym Symbol) (StateID, bool) {
	l.seal(s)
	es := l.edges[s]
	i := sort.Search(len(es), func(i int) bool { return es[i].Sym >= sym })
	if i < len(es) && es[i].Sym == sym {
		return es[i].To, true
	}
	return 0, false
}

// traversal is what frontierWorkload reads of each representation.
type traversal interface {
	Edges(s StateID) []Edge
	Accepting(s StateID) bool
}

// frontierWorkload models the engines' hot loop — expansion in Dijkstra,
// beam, sampler, and mass all iterate Edges and test Accepting over a
// frontier that jumps across the automaton (not a sequential walk).
// Benchmark arms and the speed gate share it so the comparison is honest.
func frontierWorkload(w traversal, order []StateID) int {
	acc := 0
	for _, s := range order {
		for _, e := range w.Edges(s) {
			acc += e.To
		}
		if w.Accepting(s) {
			acc++
		}
	}
	return acc
}

// benchAutomaton builds the shared large automaton plus a scattered visit
// order, sized so the state set does not fit in cache — where the CSR
// layout's contiguity pays.
func benchAutomaton() (d *DFA, order []StateID) {
	rng := rand.New(rand.NewSource(19))
	d = randomDFA(rng, 200000, 48, 1200000)
	order = make([]StateID, 100000)
	for i := range order {
		order[i] = rng.Intn(d.NumStates())
	}
	return d, order
}

// TestFrozenTraversalSpeedGate compares per-query traversal cost across the
// representations. The lazy-seal arm uses a fresh unsorted automaton per
// trial, exactly as the pre-PR-3 stack did — every query recompiled its
// automaton and paid the first-access sorts during traversal — while the
// frozen arm reuses one shared plan, as the plan cache now arranges. The
// sorted-DFA arm isolates the layout difference alone (expected to be within
// noise on a scattered workload; the frozen form's wins there are
// immutability and compactness, not raw loads).
func TestFrozenTraversalSpeedGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	d, order := benchAutomaton()
	f := d.Freeze()
	const trials = 5
	lazies := make([]*lazySealDFA, trials)
	for i := range lazies {
		lazies[i] = newLazySeal(d)
	}
	minTime := func(fn func(trial int)) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			fn(trial)
			if el := time.Since(start); el < best {
				best = el
			}
		}
		return best
	}
	sink := 0
	lazyTime := minTime(func(i int) { sink += frontierWorkload(lazies[i], order) })
	dfaTime := minTime(func(int) { sink += frontierWorkload(d, order) })
	frozenTime := minTime(func(int) { sink += frontierWorkload(f, order) })
	if sink == 42 {
		t.Log("unreachable; defeats dead-code elimination")
	}
	t.Logf("lazy-seal %v, dfa %v, frozen %v (%.2fx vs lazy, %.2fx vs dfa)",
		lazyTime, dfaTime, frozenTime,
		float64(lazyTime)/float64(frozenTime), float64(dfaTime)/float64(frozenTime))
	if frozenTime > lazyTime {
		t.Errorf("frozen traversal slower than the lazy-seal path it replaced: %v vs %v", frozenTime, lazyTime)
	}
	// The frozen-vs-sorted-DFA ratio is within scheduler noise by design, so
	// it is logged above but not asserted — a hard threshold there would turn
	// CI red on shared runners with no code defect. The lazy-seal assertion
	// carries a ~10x margin and is the claim that matters.
}

// BenchmarkFrozenTraversal compares the engines' automaton hot loop (Edges +
// Step + Accepting over a scattered frontier) across three representations:
// the old lazy-seal path, the eagerly-sorted DFA, and the frozen CSR form.
// Nothing records its results: the performance record is the ledger, the
// last line `bash bench/run.sh` prints per workload, committed as
// BENCH_prN.json.
func BenchmarkFrozenTraversal(b *testing.B) {
	d, order := benchAutomaton()
	f := d.Freeze()
	run := func(name string, fresh func() traversal) {
		b.Run(name, func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				w := fresh()
				b.StartTimer()
				sink += frontierWorkload(w, order)
			}
			_ = sink
		})
	}
	// The lazy-seal arm rebuilds per iteration: pre-PR-3, every query paid
	// the first-access sorts during its own traversal.
	run("lazyseal", func() traversal { return newLazySeal(d) })
	run("dfa", func() traversal { return d })
	run("frozen", func() traversal { return f })
}

// TestFreezeSharesBuiltEdges: Freeze of a DFA a Builder made shares the
// builder's edge array instead of copying it; AddEdge, AddState and
// SetAccepting on the DFA afterwards leave the Frozen equal to a snapshot
// taken at Freeze; and a DFA changed before Freeze gets a copy that shows
// the change.
func TestFreezeSharesBuiltEdges(t *testing.T) {
	d := randomDFA(rand.New(rand.NewSource(3)), 40, 6, 160).Minimize()
	if d.NumEdges() < 20 {
		t.Fatalf("%v: too few edges to test", d)
	}
	// The Frozen, its views and its accepting bitset; a copy would be a fourth.
	if allocs := testing.AllocsPerRun(20, func() { d.Freeze() }); allocs > 3 {
		t.Errorf("Freeze of a built DFA: %.0f allocations, want <= 3 (no edge array)", allocs)
	}
	f := d.Freeze()
	if &f.edges[0] != &d.packed[0] {
		t.Fatal("Freeze copied the edge array a Builder packed")
	}
	snapshot, edges := f.Thaw(), slices.Clone(f.edges)

	s := d.AddState(true)
	for q := range d.NumStates() - 1 {
		d.AddEdge(q, 100+q, s) // into the middle of the packed array, list by list
	}
	d.SetAccepting(d.Start(), !d.Accepting(d.Start()))
	if err := equalDFA(f.Thaw(), snapshot); err != nil {
		t.Errorf("mutating the DFA changed its Frozen: %v", err)
	}
	if !slices.Equal(f.edges, edges) {
		t.Error("mutating the DFA wrote into the shared edge array")
	}

	g := d.Freeze()
	if &g.edges[0] == &f.edges[0] {
		t.Error("a DFA changed by AddEdge still shares the builder's array")
	}
	if err := equalDFA(g.Thaw(), d); err != nil {
		t.Errorf("Freeze of a changed DFA: %v", err)
	}
}
