package cache

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
)

func scopeCtxs(n int) [][]model.Token {
	out := make([][]model.Token, n)
	for i := range out {
		out[i] = []model.Token{model.Token(i)}
	}
	return out
}

func TestScopeAttributesSequential(t *testing.T) {
	inner := &countingModel{LanguageModel: &model.Uniform{Vocab: 16, EOSTok: 15, SeqLen: 8}}
	c := New(inner, 128)
	ctxs := scopeCtxs(10)

	a := c.NewScope()
	a.ScoreBatch(ctxs)
	as := a.Tally()
	if as.Misses != 10 || as.Hits != 0 {
		t.Fatalf("cold scope stats = %+v, want 10 misses", as)
	}

	b := c.NewScope()
	b.ScoreBatch(ctxs)
	bs := b.Tally()
	if bs.Hits != 10 || bs.Misses != 0 {
		t.Errorf("warm scope stats = %+v, want 10 hits", bs)
	}
	// The warm scope's hits came from entries the cold scope computed —
	// cross-scope attribution over one shared LRU.
	if hits, misses := c.Stats(); hits != 10 || misses != 10 {
		t.Errorf("shared totals = %d hits / %d misses, want 10/10", hits, misses)
	}
	if inner.calls() != 10 {
		t.Errorf("inner model computed %d rows, want 10", inner.calls())
	}
}

func TestScopeOutcomesPartitionRows(t *testing.T) {
	// Under concurrency every row is exactly one of hit, miss, or flight,
	// and the single-flight layer guarantees each unique context is
	// computed once across all scopes.
	inner := &countingModel{LanguageModel: &model.Uniform{Vocab: 16, EOSTok: 15, SeqLen: 8}}
	c := New(inner, 256)
	ctxs := scopeCtxs(32)

	const scopes = 8
	all := make([]*LM, scopes)
	var wg sync.WaitGroup
	for i := range all {
		all[i] = c.NewScope()
		wg.Add(1)
		go func(s *LM) {
			defer wg.Done()
			s.ScoreBatch(ctxs)
		}(all[i])
	}
	wg.Wait()

	var hits, misses, flights int64
	for _, s := range all {
		st := s.Tally()
		if st.Hits+st.Misses+st.Flights != int64(len(ctxs)) {
			t.Errorf("scope outcomes %+v don't partition %d rows", st, len(ctxs))
		}
		hits += st.Hits
		misses += st.Misses
		flights += st.Flights
	}
	if misses != int64(len(ctxs)) {
		t.Errorf("unique contexts computed %d times, want exactly %d (single-flight)", misses, len(ctxs))
	}
	if hits+flights != int64((scopes-1)*len(ctxs)) {
		t.Errorf("hits+flights = %d, want %d", hits+flights, (scopes-1)*len(ctxs))
	}
	if inner.calls() != int64(len(ctxs)) {
		t.Errorf("inner model computed %d rows, want %d", inner.calls(), len(ctxs))
	}
}

// gatedPanicModel's first computation — a ScoreBatch or a ScoreAllPositions
// — signals started, blocks until release is closed and then panics; every
// later computation succeeds.
type gatedPanicModel struct {
	model.LanguageModel
	started, release chan struct{}
	mu               sync.Mutex
	failed           bool
}

func (m *gatedPanicModel) gate() {
	m.mu.Lock()
	first := !m.failed
	m.failed = true
	m.mu.Unlock()
	if first {
		close(m.started)
		<-m.release
		panic("scripted model failure")
	}
}

func (m *gatedPanicModel) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	m.gate()
	return m.LanguageModel.ScoreBatch(ctxs)
}

func (m *gatedPanicModel) ScoreAllPositions(seq []model.Token) [][]float64 {
	m.gate()
	rows := make([][]float64, len(seq))
	for p := range seq {
		rows[p] = m.NextLogProbs(seq[:p])
	}
	return rows
}

// TestInnerPanicDoesNotWedgeFlights: when the inner model panics, the call
// that ran it panics with the model's own value, unwrapped, and leaves no key
// wedged. Requests parked on its batch's flights wake and score their rows
// again, so they get rows, each counted once. A whole all-positions sequence
// has no flight: its panic passes through, and a retry computes.
func TestInnerPanicDoesNotWedgeFlights(t *testing.T) {
	ctxs := scopeCtxs(4)
	seq := []model.Token{1, 2, 3, 4}
	gated := func() *gatedPanicModel {
		return &gatedPanicModel{
			LanguageModel: &model.Uniform{Vocab: 16, EOSTok: 15, SeqLen: 8},
			started:       make(chan struct{}),
			release:       make(chan struct{}),
		}
	}
	// call runs f and returns its rows, or the value it panicked with.
	call := func(f func() [][]float64) (rows [][]float64, p any) {
		defer func() { p = recover() }()
		return f(), nil
	}
	// computes checks that a call returns n rows, none of them missing.
	computes := func(t *testing.T, name string, f func() [][]float64, n int) {
		t.Helper()
		done := make(chan [][]float64, 1)
		go func() { done <- f() }()
		select {
		case rows := <-done:
			if len(rows) != n || slices.ContainsFunc(rows, func(r []float64) bool { return r == nil }) {
				t.Errorf("%s returned %d rows: %v", name, len(rows), rows)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked on a wedged in-flight entry", name)
		}
	}

	t.Run("ScoreBatch", func(t *testing.T) {
		inner := gated()
		c := New(inner, 64)
		owner := make(chan any, 1)
		go func() {
			_, p := call(func() [][]float64 { return c.ScoreBatch(ctxs) })
			owner <- p
		}()
		<-inner.started
		const waiters = 3
		type outcome struct {
			rows  [][]float64
			p     any
			tally ScopeStats
		}
		parked := make(chan outcome, waiters)
		for range waiters {
			go func() {
				v := c.NewScope()
				rows, p := call(func() [][]float64 { return v.ScoreBatch(ctxs) })
				parked <- outcome{rows, p, v.Tally()}
			}()
		}
		// Every row of every waiter joins the owner's flights before the
		// owner is let go.
		for deadline := time.Now().Add(5 * time.Second); c.FlightStats() < waiters*4; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d rows parked on the flight", c.FlightStats())
			}
		}
		close(inner.release)

		if p := <-owner; p != "scripted model failure" {
			t.Errorf("owner panicked with %v (%T), want its own model's panic", p, p)
		}
		for range waiters {
			select {
			case o := <-parked:
				if o.p != nil {
					t.Fatalf("waiter panicked with %v (%T), want rows", o.p, o.p)
				}
				if len(o.rows) != 4 || slices.ContainsFunc(o.rows, func(r []float64) bool { return r == nil }) {
					t.Errorf("waiter got %d rows: %v", len(o.rows), o.rows)
				}
				if o.tally.Hits+o.tally.Misses+o.tally.Flights != 4 {
					t.Errorf("waiter tallied %+v, want its 4 rows counted once each", o.tally)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("waiter still parked on a failed flight")
			}
		}
		computes(t, "a later call", func() [][]float64 { return c.ScoreBatch(ctxs) }, 4)
	})

	t.Run("ScoreAllPositions", func(t *testing.T) {
		inner := gated()
		close(inner.release)
		c := New(inner, 64)
		if _, p := call(func() [][]float64 { return c.ScoreAllPositions(seq) }); p != "scripted model failure" {
			t.Errorf("call panicked with %v (%T), want its own model's panic", p, p)
		}
		computes(t, "a retry", func() [][]float64 { return c.ScoreAllPositions(seq) }, 4)
	})
}

// shortModel answers every batch with no rows at all: a defective model.
type shortModel struct{ model.LanguageModel }

func (shortModel) ScoreBatch([][]model.Token) [][]float64 { return nil }

// TestShortBatchDoesNotWedgeCache: an inner model that returns fewer rows
// than asked fails the call that ran it with a panic raised outside the
// cache's lock, so the flights it owned are abandoned and the next call on
// the cache, a read of its length, returns.
func TestShortBatchDoesNotWedgeCache(t *testing.T) {
	c := New(shortModel{&model.Uniform{Vocab: 16, EOSTok: 15, SeqLen: 8}}, 64)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a short batch was answered")
			}
		}()
		c.ScoreBatch(scopeCtxs(2))
	}()
	done := make(chan int, 1)
	go func() { done <- c.Len() }()
	select {
	case n := <-done:
		if n != 0 {
			t.Errorf("%d entries after a failed batch, want 0", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the cache stayed locked after a short batch")
	}
}

// countingModel counts rows the inner model actually scored.
type countingModel struct {
	model.LanguageModel
	mu sync.Mutex
	n  int64
}

func (m *countingModel) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	m.mu.Lock()
	m.n += int64(len(ctxs))
	m.mu.Unlock()
	return m.LanguageModel.ScoreBatch(ctxs)
}

func (m *countingModel) calls() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// TestViewTalliesSumToStore: for every scoring method, over a transformer
// (real decode states) and over a window model, what two views tally adds up
// to what the shared store counted. The store is half warm, so a method that
// reads the LRU sees both hits and misses, and the second view repeats the
// first view's call.
func TestViewTalliesSumToStore(t *testing.T) {
	tlm, ttok := testTransformer(t)
	for _, lm := range []struct {
		name  string
		inner model.LanguageModel
		seq   []model.Token
	}{
		{"transformer", tlm, ttok.Encode("the cat sat on the")},
		{"window", newCounting(), tok(1, 2, 3, 4, 5)},
	} {
		seq := lm.seq
		var prefixes [][]model.Token
		for p := range seq {
			prefixes = append(prefixes, seq[:p+1])
		}
		states := make([]model.DecodeState, len(prefixes)-1)
		for i := range states {
			states[i], _ = model.Prefill(lm.inner, prefixes[i])
		}
		out := make([][]float64, len(prefixes))
		for _, m := range []struct {
			name string
			call func(v *LM)
		}{
			{"ScoreBatch", func(v *LM) { v.ScoreBatch(prefixes) }},
			{"NextLogProbs", func(v *LM) { v.NextLogProbs(seq) }},
			{"Prefill", func(v *LM) { v.Prefill(seq) }},
			{"ExtendBatch", func(v *LM) { v.ExtendBatch(states, seq[1:]) }},
			{"ScoreAllPositions", func(v *LM) { v.ScoreAllPositions(seq) }},
			{"ResidentRows", func(v *LM) { v.ResidentRows(prefixes, out) }},
			{"ResidentAllPositions", func(v *LM) {
				v.ResidentAllPositions([][]model.Token{seq, seq[:2]}, make([][][]float64, 2))
			}},
		} {
			t.Run(lm.name+"/"+m.name, func(t *testing.T) {
				c := New(lm.inner, 128)
				c.ScoreBatch(prefixes[:len(prefixes)/2])
				c.ScoreAllPositions(seq[:2])
				h0, m0 := c.Stats()
				f0 := c.FlightStats()

				a, b := c.NewScope(), c.NewScope()
				m.call(a)
				m.call(b)
				as, bs := a.Tally(), b.Tally()
				h1, m1 := c.Stats()
				sum := ScopeStats{Hits: as.Hits + bs.Hits, Misses: as.Misses + bs.Misses, Flights: as.Flights + bs.Flights}
				if store := (ScopeStats{Hits: h1 - h0, Misses: m1 - m0, Flights: c.FlightStats() - f0}); sum != store {
					t.Errorf("views tally %+v + %+v = %+v, store counted %+v", as, bs, sum, store)
				}
				if sum == (ScopeStats{}) {
					t.Error("the call classified no row")
				}
			})
		}
	}
}

// TestNewScopeIsOneAllocation: a scope embeds its tally, so a session's view
// of the shared cache costs one allocation.
func TestNewScopeIsOneAllocation(t *testing.T) {
	c := New(newCounting(), 16)
	var v *LM
	if allocs := testing.AllocsPerRun(100, func() { v = c.NewScope() }); allocs != 1 {
		t.Errorf("NewScope made %.0f allocations, want 1", allocs)
	}
	_ = v
}
