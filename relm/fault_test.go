package relm

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/lru"
	"repro/internal/model"
)

// Device faults are errors (DESIGN.md decision 15): a faulted query ends its
// stream with the classified fault, gives back every KV handle and span it
// held, and leaves the model answering the next query exactly as a model
// that never saw a fault.

func armFaults(t *testing.T, scenario string) {
	t.Helper()
	in, err := fault.ParseScenario(scenario, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(in)
	t.Cleanup(fault.Disable)
}

// nextErr calls Next until it fails (at most n times) and returns the error.
func nextErr(r *Results, n int) error {
	for i := 0; i < n; i++ {
		if _, err := r.Next(); err != nil {
			return err
		}
	}
	return nil
}

// TestParallelSamplingFaultIsAnError: a device fault in one of the sampler's
// attempts must end the stream with the transient fault — on every call after
// it too — not take the process down.
func TestParallelSamplingFaultIsAnError(t *testing.T) {
	m := testModel(t)
	armFaults(t, "device.forward=p0.2")
	results, err := Search(m, SearchQuery{
		Query:    QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
		Strategy: RandomSampling,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer results.Close()
	nerr := nextErr(results, 200)
	if !errors.Is(nerr, fault.ErrTransient) {
		t.Fatalf("Next returned %v, want the injected transient fault", nerr)
	}
	if _, again := results.Next(); again != nerr || results.Err() != nerr {
		t.Errorf("after the fault Next returned %v and Err %v, want the fault again", again, results.Err())
	}
}

// TestIncrementalFaultReleasesEverything: an ExtendBatch fault in an
// incremental shortest-path round is the stream's error; the round's parent
// KV handles go back to the arena, the traced run's spans are all ended with
// the failed dispatch saying why, and the next query on the same model
// matches a model that never saw the fault.
func TestIncrementalFaultReleasesEverything(t *testing.T) {
	lm, tok := trainIncrTransformer(t)
	q := SearchQuery{
		Query:       QueryString{Pattern: " ((engineering)|(medicine)|(art))", Prefix: "The man was trained in"},
		Incremental: true,
	}
	m := NewModel(lm, tok, ModelOptions{})

	armFaults(t, "device.extend=n1")
	results, err := Search(m, q)
	if err != nil {
		t.Fatal(err)
	}
	nerr := nextErr(results, 3)
	var f *fault.Fault
	if !errors.As(nerr, &f) || f.Point != fault.DeviceExtend {
		t.Fatalf("Next returned %v, want the injected device.extend fault", nerr)
	}
	results.Close()
	fault.Disable()
	if s := m.KVStats(); s.Handles != 0 {
		t.Errorf("%d KV handles still pinned after the faulted query closed", s.Handles)
	}

	tr := results.Trace()
	for _, sp := range tr.Spans {
		if sp.WallEndNS == 0 {
			t.Errorf("span %q never ended", sp.Name)
		}
	}
	if ext := tr.Find("device.extend"); len(ext) == 0 || ext[len(ext)-1].Attr("error") != nerr.Error() {
		t.Errorf("no device.extend span annotated with the fault %q", nerr)
	}

	take := func(m *Model) []*Match {
		r, err := Search(m, q)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got := r.Take(3)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
		return got
	}
	got, want := take(m), take(NewModel(lm, tok, ModelOptions{}))
	if len(got) != len(want) || len(got) == 0 {
		t.Fatalf("%d matches after the fault, %d from a fresh model", len(got), len(want))
	}
	for i := range got {
		if got[i].Text != want[i].Text || got[i].LogProb != want[i].LogProb {
			t.Errorf("match %d after the fault: %q %v, fresh model %q %v", i, got[i].Text, got[i].LogProb, want[i].Text, want[i].LogProb)
		}
	}
	if s := m.KVStats(); s.Handles != 0 {
		t.Errorf("%d KV handles pinned after a clean query", s.Handles)
	}
}

// TestMassReturnsDeviceFault: Mass is synchronous, so a fault is its error.
func TestMassReturnsDeviceFault(t *testing.T) {
	m := testModel(t)
	armFaults(t, "device.forward=n1")
	est, err := Mass(m, SearchQuery{Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"}}, MassOptions{})
	if est != nil || !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("Mass returned %v, %v; want the injected transient fault", est, err)
	}
}

// poisonedLM panics on any context longer than depth tokens: a model bug
// that strikes mid-query. Its ScoreBatch goes through NextLogProbs.
type poisonedLM struct {
	model.LanguageModel
	depth int
}

func (p poisonedLM) NextLogProbs(ctx []model.Token) []float64 {
	if len(ctx) > p.depth {
		panic("poison context")
	}
	return p.LanguageModel.NextLogProbs(ctx)
}

func (p poisonedLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(p, ctxs) }

// TestModelPanicIsTheQueryError: a model that panics mid-query fails that
// query's stream with a *device.ModelPanic, on every strategy, with the
// fusion scheduler in the way or not — it never takes the process down.
func TestModelPanicIsTheQueryError(t *testing.T) {
	lm, tok := testNGram()
	poisoned := poisonedLM{lm, len(tok.Encode("The")) + 1}
	for _, fused := range []bool{false, true} {
		m := NewModel(poisoned, tok, ModelOptions{ContinuousBatching: fused})
		t.Cleanup(m.Close)
		for i, strategy := range []SearchStrategy{ShortestPath, BeamSearch, RandomSampling} {
			t.Run(fmt.Sprintf("fused=%v/%s", fused, []string{"shortest", "beam", "random"}[i]), func(t *testing.T) {
				results, err := Search(m, SearchQuery{
					Query:    QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
					Strategy: strategy,
					Seed:     1,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer results.Close()
				results.Take(10)
				if mp := new(*device.ModelPanic); !errors.As(results.Err(), mp) {
					t.Errorf("stream ended with %v, want the model's panic as a *device.ModelPanic", results.Err())
				}
			})
		}
	}
}

// errPoison is what poisonCtxLM panics with.
var errPoison = errors.New("poison context")

// poisonCtxLM panics with errPoison on one context, every time it is asked.
// Before its first panic it calls wait, when set, once (through gate).
type poisonCtxLM struct {
	model.LanguageModel
	poison []model.Token
	gate   *sync.Once
	wait   func()
}

func (p poisonCtxLM) NextLogProbs(ctx []model.Token) []float64 {
	if slices.Equal(ctx, p.poison) {
		if p.wait != nil {
			p.gate.Do(p.wait)
		}
		panic(errPoison)
	}
	return p.LanguageModel.NextLogProbs(ctx)
}

func (p poisonCtxLM) ScoreBatch(ctxs [][]model.Token) [][]float64 { return model.ScoreSerial(p, ctxs) }

// TestConcurrentModelPanicReachesEveryQuery: concurrent queries over a model
// that panics on a context they all need each end with a *device.ModelPanic
// carrying the model's own value, never a cache wrapper, and a following
// query that does not need the context succeeds on the same model. Inline,
// the first panic waits until every other query is parked on its flight, so
// each of those scores the row again and meets the panic itself; fused, the
// queries share batches on a two-worker pool.
func TestConcurrentModelPanicReachesEveryQuery(t *testing.T) {
	lm, tok := testNGram()
	const queries = 4
	for _, fused := range []bool{false, true} {
		t.Run(fmt.Sprintf("fused=%v", fused), func(t *testing.T) {
			inner := poisonCtxLM{LanguageModel: lm, poison: tok.Encode("The"), gate: new(sync.Once)}
			opts := ModelOptions{ContinuousBatching: fused}
			if fused {
				opts.Pool = device.NewPool(2)
				t.Cleanup(opts.Pool.Close)
			}
			var m *Model
			if !fused {
				inner.wait = func() {
					for deadline := time.Now().Add(5 * time.Second); m.Cache().FlightStats() < queries-1; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Errorf("only %d rows parked on the poisoned flight", m.Cache().FlightStats())
							return
						}
					}
				}
			}
			m = NewModel(inner, tok, opts)
			t.Cleanup(m.Close)
			errs := make(chan error, queries)
			var wg sync.WaitGroup
			for range queries {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results, err := Search(m, SearchQuery{Query: QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"}})
					if err != nil {
						errs <- err
						return
					}
					defer results.Close()
					results.Take(10)
					errs <- results.Err()
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				var mp *device.ModelPanic
				if !errors.As(err, &mp) || mp.Value != errPoison || !errors.Is(err, errPoison) || errors.Is(err, lru.ErrAbandoned) {
					t.Errorf("query ended with %v, want a *device.ModelPanic of the model's own value", err)
				}
			}

			results, err := Search(m, SearchQuery{Query: QueryString{Pattern: " ([0-9]{3})", Prefix: "My phone number is"}})
			if err != nil {
				t.Fatal(err)
			}
			defer results.Close()
			if got := results.Take(3); len(got) == 0 || results.Err() != nil {
				t.Errorf("a healthy query after the panics: %d matches, %v", len(got), results.Err())
			}
		})
	}
}
