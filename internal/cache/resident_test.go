package cache

import (
	"reflect"
	"testing"

	"repro/internal/model"
)

// The resident probe (resident.go): what the device asks before it
// dispatches. Hits are handed out, counted and bumped exactly as ScoreBatch
// would; everything else is left for the dispatch to classify.

func TestResidentRowsAnswersOnlyWhatIsCached(t *testing.T) {
	inner := newCounting()
	c := New(inner, 16)
	ctxs := [][]model.Token{tok(1), tok(1, 2), tok(3), tok(1)}
	want := c.ScoreBatch([][]model.Token{tok(1), tok(3)})
	h0, m0 := c.Stats()

	out := make([][]float64, len(ctxs))
	if n := c.ResidentRows(ctxs, out); n != 3 {
		t.Fatalf("probe answered %d rows, want 3 (both copies of [1], and [3])", n)
	}
	if out[1] != nil {
		t.Errorf("probe filled a row the cache does not hold")
	}
	if !reflect.DeepEqual(out[0], want[0]) || !reflect.DeepEqual(out[2], want[1]) || !reflect.DeepEqual(out[3], want[0]) {
		t.Errorf("probe rows differ from ScoreBatch's")
	}
	if h, m := c.Stats(); h-h0 != 3 || m != m0 {
		t.Errorf("probe counted %d hits / %d misses, want 3 / 0", h-h0, m-m0)
	}
	if inner.calls != 2 {
		t.Errorf("probe reached the inner model (%d rows computed)", inner.calls-2)
	}
	// The LRU's own rows, shared by both slots asking for one context.
	if &out[0][0] != &want[0][0] || &out[3][0] != &want[0][0] || &out[2][0] != &want[1][0] {
		t.Errorf("probe rows are copies of the cache's storage")
	}
}

func TestResidentRowsBumpsRecency(t *testing.T) {
	c := New(newCounting(), 2)
	c.NextLogProbs(tok(1))
	c.NextLogProbs(tok(2))
	c.ResidentRows([][]model.Token{tok(1)}, make([][]float64, 1)) // [1] is now the most recent
	c.NextLogProbs(tok(3))                                        // evicts [2]
	out := make([][]float64, 2)
	c.ResidentRows([][]model.Token{tok(1), tok(2)}, out)
	if out[0] == nil || out[1] != nil {
		t.Errorf("after a probe of [1]: [1] resident=%v, [2] resident=%v; want true, false", out[0] != nil, out[1] != nil)
	}
}

// TestMissCountsOnceInTheSketch: the device's resident probe and then
// ScoreBatch both miss a context, and the admission sketch counts the request
// once, when ScoreBatch adds the row; each later hit counts once more.
func TestMissCountsOnceInTheSketch(t *testing.T) {
	c := New(newCounting(), 64)
	ctx := tok(4, 2)
	key := model.AppendKey(nil, ctx)
	if n := c.ResidentRows([][]model.Token{ctx}, make([][]float64, 1)); n != 0 {
		t.Fatalf("probe of a cold cache answered %d rows", n)
	}
	if f := c.rows.Frequency(key); f != 0 {
		t.Fatalf("a probe miss counted %d in the sketch, want 0", f)
	}
	c.ScoreBatch([][]model.Token{ctx})
	if f := c.rows.Frequency(key); f != 1 {
		t.Fatalf("a probe miss then a ScoreBatch miss counted %d in the sketch, want 1", f)
	}
	c.ResidentRows([][]model.Token{ctx}, make([][]float64, 1))
	c.NextLogProbs(ctx)
	if f := c.rows.Frequency(key); f != 3 {
		t.Fatalf("two hits after the miss: count %d, want 3", f)
	}
}

// TestResidentAllPositionsIsAllOrNothing covers both inner shapes: a window
// model (rows through scoreBatch) and the transformer's one-forward path.
func TestResidentAllPositionsIsAllOrNothing(t *testing.T) {
	tlm, ttok := testTransformer(t)
	for name, tc := range map[string]struct {
		inner model.LanguageModel
		warm  []model.Token
		cold  []model.Token // shares leading positions with warm, then leaves it
	}{
		"window":      {newCounting(), tok(1, 2, 3), tok(1, 2, 4, 5)},
		"transformer": {tlm, ttok.Encode("the dog ran in"), ttok.Encode("the dog sat on the")},
	} {
		t.Run(name, func(t *testing.T) {
			c := New(tc.inner, 128)
			s := c.NewScope()
			want := c.ScoreAllPositions(tc.warm)
			h0, m0 := c.Stats()

			seqs := [][]model.Token{tc.cold, tc.warm, nil}
			out := make([][][]float64, len(seqs))
			if n := s.ResidentAllPositions(seqs, out); n != 1 {
				t.Fatalf("probe answered %d sequences, want 1", n)
			}
			if out[0] != nil {
				t.Errorf("probe answered a sequence with a missing position")
			}
			if out[2] != nil {
				t.Errorf("probe answered the empty sequence; it is left to dispatch")
			}
			if !reflect.DeepEqual(out[1], want) {
				t.Errorf("probe rows differ from ScoreAllPositions'")
			}
			// Only the answered sequence counts: a sequence that goes on to
			// dispatch is classified there, once.
			if h, m := c.Stats(); h-h0 != int64(len(tc.warm)) || m != m0 {
				t.Errorf("probe counted %d hits / %d misses, want %d / 0", h-h0, m-m0, len(tc.warm))
			}
			if st := s.Tally(); st.Hits != int64(len(tc.warm)) || st.Misses+st.Flights != 0 {
				t.Errorf("scope attributed %+v, want %d hits", st, len(tc.warm))
			}
			for p := range want {
				if &out[1][p][0] != &want[p][0] {
					t.Errorf("probe row %d is a copy of the cache's storage", p)
				}
			}
		})
	}
}

func TestScopeResidentRowsAttributesHits(t *testing.T) {
	c := New(newCounting(), 16)
	a, b := c.NewScope(), c.NewScope()
	ctxs := scopeCtxs(4)
	a.ScoreBatch(ctxs[:3])

	out := make([][]float64, len(ctxs))
	if n := b.ResidentRows(ctxs, out); n != 3 {
		t.Fatalf("probe answered %d rows, want 3", n)
	}
	if st := b.Tally(); st.Hits != 3 || st.Misses+st.Flights != 0 {
		t.Errorf("probing scope attributed %+v, want 3 hits", st)
	}
	if st := a.Tally(); st.Hits != 0 || st.Misses != 3 {
		t.Errorf("computing scope attributed %+v, want 3 misses", st)
	}
}
