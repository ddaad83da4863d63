package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// modelTimer collects what the timing decorator sees on one raw model: the
// per-layer "model.*" numbers, taken from outside the program. A call is one
// invocation of a scoring method; rows are the contexts it scored.
type modelTimer struct {
	calls     atomic.Int64
	rows      atomic.Int64
	busyNS    atomic.Int64
	prefillNS atomic.Int64
	extendNS  atomic.Int64

	// delay, when positive, is spun away inside every decorated call
	// (-sensitivity): a known amount of extra model time whose effect on the
	// end-to-end numbers can be predicted from calls-per-op.
	delay time.Duration

	// states keeps the first few decode states the model produced, as input
	// for the standalone kvcache probe. Only the traced stack keeps them
	// (keep is set): the end-to-end phase must measure the program alone,
	// without the harness pinning states or taking a lock per call.
	keep   bool
	mu     sync.Mutex
	states []model.DecodeState
}

const maxRecordedStates = 512

type timerSnapshot struct {
	calls, rows              int64
	busy, prefill, extendDur time.Duration
}

func (t *modelTimer) snapshot() timerSnapshot {
	return timerSnapshot{
		calls:     t.calls.Load(),
		rows:      t.rows.Load(),
		busy:      time.Duration(t.busyNS.Load()),
		prefill:   time.Duration(t.prefillNS.Load()),
		extendDur: time.Duration(t.extendNS.Load()),
	}
}

func (a timerSnapshot) sub(b timerSnapshot) timerSnapshot {
	return timerSnapshot{
		calls:     a.calls - b.calls,
		rows:      a.rows - b.rows,
		busy:      a.busy - b.busy,
		prefill:   a.prefill - b.prefill,
		extendDur: a.extendDur - b.extendDur,
	}
}

func (a timerSnapshot) add(b timerSnapshot) timerSnapshot {
	return timerSnapshot{
		calls:     a.calls + b.calls,
		rows:      a.rows + b.rows,
		busy:      a.busy + b.busy,
		prefill:   a.prefill + b.prefill,
		extendDur: a.extendDur + b.extendDur,
	}
}

// done records one finished call that started at t0 and returns its length.
func (t *modelTimer) done(t0 time.Time, rows int) time.Duration {
	if t.delay > 0 {
		// Spin, not sleep: a 200µs sleep overshoots by a scheduler quantum.
		for end := time.Now().Add(t.delay); time.Now().Before(end); {
		}
	}
	d := time.Since(t0)
	t.calls.Add(1)
	t.rows.Add(int64(rows))
	t.busyNS.Add(int64(d))
	return d
}

func (t *modelTimer) record(states []model.DecodeState) {
	if !t.keep {
		return
	}
	t.mu.Lock()
	for _, st := range states {
		if len(t.states) >= maxRecordedStates {
			break
		}
		t.states = append(t.states, st)
	}
	t.mu.Unlock()
}

func (t *modelTimer) recorded() []model.DecodeState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]model.DecodeState(nil), t.states...)
}

// timedLM decorates a window model (no Incremental, no AllPositions).
type timedLM struct {
	inner model.LanguageModel
	t     *modelTimer
}

func (m *timedLM) VocabSize() int   { return m.inner.VocabSize() }
func (m *timedLM) EOS() model.Token { return m.inner.EOS() }
func (m *timedLM) MaxSeqLen() int   { return m.inner.MaxSeqLen() }

// HasPrefixStates forwards the wrapped model's answer (false when it has no
// opinion), so the arena-caching decision is the one the raw model would get.
func (m *timedLM) HasPrefixStates() bool { return model.HasPrefixStates(m.inner) }

func (m *timedLM) NextLogProbs(ctx []model.Token) []float64 {
	t0 := time.Now()
	lp := m.inner.NextLogProbs(ctx)
	m.t.done(t0, 1)
	return lp
}

func (m *timedLM) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	t0 := time.Now()
	rows := m.inner.ScoreBatch(ctxs)
	m.t.done(t0, len(ctxs))
	return rows
}

// timedIncLM decorates a prefix-stateful model: it adds exactly the
// Incremental and AllPositions methods the wrapped model has, so the cache
// and device layers take the same branches they would on the raw model.
type timedIncLM struct {
	timedLM
	inc model.Incremental
	ap  model.AllPositions
}

func (m *timedIncLM) Prefill(ctx []model.Token) (model.DecodeState, []float64) {
	t0 := time.Now()
	st, lp := m.inc.Prefill(ctx)
	m.t.prefillNS.Add(int64(m.t.done(t0, 1)))
	m.t.record([]model.DecodeState{st})
	return st, lp
}

func (m *timedIncLM) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64) {
	t0 := time.Now()
	out, rows := m.inc.ExtendBatch(states, tokens)
	m.t.extendNS.Add(int64(m.t.done(t0, len(states))))
	m.t.record(out)
	return out, rows
}

func (m *timedIncLM) ScoreAllPositions(seq []model.Token) [][]float64 {
	t0 := time.Now()
	rows := m.ap.ScoreAllPositions(seq)
	m.t.done(t0, len(seq))
	return rows
}

// wrapModel puts the timing decorator around a raw model. The repo's models
// come in two shapes — window models with neither optional interface, and
// the transformer with both — and anything else is refused rather than
// silently given a different code path.
func wrapModel(lm model.LanguageModel, t *modelTimer) (model.LanguageModel, error) {
	inc, isInc := lm.(model.Incremental)
	ap, isAP := lm.(model.AllPositions)
	base := timedLM{inner: lm, t: t}
	switch {
	case isInc && isAP:
		return &timedIncLM{timedLM: base, inc: inc, ap: ap}, nil
	case !isInc && !isAP:
		return &base, nil
	default:
		return nil, fmt.Errorf("relmperf: model %T implements only one of Incremental/AllPositions; the decorator has no matching shape", lm)
	}
}
