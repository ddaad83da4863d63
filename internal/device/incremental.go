package device

import (
	"repro/internal/fault"
	"repro/internal/model"
)

// Incremental dispatch (DESIGN.md decision 10). These entry points take
// Forward's dispatch path but price what an accelerator actually executes: a
// Prefill pays for every context token, an ExtendBatch pays for exactly one
// new token per sequence, and ScoreAll pays for one causal pass over the
// sequence instead of one pass per position. The virtual clock therefore
// shows the same asymptotic win the wall clock does.

// Prefill computes decode states and next-token log-probs for ctxs in one
// dispatch. Cost: one batch at the full token count (identical to Forward on
// the same contexts). Errors are Forward's: a *fault.Fault or a *ModelPanic.
func (d *Device) Prefill(ctxs [][]model.Token) ([]model.DecodeState, [][]float64, error) {
	return d.stateful(fault.DevicePrefill, &request{
		kind:      reqPrefill,
		ctxs:      ctxs,
		rows:      make([][]float64, len(ctxs)),
		outStates: make([]model.DecodeState, len(ctxs)),
	})
}

// ExtendBatch advances each state by one token in one dispatch. Cost: one
// token per sequence — the incremental saving, on the virtual clock.
func (d *Device) ExtendBatch(states []model.DecodeState, tokens []model.Token) ([]model.DecodeState, [][]float64, error) {
	return d.stateful(fault.DeviceExtend, &request{
		kind:      reqExtend,
		states:    states,
		tokens:    tokens,
		rows:      make([][]float64, len(states)),
		outStates: make([]model.DecodeState, len(states)),
	})
}

// stateful runs a Prefill or ExtendBatch request behind the fault point name.
func (d *Device) stateful(name string, r *request) ([]model.DecodeState, [][]float64, error) {
	if err := d.inject(name); err != nil {
		return nil, nil, err
	}
	if err := d.dispatch(name, r, len(r.rows)); err != nil {
		return nil, nil, err
	}
	return r.outStates, r.rows, nil
}

// ScoreAll returns every position's next-token log-probs for each sequence
// (row p of a sequence's result conditions on its first p tokens). Cost: one
// sequence at its token count per entry — one causal pass, not len(seq)
// row-expanded contexts — for the sequences with a position the view's model
// does not already hold; fully resident sequences are answered before
// dispatch, like Forward's rows. Errors are Forward's.
func (d *Device) ScoreAll(seqs [][]model.Token) ([][][]float64, error) {
	return residentFirst(d, fault.DeviceScoreAll, seqs, model.Resident.ResidentAllPositions,
		func(seqs [][]model.Token, out [][][]float64) *request {
			return &request{kind: reqScoreAll, ctxs: seqs, allRows: out}
		})
}
