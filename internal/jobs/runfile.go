package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/engine"
)

// ledger record payloads -------------------------------------------------

type headerData struct {
	JobID     string `json:"job_id"`
	Suite     string `json:"suite"`
	Model     string `json:"model"`
	ModelFP   string `json:"model_fp"`
	Spec      Spec   `json:"spec"`
	Items     int    `json:"items"`
	ItemsHash string `json:"items_hash"`
	Shards    int    `json:"shards"`
}

type itemData struct {
	Shard  int        `json:"shard"`
	Index  int        `json:"index"`
	Result ItemResult `json:"result"`
}

type shardDoneData struct {
	Shard int `json:"shard"`
	Items int `json:"items"`
}

type checkpointData struct {
	ShardsDone int `json:"shards_done"`
	ItemsDone  int `json:"items_done"`
}

type resumeData struct {
	Attempt    int `json:"attempt"`
	ShardsDone int `json:"shards_done"`
	ItemsDone  int `json:"items_done"`
}

type cancelData struct {
	Reason    string `json:"reason,omitempty"`
	ItemsDone int    `json:"items_done"`
}

type quarantineData struct {
	Shard    int    `json:"shard"`
	Index    int    `json:"index"`
	Attempts int    `json:"attempts"`
	Error    string `json:"error"`
}

type completeData struct {
	ItemsDone int          `json:"items_done"`
	OKItems   int          `json:"ok_items"`
	Engine    engine.Stats `json:"engine"`
	// Stages is the job's trace-stage breakdown (DESIGN.md decision 16),
	// durable in the ledger so `relm-audit report` can attribute a finished
	// sweep's time per pipeline stage.
	Stages map[string]StageDelta `json:"stages,omitempty"`
}

// payloads makes an empty payload for each record kind.
var payloads = map[string]func() interface{}{
	kindHeader:     func() interface{} { return &headerData{} },
	kindItem:       func() interface{} { return &itemData{} },
	kindShardDone:  func() interface{} { return &shardDoneData{} },
	kindCheckpoint: func() interface{} { return &checkpointData{} },
	kindResume:     func() interface{} { return &resumeData{} },
	kindCancel:     func() interface{} { return &cancelData{} },
	kindQuarantine: func() interface{} { return &quarantineData{} },
	kindComplete:   func() interface{} { return &completeData{} },
}

// decode unmarshals a record's payload into a pointer to its kind's type,
// with strict fields, so ledger format drift fails loudly on replay rather
// than zero-filling.
func decode(rec Record) (interface{}, error) {
	mk, ok := payloads[rec.Kind]
	if !ok {
		return nil, fmt.Errorf("ledger: unknown record kind %q at seq %d", rec.Kind, rec.Seq)
	}
	p := mk()
	dec := json.NewDecoder(bytes.NewReader(rec.Data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(p); err != nil {
		return nil, fmt.Errorf("ledger: decode %s record seq %d: %w", rec.Kind, rec.Seq, err)
	}
	return p, nil
}

// runState is what a run's records say about it. apply is its only
// transition: a live run applies each record once the ledger holds it, and
// Resume and ReadRun apply a replayed file's records, so a job's state is
// always the fold of its ledger.
type runState struct {
	results    map[int]ItemResult // item index -> result; the first record wins
	doneShards map[int]bool
	// quarantined marks poison items: their execution exhausted the
	// transient retry budget or hit a permanent fault, so they are recorded
	// and skipped — kept out of results so the merged result set stays
	// byte-deterministic — instead of failing the whole sweep.
	quarantined map[int]bool
	okItems     int
	resumes     int
	// terminal is the kind of the last resume, cancel or complete record: a
	// resumed run is neither cancelled nor completed until it ends again.
	terminal string
	// engine and stages are the last complete record's.
	engine engine.Stats
	stages map[string]StageDelta
}

func newRunState() runState {
	return runState{results: map[int]ItemResult{}, doneShards: map[int]bool{}, quarantined: map[int]bool{}}
}

// apply folds one record's payload, as decode returns it, into the state.
func (s *runState) apply(payload interface{}) {
	switch d := payload.(type) {
	case *itemData:
		if _, dup := s.results[d.Index]; !dup {
			s.results[d.Index] = d.Result
			if d.Result.OK {
				s.okItems++
			}
		}
	case *shardDoneData:
		s.doneShards[d.Shard] = true
	case *quarantineData:
		s.quarantined[d.Index] = true
	case *resumeData:
		s.resumes++
		s.terminal = kindResume
	case *cancelData:
		s.terminal = kindCancel
	case *completeData:
		s.terminal = kindComplete
		s.engine, s.stages = d.Engine, d.Stages
	}
}

// ordered returns the results of items [0, n) in worklist order.
func (s *runState) ordered(n int) []ItemResult {
	out := make([]ItemResult, 0, len(s.results))
	for i := 0; i < n; i++ {
		if r, ok := s.results[i]; ok {
			out = append(out, r)
		}
	}
	return out
}

// fold decodes replayed records and applies them in order, returning the
// header and the state the run's records describe. An item whose index is
// outside the header's worklist is an error: no run records one.
func fold(recs []Record) (*headerData, runState, error) {
	st := newRunState()
	if len(recs) == 0 || recs[0].Kind != kindHeader {
		return nil, st, fmt.Errorf("ledger: no header record")
	}
	p, err := decode(recs[0])
	if err != nil {
		return nil, st, err
	}
	hdr := p.(*headerData)
	for _, rec := range recs[1:] {
		if p, err = decode(rec); err != nil {
			return nil, st, err
		}
		if d, ok := p.(*itemData); ok && (d.Index < 0 || d.Index >= hdr.Items) {
			return nil, st, fmt.Errorf("ledger: item index %d at seq %d is outside the worklist of %d", d.Index, rec.Seq, hdr.Items)
		}
		st.apply(p)
	}
	return hdr, st, nil
}

// RunFile is a fully replayed, chain-verified run ledger — the read-only
// view relm-audit's verify and report subcommands work from. Unlike
// Manager.Resume it needs no env or model: everything comes from the file.
type RunFile struct {
	JobID   string `json:"job_id"`
	Suite   string `json:"suite"`
	Model   string `json:"model"`
	ModelFP string `json:"model_fp"`
	Spec    Spec   `json:"spec"`

	Records int `json:"records"`
	Items   int `json:"items"`
	Shards  int `json:"shards"`
	Resumes int `json:"resumes"`
	// Completed and Cancelled reflect the last resume, cancel or complete
	// record: a run resumed after a cancel is neither until it ends again.
	Completed bool `json:"completed"`
	Cancelled bool `json:"cancelled"`

	// Results is the merged per-item result set in worklist order
	// (first-wins on duplicates, as in Manager.Resume).
	Results []ItemResult `json:"results"`
	OKItems int          `json:"ok_items"`
	// Engine carries the complete record's work counters (zero until the
	// run completes).
	Engine engine.Stats `json:"engine"`
	// Stages is the complete record's trace-stage breakdown (empty until
	// the run completes, or when tracing was off).
	Stages map[string]StageDelta `json:"stages,omitempty"`
	Bytes  int64                 `json:"bytes"`
}

// ReadRun strictly verifies and replays a run ledger. The error is a
// *ChainError when the chain is broken.
func ReadRun(path string) (*RunFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	recs, _, err := replay(raw, false)
	if err != nil {
		return nil, err
	}
	hdr, st, err := fold(recs)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &RunFile{
		JobID:     hdr.JobID,
		Suite:     hdr.Suite,
		Model:     hdr.Model,
		ModelFP:   hdr.ModelFP,
		Spec:      hdr.Spec,
		Records:   len(recs),
		Items:     hdr.Items,
		Shards:    hdr.Shards,
		Resumes:   st.resumes,
		Completed: st.terminal == kindComplete,
		Cancelled: st.terminal == kindCancel,
		Results:   st.ordered(hdr.Items),
		OKItems:   st.okItems,
		Engine:    st.engine,
		Stages:    st.stages,
		Bytes:     int64(len(raw)),
	}, nil
}
