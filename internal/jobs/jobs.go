// Package jobs is the validation-job subsystem (DESIGN.md decision 11):
// it turns the paper's §4 evaluation suites — memorization, toxicity, bias,
// LAMBADA, urlmatch — from one-shot in-process sweeps into durable,
// resumable, sharded batch jobs. ReLM's purpose is validation at scale;
// this package is the production layer that survives a crash mid-sweep.
//
// A job is a dataset-driven worklist (one Item per prompt/pattern) sharded
// into work units and executed by a per-job worker pool over sessions of a
// shared relm.Model, so concurrent shards reuse the model's compiled-plan
// cache and KV prefix-state arena (DESIGN.md decisions 9–10). Every
// per-item result, shard completion, and checkpoint is appended to a
// hash-chained JSONL run ledger; a killed run resumes by replaying the
// ledger and re-scoring only the shards without a shard_done record, and
// the finished file is verifiable for tamper evidence after the fact.
//
// The Manager owns a priority scheduler with admission control; the serving
// layer (internal/server) exposes it as /v1/jobs and cmd/relm-audit drives
// it from the command line.
package jobs

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/trace"
)

// Statuses a job moves through. Queued → Running → one of the terminal
// three; a Cancelled or Failed job can be resumed back to Queued.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusCompleted = "completed"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// Item is one unit of validation work. The fields are suite-interpreted:
// memorization puts the URL in ID/Target, toxicity the prompt and insult in
// Prompt/Target, lambada the cloze context and answer, bias the gender and
// profession, urlmatch the candidate string in ID.
type Item struct {
	ID     string `json:"id"`
	Prompt string `json:"prompt,omitempty"`
	Target string `json:"target,omitempty"`
}

// ItemResult is one item's outcome — the deterministic payload the ledger
// exists to preserve. Two runs over the same items must produce
// byte-identical marshaled results, so nothing time- or schedule-dependent
// belongs here.
type ItemResult struct {
	ID    string  `json:"id"`
	OK    bool    `json:"ok"`
	Score float64 `json:"score"`
	Text  string  `json:"text,omitempty"`
	Err   string  `json:"err,omitempty"`
}

// Spec is a job submission. Zero-valued knobs take defaults; out-of-range
// knobs are rejected at submit time by Validate (satellite: fail with 400s,
// not mid-run).
type Spec struct {
	// Suite names the validation suite: memorization, toxicity, bias,
	// lambada, or urlmatch.
	Suite string `json:"suite"`
	// Model is the registry name of the model to validate. May be empty
	// when the manager has exactly one registered model.
	Model string `json:"model,omitempty"`
	// Priority orders the queue: higher runs first, ties in submission
	// order. Range [-100, 100].
	Priority int `json:"priority,omitempty"`
	// ShardSize is how many items form one work unit — the granularity of
	// checkpointing and resume (default 8).
	ShardSize int `json:"shard_size,omitempty"`
	// Workers is the per-job worker-pool width; each worker runs items
	// through its own relm.Session over the shared model (default 1).
	Workers int `json:"workers,omitempty"`
	// CheckpointEvery is how many completed shards between fsync'd
	// checkpoint records (default 4).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// MaxItems caps the suite's worklist (0: the suite's full list).
	MaxItems int `json:"max_items,omitempty"`
	// Variant selects a suite sub-mode (lambada: baseline/words/terminated/
	// "no stop"; default terminated).
	Variant string `json:"variant,omitempty"`
	// CancelAfterItems cancels the run after this many item results — the
	// ops/testing knob behind the crash/resume story (0: never). The
	// cancelled run resumes with `relm-audit resume`.
	CancelAfterItems int `json:"cancel_after_items,omitempty"`
}

// Spec limits enforced by Validate, mirroring the server's policy clamps
// (engine.ValidateBatch / ValidateParallelism style): reject, don't
// silently reshape a run.
const (
	MaxShardSize   = 1024
	MaxPriority    = 100
	MaxSpecItems   = 1 << 20
	MaxCheckpoint  = 1 << 10
	defaultShard   = 8
	defaultWorkers = 1
	defaultCheckpt = 4
)

// Validate rejects malformed specs at submission time. Worker counts reuse
// the engine's parallelism validator so CLI, server, and jobs agree on what
// a sane pool width is.
func (s *Spec) Validate() error {
	if s.Suite == "" {
		return fmt.Errorf("jobs: suite is required")
	}
	if s.ShardSize < 0 || s.ShardSize > MaxShardSize {
		return fmt.Errorf("jobs: shard_size must be in [0, %d] (0 = default %d), got %d",
			MaxShardSize, defaultShard, s.ShardSize)
	}
	if s.Workers != 0 {
		if err := engine.ValidateParallelism(s.Workers); err != nil {
			return fmt.Errorf("jobs: workers: %w", err)
		}
	}
	if s.CheckpointEvery < 0 || s.CheckpointEvery > MaxCheckpoint {
		return fmt.Errorf("jobs: checkpoint_every must be in [0, %d] (0 = default %d), got %d",
			MaxCheckpoint, defaultCheckpt, s.CheckpointEvery)
	}
	if s.MaxItems < 0 || s.MaxItems > MaxSpecItems {
		return fmt.Errorf("jobs: max_items must be in [0, %d], got %d", MaxSpecItems, s.MaxItems)
	}
	if s.Priority < -MaxPriority || s.Priority > MaxPriority {
		return fmt.Errorf("jobs: priority must be in [%d, %d], got %d", -MaxPriority, MaxPriority, s.Priority)
	}
	if s.CancelAfterItems < 0 {
		return fmt.Errorf("jobs: cancel_after_items must be >= 0, got %d", s.CancelAfterItems)
	}
	return nil
}

// withDefaults returns a copy with zero knobs resolved. It never clamps:
// over-limit values are rejected at submit time (Validate and the
// manager's MaxWorkers check), not silently reshaped.
func (s Spec) withDefaults() Spec {
	if s.ShardSize == 0 {
		s.ShardSize = defaultShard
	}
	if s.Workers == 0 {
		s.Workers = defaultWorkers
	}
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = defaultCheckpt
	}
	return s
}

// Progress is a job's live position through its worklist.
type Progress struct {
	Items      int `json:"items"`
	ItemsDone  int `json:"items_done"`
	Shards     int `json:"shards"`
	ShardsDone int `json:"shards_done"`
	OKItems    int `json:"ok_items"`
}

// Snapshot is one job's externally visible state, served by GET /v1/jobs
// and rendered by relm-audit watch. Engine counters are the job's own sums;
// the KV/plan blocks attribute shared model-cache deltas observed over the
// job's lifetime (best-effort under concurrent jobs on one model).
type Snapshot struct {
	ID       string   `json:"id"`
	Suite    string   `json:"suite"`
	Model    string   `json:"model"`
	Status   string   `json:"status"`
	Error    string   `json:"error,omitempty"`
	Priority int      `json:"priority"`
	Resumes  int      `json:"resumes"`
	Progress Progress `json:"progress"`

	Engine      engine.Stats `json:"engine"`
	KVHits      int64        `json:"kv_hits"`
	KVMisses    int64        `json:"kv_misses"`
	PlanHits    int64        `json:"plan_hits"`
	PlanMisses  int64        `json:"plan_misses"`
	LedgerBytes int64        `json:"ledger_bytes"`
	DurationMS  int64        `json:"duration_ms"`
	// Retries counts transient-fault retries this run spent (item re-runs
	// and ledger re-appends); Quarantined counts poison items recorded and
	// skipped instead of failing the job.
	Retries     int64 `json:"retries"`
	Quarantined int   `json:"quarantined"`
	// Stages attributes trace-stage activity (DESIGN.md decision 16) to the
	// job's lifetime: spans ended and microseconds accumulated per stage
	// while the job ran. Best-effort under concurrent jobs on one model,
	// like the KV/plan attribution; empty when the model's tracer is off.
	Stages map[string]StageDelta `json:"stages,omitempty"`
}

// StageDelta is one trace stage's share of a job's runtime.
type StageDelta struct {
	Count int64 `json:"count"`
	DurUS int64 `json:"dur_us"`
}

// stageDelta subtracts two tracer StageTotals snapshots, keeping stages
// that saw activity in between.
func stageDelta(start, end map[string]trace.StageTotal) map[string]StageDelta {
	if len(end) == 0 {
		return nil
	}
	out := map[string]StageDelta{}
	for name, e := range end {
		s := start[name]
		if d := (StageDelta{Count: e.Count - s.Count, DurUS: e.DurUS - s.DurUS}); d.Count > 0 {
			out[name] = d
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ManagerStats is the /v1/stats jobs block: lifecycle counters plus total
// ledger bytes written (satellite: alongside the kv_*/plan_* counters).
type ManagerStats struct {
	Submitted   int64 `json:"submitted" metric:"relm_jobs_submitted_total,counter,Validation jobs submitted."`
	Queued      int64 `json:"queued" metric:"relm_jobs_queued,gauge,Jobs waiting to run."`
	Running     int64 `json:"running" metric:"relm_jobs_running,gauge,Jobs currently running."`
	Completed   int64 `json:"completed" metric:"relm_jobs_completed_total,counter,Jobs finished successfully."`
	Failed      int64 `json:"failed" metric:"relm_jobs_failed_total,counter,Jobs that failed."`
	Cancelled   int64 `json:"cancelled" metric:"relm_jobs_cancelled_total,counter,Jobs cancelled."`
	Resumed     int64 `json:"resumed" metric:"relm_jobs_resumed_total,counter,Jobs resumed from the ledger."`
	ItemsDone   int64 `json:"items_done" metric:"relm_jobs_items_done_total,counter,Work items completed across jobs."`
	LedgerBytes int64 `json:"ledger_bytes" metric:"relm_jobs_ledger_bytes,gauge,Bytes written to the job ledger."`
	Retries     int64 `json:"retries" metric:"relm_jobs_retries_total,counter,Work-item retries."`
	Quarantined int64 `json:"quarantined" metric:"relm_jobs_quarantined_total,counter,Work items quarantined after retry exhaustion."`
}
