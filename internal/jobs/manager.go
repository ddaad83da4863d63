package jobs

import (
	"container/heap"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/trace"
	"repro/relm"
)

// Error classes the serving layer maps to HTTP statuses.
var (
	// ErrInvalid marks a submission defect (400).
	ErrInvalid = errors.New("jobs: invalid submission")
	// ErrUnknownModel marks a registry miss (404).
	ErrUnknownModel = errors.New("jobs: unknown model")
	// ErrQueueFull marks admission-control rejection (429).
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrNotFound marks an unknown job id (404).
	ErrNotFound = errors.New("jobs: no such job")
)

// Config sizes a Manager. Zero values take the listed defaults.
type Config struct {
	// Dir is where run ledgers live (required).
	Dir string
	// Env supplies the suites' datasets and worklists (required).
	Env *experiments.Env
	// MaxActive bounds jobs running concurrently (default 2).
	MaxActive int
	// MaxQueued bounds jobs awaiting dispatch; submissions beyond it are
	// rejected — admission control, not queueing to infinity (default 16).
	MaxQueued int
	// MaxWorkers caps any job's worker-pool width (default NumCPU).
	MaxWorkers int
	// ItemAttempts is the per-item execution budget under transient faults,
	// including the first attempt (default 8). An item that exhausts it — or
	// hits a permanent fault — is quarantined into the ledger rather than
	// failing the job. The default is sized for fault storms: at a 5%
	// per-dispatch fault rate an item making tens of device calls fails some
	// attempt fairly often, and a small budget would quarantine a visible
	// fraction of a healthy sweep.
	ItemAttempts int
}

func (c *Config) defaults() {
	if c.MaxActive <= 0 {
		c.MaxActive = 2
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 16
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.NumCPU()
	}
	if c.ItemAttempts <= 0 {
		c.ItemAttempts = 8
	}
}

// Manager owns the validation-job subsystem: a model registry, a priority
// scheduler with admission control, and one run ledger per job under
// Config.Dir.
type Manager struct {
	cfg Config

	mu      sync.Mutex
	models  map[string]*relm.Model
	jobs    map[string]*Job
	queue   jobHeap
	active  int
	paused  bool
	pending map[string]bool // job ids admitted and not yet enqueued
	nextID  int
	nextSeq int64 // queue tiebreaker across submissions

	submitted   atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	resumed     atomic.Int64
	itemsDone   atomic.Int64
	retries     atomic.Int64
	quarantined atomic.Int64
}

// NewManager builds a manager, creating the ledger directory.
func NewManager(cfg Config) (*Manager, error) {
	cfg.defaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobs: Config.Dir is required")
	}
	if cfg.Env == nil {
		return nil, fmt.Errorf("jobs: Config.Env is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Manager{
		cfg:     cfg,
		models:  map[string]*relm.Model{},
		jobs:    map[string]*Job{},
		pending: map[string]bool{},
	}, nil
}

// admit reserves a queue slot under admission control for job id, or for
// a fresh id when id is empty, and returns the id. The id stays pending
// until enqueue consumes the reservation or unadmit returns it, and a
// pending or live job cannot be admitted again: two resumes of one job
// would open two append handles on its ledger and interleave records,
// permanently breaking the hash chain. Reserving (rather than checking
// twice) keeps MaxQueued a hard bound under concurrent submissions.
func (m *Manager) admit(id string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending[id] {
		return "", fmt.Errorf("%w: job %s is already being admitted", ErrInvalid, id)
	}
	if j, ok := m.jobs[id]; ok {
		if st := j.Status(); st == StatusQueued || st == StatusRunning {
			return "", fmt.Errorf("%w: job %s is %s", ErrInvalid, id, st)
		}
	}
	if len(m.queue)+len(m.pending) >= m.cfg.MaxQueued {
		return "", fmt.Errorf("%w (%d queued)", ErrQueueFull, m.cfg.MaxQueued)
	}
	for id == "" {
		m.nextID++
		next := fmt.Sprintf("job-%04d", m.nextID)
		if _, err := os.Stat(m.LedgerPath(next)); os.IsNotExist(err) {
			id = next
		}
	}
	m.pending[id] = true
	return id, nil
}

func (m *Manager) unadmit(id string) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// RegisterModel adds a model to the registry under name.
func (m *Manager) RegisterModel(name string, model *relm.Model) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.models[name] = model
}

// lookupModel resolves a registry name; empty resolves iff exactly one
// model is registered (mirrors the server's rule).
func (m *Manager) lookupModel(name string) (*relm.Model, string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == "" {
		if len(m.models) == 1 {
			for n, mod := range m.models {
				return mod, n, nil
			}
		}
		return nil, "", fmt.Errorf("%w: model is required (registry has %d models)", ErrInvalid, len(m.models))
	}
	mod, ok := m.models[name]
	if !ok {
		return nil, "", fmt.Errorf("%w %q", ErrUnknownModel, name)
	}
	return mod, name, nil
}

// Job is one validation run: a sharded worklist bound to a suite, a model,
// and a ledger. All mutable state is guarded by mu; Wait blocks until the
// run reaches a terminal status.
type Job struct {
	ID     string
	Spec   Spec
	suite  Suite
	model  *relm.Model
	ledger *Ledger
	items  []Item
	shards [][]int // shard -> item indices

	mu       sync.Mutex
	status   string
	errMsg   string
	state    runState // the fold of the ledger's records
	engine   engine.Stats
	started  time.Time
	finished time.Time

	kvStart   relm.KVStats
	planStart relm.PlanCacheStats
	// stageStart snapshots the model tracer's per-stage totals at dispatch;
	// the delta against the terminal snapshot is the job's stage breakdown.
	stageStart map[string]trace.StageTotal
	// kvEnd/planEnd/stageEnd freeze the shared-model counters at the
	// terminal transition so a finished job's attribution stops accumulating
	// other jobs' traffic on the same model.
	kvEnd    relm.KVStats
	planEnd  relm.PlanCacheStats
	stageEnd map[string]trace.StageTotal

	cancelCtx context.CancelFunc
	done      chan struct{}
	// wake is closed by the next applied record or status change; Since
	// makes it only for a reader that follows the job.
	wake chan struct{}

	queueSeq int64 // submission order, the priority tiebreaker
	heapIdx  int

	retries atomic.Int64 // transient-fault retries (items + ledger ops)
}

// itemsHash fingerprints the worklist so a resume against a different env
// (seed, scale, suite sizing) is refused instead of silently merging
// incomparable results.
func itemsHash(items []Item) string {
	h := sha256.New()
	for _, it := range items {
		fmt.Fprintf(h, "%d:%s|%d:%s|%d:%s\n",
			len(it.ID), it.ID, len(it.Prompt), it.Prompt, len(it.Target), it.Target)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shardIndices splits n items into contiguous shards of size sz.
func shardIndices(n, sz int) [][]int {
	var shards [][]int
	for start := 0; start < n; start += sz {
		end := min(start+sz, n)
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		shards = append(shards, idx)
	}
	return shards
}

// LedgerPath returns where a job's run ledger lives.
func (m *Manager) LedgerPath(id string) string {
	return filepath.Join(m.cfg.Dir, id+".jsonl")
}

// newJob builds a queued job over spec's suite worklist and registered
// model, with the empty run state: Submit gives it a new ledger, Resume the
// state its replayed ledger folds to.
func (m *Manager) newJob(spec Spec) (*Job, error) {
	suite, err := NewSuite(m.cfg.Env, spec)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	model, modelName, err := m.lookupModel(spec.Model)
	if err != nil {
		return nil, err
	}
	spec.Model = modelName
	items := suite.Items(spec.MaxItems)
	return &Job{
		Spec:   spec,
		suite:  suite,
		model:  model,
		items:  items,
		shards: shardIndices(len(items), spec.ShardSize),
		status: StatusQueued,
		state:  newRunState(),
		done:   make(chan struct{}),
	}, nil
}

// header is the job's identity record: Submit writes it, and Resume
// refuses a ledger whose model fingerprint or item-list hash differ.
func (j *Job) header() *headerData {
	return &headerData{
		JobID:     j.ID,
		Suite:     j.Spec.Suite,
		Model:     j.Spec.Model,
		ModelFP:   j.model.Fingerprint(),
		Spec:      j.Spec,
		Items:     len(j.items),
		ItemsHash: itemsHash(j.items),
		Shards:    len(j.shards),
	}
}

// Submit validates a spec, writes the ledger header, and enqueues the job.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	spec = spec.withDefaults()
	if spec.Workers > m.cfg.MaxWorkers {
		return nil, fmt.Errorf("%w: workers must be <= %d, got %d", ErrInvalid, m.cfg.MaxWorkers, spec.Workers)
	}
	j, err := m.newJob(spec)
	if err != nil {
		return nil, err
	}
	if len(j.items) == 0 {
		return nil, fmt.Errorf("%w: suite %q produced no items", ErrInvalid, spec.Suite)
	}
	seen := make(map[string]struct{}, len(j.items))
	for _, it := range j.items {
		// Result merging, resume dedup, and NDJSON streaming all key on
		// item IDs; a colliding worklist would silently drop results.
		if _, dup := seen[it.ID]; dup {
			return nil, fmt.Errorf("%w: suite %q produced duplicate item id %q", ErrInvalid, spec.Suite, it.ID)
		}
		seen[it.ID] = struct{}{}
	}

	if j.ID, err = m.admit(""); err != nil {
		return nil, err
	}
	if j.ledger, err = CreateLedger(m.LedgerPath(j.ID)); err != nil {
		m.unadmit(j.ID)
		return nil, err
	}
	if _, err := j.ledger.Append(kindHeader, j.header()); err != nil {
		_ = j.ledger.Close() // the Append error already aborts the submit
		m.unadmit(j.ID)
		return nil, err
	}
	m.submitted.Add(1)
	m.enqueue(j)
	return j, nil
}

// Resume replays a job's ledger and re-enqueues it, skipping every shard
// with a shard_done record and every item already recorded. The ledger's
// hash chain must verify, and the header's model fingerprint and item-list
// hash must match the manager's current model and env — resuming a run
// against a different world would merge incomparable results.
func (m *Manager) Resume(id string) (*Job, error) {
	if _, err := m.admit(id); err != nil {
		return nil, err
	}
	ledger, recs, err := OpenLedger(m.LedgerPath(id))
	if err != nil {
		m.unadmit(id)
		if os.IsNotExist(errors.Unwrap(err)) {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return nil, err
	}
	// fail closes the ledger and returns the admission reservation on every
	// error path past this point.
	fail := func(err error) (*Job, error) {
		_ = ledger.Close() // resume already failed; the original error wins
		m.unadmit(id)
		return nil, err
	}
	hdr, state, err := fold(recs)
	if err != nil {
		return fail(fmt.Errorf("%w: %s: %v", ErrInvalid, id, err))
	}
	spec := hdr.Spec.withDefaults()
	// The kill switch belongs to the run that carried it, not the job: a
	// resume exists to finish the sweep, not to re-cancel it.
	spec.CancelAfterItems = 0
	// Unlike Submit, an over-wide Workers knob is clamped here rather than
	// rejected: a resume on a smaller machine than the submitter must not
	// fail, and pool width changes only execution speed, never results.
	if spec.Workers > m.cfg.MaxWorkers {
		spec.Workers = m.cfg.MaxWorkers
	}
	j, err := m.newJob(spec)
	if err != nil {
		return fail(err)
	}
	if want := j.header(); want.ModelFP != hdr.ModelFP {
		return fail(fmt.Errorf("%w: model %q fingerprint %.12s does not match ledger header %.12s",
			ErrInvalid, want.Model, want.ModelFP, hdr.ModelFP))
	} else if want.ItemsHash != hdr.ItemsHash {
		return fail(fmt.Errorf("%w: item list hash %.12s does not match ledger header %.12s (env changed?)",
			ErrInvalid, want.ItemsHash, hdr.ItemsHash))
	}
	j.ID, j.ledger, j.state = id, ledger, state
	resume := &resumeData{Attempt: state.resumes + 1, ShardsDone: len(state.doneShards), ItemsDone: len(state.results)}
	if _, err := ledger.Append(kindResume, resume); err != nil {
		return fail(err)
	}
	j.state.apply(resume)
	m.resumed.Add(1)
	m.enqueue(j)
	return j, nil
}

// enqueue registers the job and kicks the dispatcher, consuming the
// admission reservation Submit/Resume took.
func (m *Manager) enqueue(j *Job) {
	m.mu.Lock()
	delete(m.pending, j.ID)
	m.nextSeq++
	j.queueSeq = m.nextSeq
	m.jobs[j.ID] = j
	heap.Push(&m.queue, j)
	m.dispatchLocked()
	m.mu.Unlock()
}

// PauseDispatch stops starting queued jobs (running jobs continue) — the
// drain switch for maintenance windows. Submissions still validate, write
// their ledger header, and queue under admission control.
func (m *Manager) PauseDispatch() {
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()
}

// ResumeDispatch restarts the scheduler after PauseDispatch.
func (m *Manager) ResumeDispatch() {
	m.mu.Lock()
	m.paused = false
	m.dispatchLocked()
	m.mu.Unlock()
}

// dispatchLocked starts queued jobs while run slots are free. Caller holds
// m.mu.
func (m *Manager) dispatchLocked() {
	for !m.paused && m.active < m.cfg.MaxActive && len(m.queue) > 0 {
		j := heap.Pop(&m.queue).(*Job)
		j.mu.Lock()
		if j.status != StatusQueued { // cancelled while queued
			j.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j.status = StatusRunning
		j.started = time.Now()
		j.cancelCtx = cancel
		j.kvStart = j.model.KVStats()
		j.planStart = j.model.PlanCacheStats()
		j.stageStart = j.model.Tracer().StageTotals()
		j.wakeLocked()
		j.mu.Unlock()
		m.active++
		go m.runJob(j, ctx)
	}
}

// runJob executes every not-yet-done shard on a worker pool of sessions.
func (m *Manager) runJob(j *Job, ctx context.Context) {
	var wg sync.WaitGroup
	shardCh := make(chan int)
	var shardsThisRun, itemsThisRun atomic.Int64
	var appendErr atomic.Value // error

	retried := func(int, error) {
		j.retries.Add(1)
		m.retries.Add(1)
	}
	// ledgerRetry runs a ledger operation under the transient-retry policy.
	// It deliberately ignores the job context: a kill arriving between an
	// item's computation and its append must not turn an already-paid result
	// into a lost one — the append either lands or exhausts its budget.
	ledgerRetry := func(op string, fn func() error) error {
		return fault.Backoff{Attempts: 5, Seed: fault.SeedFrom(j.ID, op), OnRetry: retried}.Retry(context.Background(), fn)
	}

	// record is the run's one state transition: under j.mu it appends a
	// record and, only once the ledger holds it, folds the record into the
	// job's state, so the live state never runs ahead of the file and holds
	// its results in the file's order. A checkpoint or complete record is
	// also an fsync barrier, outside j.mu. A failure is the run's error and
	// cancels it.
	record := func(kind string, payload interface{}) bool {
		err := ledgerRetry(kind, func() error {
			j.mu.Lock()
			defer j.mu.Unlock()
			_, err := j.ledger.Append(kind, payload)
			if err == nil {
				j.state.apply(payload)
				j.wakeLocked()
			}
			return err
		})
		if err == nil {
			if kind == kindCheckpoint || kind == kindComplete {
				err = ledgerRetry("sync", j.ledger.Sync)
			}
		}
		if err != nil {
			appendErr.Store(err)
			j.cancelCtx()
		}
		return err == nil
	}

	for w := 0; w < j.Spec.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := j.model.NewSession()
			for si := range shardCh {
				if ctx.Err() != nil {
					continue // drain
				}
				for _, idx := range j.shards[si] {
					if ctx.Err() != nil {
						break
					}
					j.mu.Lock()
					_, have := j.state.at[idx]
					quarantined := j.state.quarantined[idx]
					j.mu.Unlock()
					if have || quarantined {
						continue // recorded (or poisoned) before a crash mid-shard
					}
					var res ItemResult
					var st engine.Stats
					attempts := 1
					err := fault.Backoff{
						Attempts: m.cfg.ItemAttempts,
						Seed:     fault.SeedFrom(j.ID, strconv.Itoa(idx)),
						OnRetry: func(n int, err error) {
							attempts++
							retried(n, err)
						},
					}.Retry(ctx, func() (err error) {
						// A device fault is the attempt's error: transient
						// ones are retried, permanent ones quarantine below.
						res, st, err = j.suite.Run(ctx, sess.Model, j.items[idx])
						return err
					})
					if err != nil {
						// A poison item — its budget spent, or a fault that can
						// never heal — is recorded and skipped, out of the
						// results. A cancelled or unclassified attempt is
						// discarded: the resume re-runs it.
						poison := errors.Is(err, fault.ErrExhausted) || errors.Is(err, fault.ErrPermanent)
						if ctx.Err() == nil && poison {
							if !record(kindQuarantine, &quarantineData{Shard: si, Index: idx, Attempts: attempts, Error: err.Error()}) {
								return
							}
							m.quarantined.Add(1)
						}
						continue
					}
					j.mu.Lock()
					j.engine.Add(st)
					j.mu.Unlock()
					if !record(kindItem, &itemData{Shard: si, Index: idx, Result: res}) {
						return
					}
					m.itemsDone.Add(1)
					if n := itemsThisRun.Add(1); j.Spec.CancelAfterItems > 0 && n >= int64(j.Spec.CancelAfterItems) {
						j.cancelCtx()
					}
				}
				if ctx.Err() != nil {
					continue
				}
				if !record(kindShardDone, &shardDoneData{Shard: si, Items: len(j.shards[si])}) {
					return
				}
				if n := shardsThisRun.Add(1); n%int64(j.Spec.CheckpointEvery) == 0 {
					j.mu.Lock()
					cp := &checkpointData{ShardsDone: len(j.state.doneShards), ItemsDone: len(j.state.results)}
					j.mu.Unlock()
					if !record(kindCheckpoint, cp) {
						return
					}
				}
			}
		}()
	}

feed:
	for si := range j.shards {
		j.mu.Lock()
		skip := j.state.doneShards[si]
		j.mu.Unlock()
		if skip {
			continue
		}
		select {
		case shardCh <- si:
		case <-ctx.Done():
			break feed
		}
	}
	close(shardCh)
	wg.Wait()

	// Terminal transition: a cancelled run records why, best effort; a
	// finished one records its totals.
	endStages := j.model.Tracer().StageTotals()
	status, errMsg := StatusCompleted, ""
	if appendErr.Load() == nil && ctx.Err() != nil {
		status, errMsg = StatusCancelled, "cancelled"
		j.mu.Lock()
		j.cancelLocked(errMsg)
		j.mu.Unlock()
	} else if appendErr.Load() == nil {
		j.mu.Lock()
		done := &completeData{ItemsDone: len(j.state.results), OKItems: j.state.okItems, Engine: j.engine,
			Stages: stageDelta(j.stageStart, endStages)}
		j.mu.Unlock()
		record(kindComplete, done)
	}
	if err, _ := appendErr.Load().(error); err != nil {
		status, errMsg = StatusFailed, err.Error()
	}
	// A failed Close means buffered terminal records may never have reached
	// the file: Verify would see a truncated chain. Don't report the run as
	// completed when its ledger is not durable.
	if err := j.ledger.Close(); err != nil && status == StatusCompleted {
		status, errMsg = StatusFailed, fmt.Sprintf("ledger close: %v", err)
	}
	j.cancelCtx() // release the context's resources on every path

	j.mu.Lock()
	j.status = status
	j.errMsg = errMsg
	j.finished = time.Now()
	j.kvEnd = j.model.KVStats()
	j.planEnd = j.model.PlanCacheStats()
	j.stageEnd = endStages
	j.wakeLocked()
	j.mu.Unlock()

	// Publish the outcome before done closes: a caller returning from Wait
	// must find the job in Stats.
	switch status {
	case StatusCompleted:
		m.completed.Add(1)
	case StatusFailed:
		m.failed.Add(1)
	case StatusCancelled:
		m.cancelled.Add(1)
	}
	close(j.done)
	m.mu.Lock()
	m.active--
	m.dispatchLocked()
	m.mu.Unlock()
}

// cancelLocked appends a cancel record and folds it in once the ledger
// holds it. It is best effort, with no retry: the job is cancelled either
// way, and Verify tolerates a missing cancel record. It wakes the job's
// followers either way. Caller holds j.mu.
func (j *Job) cancelLocked(reason string) {
	c := &cancelData{Reason: reason, ItemsDone: len(j.state.results)}
	if _, err := j.ledger.Append(kindCancel, c); err == nil {
		j.state.apply(c)
	}
	j.wakeLocked()
}

// wakeLocked wakes the readers waiting on a channel Since returned: the
// job's state or status changed. Caller holds j.mu.
func (j *Job) wakeLocked() {
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// Drain checkpoints the subsystem for shutdown: dispatch pauses, every
// queued and running job is cancelled (a cancel record is a checkpoint — the
// job resumes from it later), and Drain waits for each to reach a terminal
// status or for ctx to expire. Work already recorded in the ledgers is
// preserved either way; an expired ctx only means some job goroutine was
// still unwinding when the deadline hit.
func (m *Manager) Drain(ctx context.Context) error {
	m.PauseDispatch()
	jobs := m.all()
	for _, j := range jobs {
		switch j.Status() {
		case StatusQueued, StatusRunning:
			_ = m.Cancel(j.ID) // terminal races are fine: done closes either way
		}
	}
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-ctx.Done():
			return fmt.Errorf("jobs: drain: %w", ctx.Err())
		}
	}
	return nil
}

// Cancel stops a running job (its context cancels between items) or
// retires a queued one, releasing its admission slot immediately.
func (m *Manager) Cancel(id string) error {
	// m.mu is held across the whole queued-path transition so the heap
	// removal and the status flip are atomic with respect to dispatch
	// (lock order m.mu → j.mu matches dispatchLocked).
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	j.mu.Lock()
	switch j.status {
	case StatusRunning:
		cancel := j.cancelCtx
		j.mu.Unlock()
		m.mu.Unlock()
		cancel()
		return nil
	case StatusQueued:
		// Remove from the dispatch heap now — leaving it to be skipped at
		// pop time would keep consuming a MaxQueued admission slot.
		if j.heapIdx < len(m.queue) && m.queue[j.heapIdx] == j {
			heap.Remove(&m.queue, j.heapIdx)
		}
		j.status = StatusCancelled
		j.errMsg = "cancelled while queued"
		j.finished = time.Now()
		j.cancelLocked(j.errMsg)
		_ = j.ledger.Close() // the job is cancelled either way
		j.mu.Unlock()
		m.mu.Unlock()
		m.cancelled.Add(1) // before done closes, as in the run epilogue
		close(j.done)
		return nil
	default:
		st := j.status
		j.mu.Unlock()
		m.mu.Unlock()
		return fmt.Errorf("%w: job %s is %s", ErrInvalid, id, st)
	}
}

// Get returns a job by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// all returns every known job.
func (m *Manager) all() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	return jobs
}

// List snapshots every known job, newest first.
func (m *Manager) List() []Snapshot {
	jobs := m.all()
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].ID > jobs[k].ID })
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// Stats aggregates the /v1/stats jobs block.
func (m *Manager) Stats() ManagerStats {
	st := ManagerStats{
		Submitted:   m.submitted.Load(),
		Completed:   m.completed.Load(),
		Failed:      m.failed.Load(),
		Cancelled:   m.cancelled.Load(),
		Resumed:     m.resumed.Load(),
		ItemsDone:   m.itemsDone.Load(),
		Retries:     m.retries.Load(),
		Quarantined: m.quarantined.Load(),
	}
	for _, j := range m.all() {
		switch j.Status() {
		case StatusQueued:
			st.Queued++
		case StatusRunning:
			st.Running++
		}
		st.LedgerBytes += j.ledger.Bytes()
	}
	return st
}

// Wait blocks until the job reaches a terminal status.
func (j *Job) Wait() { <-j.done }

// Status returns the job's current status string.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Results returns the merged per-item results in worklist order: replayed
// records first-wins, live records appended as shards finish. For a
// completed job this is the full, deterministic result set of the sweep.
func (j *Job) Results() []ItemResult {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.ordered(len(j.items))
}

// Since reads the job's fold under one hold of its lock: the results at
// ledger positions >= n, in ledger order (a resumed job's replayed results
// first) and read-only, and the snapshot they belong to, whose ItemsDone
// counts every result up to the last returned. With follow set on a job that
// has not ended, it also returns a channel that the next applied record or
// status change closes; otherwise that channel is nil, and none is made.
func (j *Job) Since(n int, follow bool) ([]ItemResult, Snapshot, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var wake chan struct{}
	if follow && (j.status == StatusQueued || j.status == StatusRunning) {
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		wake = j.wake
	}
	snap := Snapshot{
		ID:       j.ID,
		Suite:    j.Spec.Suite,
		Model:    j.Spec.Model,
		Status:   j.status,
		Error:    j.errMsg,
		Priority: j.Spec.Priority,
		Resumes:  j.state.resumes,
		Progress: Progress{
			Items:      len(j.items),
			ItemsDone:  len(j.state.results),
			Shards:     len(j.shards),
			ShardsDone: len(j.state.doneShards),
			OKItems:    j.state.okItems,
		},
		Engine:      j.engine,
		LedgerBytes: j.ledger.Bytes(),
		Retries:     j.retries.Load(),
		Quarantined: len(j.state.quarantined),
	}
	if !j.started.IsZero() {
		end := j.finished
		kv, plan, stages := j.kvEnd, j.planEnd, j.stageEnd
		if end.IsZero() { // still running: live counters
			end = time.Now()
			kv, plan = j.model.KVStats(), j.model.PlanCacheStats()
			stages = j.model.Tracer().StageTotals()
		}
		snap.DurationMS = end.Sub(j.started).Milliseconds()
		snap.KVHits = kv.Hits - j.kvStart.Hits
		snap.KVMisses = kv.Misses - j.kvStart.Misses
		snap.PlanHits = plan.Hits - j.planStart.Hits
		snap.PlanMisses = plan.Misses - j.planStart.Misses
		snap.Stages = stageDelta(j.stageStart, stages)
	}
	all := j.state.results
	n = min(max(n, 0), len(all))
	return all[n:len(all):len(all)], snap, wake
}

// Snapshot captures the job's externally visible state.
func (j *Job) Snapshot() Snapshot {
	_, snap, _ := j.Since(0, false)
	return snap
}

// jobHeap orders queued jobs by priority (higher first), then submission
// order.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].Spec.Priority != h[k].Spec.Priority {
		return h[i].Spec.Priority > h[k].Spec.Priority
	}
	return h[i].queueSeq < h[k].queueSeq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].heapIdx = i
	h[k].heapIdx = k
}
func (h *jobHeap) Push(x interface{}) {
	j := x.(*Job)
	j.heapIdx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
