package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/relm"
)

// testEnv is shared across the package's tests: building the synthetic
// world trains a tokenizer and two models, which is the expensive part.
var (
	envOnce sync.Once
	sharedE *experiments.Env
)

func testEnv(t testing.TB) *experiments.Env {
	t.Helper()
	envOnce.Do(func() {
		sharedE = experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	})
	return sharedE
}

func newTestManager(t testing.TB, cfg Config) *Manager {
	t.Helper()
	env := testEnv(t)
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	cfg.Env = env
	if cfg.MaxWorkers == 0 {
		// Tests submit explicit worker counts; don't let a small CI host's
		// NumCPU default turn them into rejections.
		cfg.MaxWorkers = 8
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterModel("large", env.Large)
	m.RegisterModel("small", env.Small)
	return m
}

func waitTerminal(t testing.TB, j *Job) {
	t.Helper()
	select {
	case <-j.done:
	case <-time.After(120 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.Status())
	}
}

func TestURLMatchJobCompletes(t *testing.T) {
	m := newTestManager(t, Config{})
	j, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", ShardSize: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if got := j.Status(); got != StatusCompleted {
		t.Fatalf("status %s, want completed", got)
	}
	results := j.Results()
	if len(results) == 0 || len(results) != len(j.items) {
		t.Fatalf("got %d results for %d items", len(results), len(j.items))
	}
	// The worklist interleaves real registry URLs with corrupted ones.
	ok := 0
	for _, r := range results {
		if r.OK {
			ok++
		}
	}
	if ok != len(results)/2 {
		t.Fatalf("%d/%d items graded ok, want exactly half", ok, len(results))
	}
	if n, err := VerifyFile(m.LedgerPath(j.ID)); err != nil || n == 0 {
		t.Fatalf("ledger verify: n=%d err=%v", n, err)
	}
	st := m.Stats()
	if st.Submitted != 1 || st.Completed != 1 || st.ItemsDone != int64(len(results)) || st.LedgerBytes == 0 {
		t.Fatalf("manager stats off: %+v", st)
	}
}

// TestStatsCountJobOnceWaitReturns: the outcome counters are published
// before done closes, so Stats read right after Wait always includes the
// job. (With the order reversed this missed about one job in sixty.)
func TestStatsCountJobOnceWaitReturns(t *testing.T) {
	m := newTestManager(t, Config{})
	for i := int64(1); i <= 250; i++ {
		j, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", MaxItems: 2, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait()
		if got := m.Stats().Completed; got != i {
			t.Fatalf("after Wait on job %d: Stats().Completed = %d", i, got)
		}
	}
}

// TestCrashResumeByteIdentical is the acceptance scenario: a memorization
// sweep killed partway and resumed must (a) pass hash-chain verification,
// (b) merge exactly the per-item results of an uninterrupted run, and
// (c) re-score only the work the killed run didn't finish (engine.Stats).
func TestCrashResumeByteIdentical(t *testing.T) {
	spec := Spec{Suite: "memorization", Model: "large", ShardSize: 2, Workers: 1, CheckpointEvery: 1}

	// Uninterrupted reference run.
	mFull := newTestManager(t, Config{})
	full, err := mFull.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, full)
	if full.Status() != StatusCompleted {
		t.Fatalf("reference run: %s (%+v)", full.Status(), full.Snapshot())
	}
	checkLiveIsReplayed(t, mFull, full)
	wantResults := mustJSON(t, full.Results())
	fullStats := full.EngineStats()
	items := len(full.items)
	if items < 6 {
		t.Fatalf("memorization worklist too small to test resume: %d items", items)
	}

	// Killed run: cancel mid-sweep, after the first shards completed but
	// well before the end.
	killAfter := items/2 + 1
	dir := t.TempDir()
	mKill := newTestManager(t, Config{Dir: dir})
	killSpec := spec
	killSpec.CancelAfterItems = killAfter
	killed, err := mKill.Submit(killSpec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, killed)
	if killed.Status() != StatusCancelled {
		t.Fatalf("killed run: %s, want cancelled", killed.Status())
	}
	if got := len(killed.Results()); got >= items || got < killAfter {
		t.Fatalf("killed run recorded %d results, want in [%d, %d)", got, killAfter, items)
	}
	checkLiveIsReplayed(t, mKill, killed)

	// Resume in a fresh manager over the same ledger directory — the
	// process-crash shape: nothing survives but the file.
	mRes := newTestManager(t, Config{Dir: dir})
	resumed, err := mRes.Resume(killed.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, resumed)
	if resumed.Status() != StatusCompleted {
		t.Fatalf("resumed run: %s (%s)", resumed.Status(), resumed.Snapshot().Error)
	}
	checkLiveIsReplayed(t, mRes, resumed)

	// (a) the finished ledger passes hash-chain validation.
	if _, err := VerifyFile(mRes.LedgerPath(resumed.ID)); err != nil {
		t.Fatalf("resumed ledger verify: %v", err)
	}
	// (b) merged per-item results are byte-identical to the uninterrupted
	// run's.
	if got := mustJSON(t, resumed.Results()); got != wantResults {
		t.Fatalf("merged results differ from uninterrupted run:\n got: %s\nwant: %s", got, wantResults)
	}
	// (c) the resumed run re-scored only unfinished work: strictly less
	// model traffic than the full sweep, and no item was recorded twice.
	resStats := resumed.EngineStats()
	if resStats.ModelCalls == 0 || resStats.ModelCalls >= fullStats.ModelCalls {
		t.Fatalf("resumed run model calls = %d, want in (0, %d)", resStats.ModelCalls, fullStats.ModelCalls)
	}
	if nItems := countKind(t, mRes.LedgerPath(resumed.ID), kindItem); nItems != items {
		t.Fatalf("ledger holds %d item records, want exactly %d (no re-recorded items)", nItems, items)
	}
	if mRes.Stats().Resumed != 1 {
		t.Fatalf("resumed counter = %d, want 1", mRes.Stats().Resumed)
	}
	if resumed.Snapshot().Resumes != 1 {
		t.Fatalf("job resume count = %d, want 1", resumed.Snapshot().Resumes)
	}
}

func TestResumeRefusesForeignWorld(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	j, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", CancelAfterItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)

	// A different world: env2's tokenizer (different seed) gives its model
	// a different fingerprint — the resume must refuse before any scoring.
	env := testEnv(t)
	env2 := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick, Seed: 99})
	m2, err := NewManager(Config{Dir: dir, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	m2.RegisterModel("large", env2.Large) // wrong model under the right name
	if _, err := m2.Resume(j.ID); !errors.Is(err, ErrInvalid) {
		t.Fatalf("resume against wrong model: %v, want ErrInvalid", err)
	}

	// Right model, wrong env: the worklist hash catches it.
	m3, err := NewManager(Config{Dir: dir, Env: env2})
	if err != nil {
		t.Fatal(err)
	}
	m3.RegisterModel("large", env.Large)
	if _, err := m3.Resume(j.ID); !errors.Is(err, ErrInvalid) {
		t.Fatalf("resume against wrong env: %v, want ErrInvalid", err)
	}

	// Resuming an unknown job reports not-found.
	if _, err := m2.Resume("job-7777"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("resume unknown: %v, want ErrNotFound", err)
	}
}

// TestConcurrentResumeSingleWinner: two racing resumes of one job must
// never both open the ledger — interleaved appends from two handles would
// permanently break the hash chain.
func TestConcurrentResumeSingleWinner(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Config{Dir: dir})
	j, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", ShardSize: 4, CancelAfterItems: 3})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)

	m.PauseDispatch()
	errs := make(chan error, 2)
	var resumed [2]*Job
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rj, err := m.Resume(j.ID)
			resumed[i] = rj
			errs <- err
		}(i)
	}
	wg.Wait()
	m.ResumeDispatch()
	var oks int
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			oks++
		} else if !errors.Is(err, ErrInvalid) {
			t.Fatalf("losing resume: %v, want ErrInvalid", err)
		}
	}
	if oks != 1 {
		t.Fatalf("%d resumes succeeded, want exactly 1", oks)
	}
	for _, rj := range resumed {
		if rj != nil {
			waitTerminal(t, rj)
		}
	}
	if _, err := VerifyFile(m.LedgerPath(j.ID)); err != nil {
		t.Fatalf("ledger after racing resumes: %v", err)
	}
	if n := countKind(t, m.LedgerPath(j.ID), kindResume); n != 1 {
		t.Fatalf("%d resume records, want 1", n)
	}
}

// TestDifferentWeightsDifferentFingerprint: the behavioral probe must
// separate models that share a tokenizer and shape but not weights —
// otherwise resume would merge scores from different models.
func TestDifferentWeightsDifferentFingerprint(t *testing.T) {
	env := testEnv(t)
	if env.Large.Fingerprint() == env.Small.Fingerprint() {
		t.Fatal("large and small models share a fingerprint (same tokenizer and shape, different weights)")
	}
	// Stable across wrapper instances over the same weights.
	if env.Large.Fingerprint() != env.Large.NewSession().Model.Fingerprint() {
		t.Fatal("fingerprint differs across sessions of one model")
	}
}

// probeCounter counts how often each context is scored.
type probeCounter struct {
	model.LanguageModel
	mu    sync.Mutex
	calls map[string]int
}

func (p *probeCounter) NextLogProbs(ctx []model.Token) []float64 {
	p.mu.Lock()
	p.calls[fmt.Sprint(ctx)]++
	p.mu.Unlock()
	return p.LanguageModel.NextLogProbs(ctx)
}

func (p *probeCounter) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	return model.ScoreSerial(p, ctxs)
}

// TestFingerprintProbedOnce: every job's ledger header carries the model
// fingerprint, but the probe behind it runs once per model — five jobs
// submitted at once on one registered model score each probe context once
// in total.
func TestFingerprintProbedOnce(t *testing.T) {
	env := testEnv(t)
	lm := &probeCounter{LanguageModel: env.Large.LM, calls: map[string]int{}}
	m := newTestManager(t, Config{})
	m.RegisterModel("counted", relm.NewModel(lm, env.Tok, relm.ModelOptions{}))
	var jobs [5]*Job
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := m.Submit(Spec{Suite: "urlmatch", Model: "counted", MaxItems: 4})
			if err != nil {
				t.Error(err)
			}
			jobs[i] = j
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if j == nil {
			continue
		}
		waitTerminal(t, j)
		if got := j.Status(); got != StatusCompleted {
			t.Errorf("job %d: status %s, want completed", i, got)
		}
	}
	eos := lm.EOS()
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, ctx := range [][]model.Token{{eos}, {0}, {0, eos}} {
		if n := lm.calls[fmt.Sprint(ctx)]; n != 1 {
			t.Errorf("probe context %v scored %d times over 5 jobs, want 1", ctx, n)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newTestManager(t, Config{})
	cases := []Spec{
		{},                                       // no suite
		{Suite: "nope"},                          // unknown suite
		{Suite: "urlmatch", ShardSize: -1},       // bad shard
		{Suite: "urlmatch", ShardSize: 1 << 20},  // over cap
		{Suite: "urlmatch", Workers: -2},         // bad workers
		{Suite: "urlmatch", Workers: 9},          // over the manager's MaxWorkers (8 in tests)
		{Suite: "urlmatch", CheckpointEvery: -1}, // bad checkpoint
		{Suite: "urlmatch", MaxItems: -5},        // bad max items
		{Suite: "urlmatch", Priority: 101},       // bad priority
		{Suite: "urlmatch", CancelAfterItems: -1},
		{Suite: "lambada", Variant: "bogus"}, // unknown variant
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); !errors.Is(err, ErrInvalid) {
			t.Errorf("case %d (%+v): err=%v, want ErrInvalid", i, spec, err)
		}
	}
	if _, err := m.Submit(Spec{Suite: "urlmatch", Model: "missing"}); !errors.Is(err, ErrUnknownModel) {
		t.Errorf("unknown model: want ErrUnknownModel")
	}
	if st := m.Stats(); st.Submitted != 0 {
		t.Errorf("rejected submissions counted: %+v", st)
	}
}

func TestAdmissionControl(t *testing.T) {
	// Dispatch paused, one-deep queue: the second submission must bounce
	// regardless of how fast jobs run.
	m := newTestManager(t, Config{MaxActive: 1, MaxQueued: 1})
	m.PauseDispatch()
	j1, err := m.Submit(Spec{Suite: "urlmatch", Model: "large"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(Spec{Suite: "urlmatch", Model: "large"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	if st := m.Stats(); st.Queued != 1 {
		t.Fatalf("queued = %d, want 1 while paused", st.Queued)
	}
	m.ResumeDispatch()
	waitTerminal(t, j1)
	if j1.Status() != StatusCompleted {
		t.Fatalf("drained job: %s", j1.Status())
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	// Queue three jobs while dispatch is paused; on release the priorities
	// must order execution 50, 0, -1 regardless of submission order.
	m.PauseDispatch()
	j1, err := m.Submit(Spec{Suite: "urlmatch", Model: "large"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", Priority: -1})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", Priority: 50})
	if err != nil {
		t.Fatal(err)
	}
	m.ResumeDispatch()
	waitTerminal(t, j1)
	waitTerminal(t, j2)
	waitTerminal(t, j3)
	started := func(j *Job) time.Time {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.started
	}
	if s1, s2, s3 := started(j1), started(j2), started(j3); !s3.Before(s1) || !s1.Before(s2) {
		t.Fatalf("start order not by priority: p50=%v p0=%v p-1=%v", s3, s1, s2)
	}
}

// TestConcurrentSubmitPollCancel exercises the scheduler under -race:
// submissions, stats polling, snapshots, and cancels all in flight.
func TestConcurrentSubmitPollCancel(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 3, MaxQueued: 32})
	const n = 8
	var wg sync.WaitGroup
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", ShardSize: 4, Workers: 2, Priority: i % 3})
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
			if i%4 == 3 {
				_ = m.Cancel(j.ID) // cancels race the run; both outcomes are legal
			}
		}(i)
	}
	stop := make(chan struct{})
	var pollWg sync.WaitGroup
	pollWg.Add(1)
	go func() {
		defer pollWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Stats()
				_ = m.List()
			}
		}
	}()
	wg.Wait()
	for _, j := range jobs {
		if j != nil {
			waitTerminal(t, j)
		}
	}
	close(stop)
	pollWg.Wait()
	st := m.Stats()
	if st.Submitted != n || st.Completed+st.Cancelled != n {
		t.Fatalf("stats after storm: %+v", st)
	}
	for _, j := range jobs {
		if _, err := VerifyFile(m.LedgerPath(j.ID)); err != nil {
			t.Errorf("ledger %s: %v", j.ID, err)
		}
		checkLiveIsReplayed(t, m, j)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := newTestManager(t, Config{MaxActive: 1})
	m.PauseDispatch()
	j1, err := m.Submit(Spec{Suite: "urlmatch", Model: "large"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m.Submit(Spec{Suite: "urlmatch", Model: "large"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	m.ResumeDispatch()
	waitTerminal(t, j2)
	if j2.Status() != StatusCancelled {
		t.Fatalf("queued cancel: %s", j2.Status())
	}
	if err := m.Cancel(j2.ID); !errors.Is(err, ErrInvalid) {
		t.Fatalf("double cancel: %v, want ErrInvalid", err)
	}
	if err := m.Cancel("job-9999"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("cancel unknown: %v, want ErrNotFound", err)
	}
	waitTerminal(t, j1)
	checkLiveIsReplayed(t, m, j1)
	checkLiveIsReplayed(t, m, j2)
}

// foldFile strictly replays a ledger file and returns the state its records
// fold to — what Resume and ReadRun rebuild from the file alone.
func foldFile(t testing.TB, path string) runState {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := replay(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := fold(recs)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// checkLiveIsReplayed fails unless a terminal job's live state equals the
// fold of its ledger file: the run applied exactly the records it wrote.
func checkLiveIsReplayed(t testing.TB, m *Manager, j *Job) {
	t.Helper()
	j.mu.Lock()
	live := j.state
	j.mu.Unlock()
	if replayed := foldFile(t, m.LedgerPath(j.ID)); !reflect.DeepEqual(live, replayed) {
		t.Fatalf("job %s: live state differs from its ledger's fold\n  live: %+v\nledger: %+v", j.ID, live, replayed)
	}
}

func mustJSON(t testing.TB, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func countKind(t testing.TB, path, kind string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := replay(raw, false)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Kind == kind {
			n++
		}
	}
	return n
}
