package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/model"
	"repro/relm"
)

// armDeviceFaults enables an injector failing the first call at every device
// dispatch point. With Workers:1 the faults land deterministically on the
// earliest items; each point's counter is independent, so at most four
// consecutive attempts fail — well inside the default 8-attempt item budget.
func armDeviceFaults(t *testing.T, seed int64, class fault.Class) *fault.Injector {
	t.Helper()
	in := fault.New(seed).
		Set(fault.DeviceForward, fault.Spec{FailN: 1, Class: class}).
		Set(fault.DevicePrefill, fault.Spec{FailN: 1, Class: class}).
		Set(fault.DeviceExtend, fault.Spec{FailN: 1, Class: class}).
		Set(fault.DeviceScoreAll, fault.Spec{FailN: 1, Class: class})
	fault.Enable(in)
	t.Cleanup(fault.Disable)
	return in
}

func deviceInjected(in *fault.Injector) int64 {
	return in.Injected(fault.DeviceForward) + in.Injected(fault.DevicePrefill) +
		in.Injected(fault.DeviceExtend) + in.Injected(fault.DeviceScoreAll)
}

// TestJobSurvivesTransientDeviceFaults is the PR's acceptance condition in
// miniature: transient-only faults must never fail a job, and the retried
// run's merged results must be byte-identical to an undisturbed run's.
func TestJobSurvivesTransientDeviceFaults(t *testing.T) {
	// memorization scores through the model (urlmatch never dispatches).
	spec := Spec{Suite: "memorization", Model: "large", ShardSize: 2, Workers: 1}

	// Undisturbed reference.
	mRef := newTestManager(t, Config{})
	ref, err := mRef.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, ref)
	if ref.Status() != StatusCompleted {
		t.Fatalf("reference run: %s", ref.Status())
	}
	want := mustJSON(t, ref.Results())

	in := armDeviceFaults(t, 42, fault.Transient)
	m := newTestManager(t, Config{})
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	fault.Disable()

	if got := j.Status(); got != StatusCompleted {
		t.Fatalf("job under transient faults: %s (%s), want completed", got, j.Snapshot().Error)
	}
	injected := deviceInjected(in)
	if injected == 0 {
		t.Fatal("scenario injected nothing; no armed device point was exercised")
	}
	snap := j.Snapshot()
	// Every injected failure kills exactly one item attempt, and no item
	// exhausts its budget, so the retry counter equals the injection count.
	if snap.Retries != injected {
		t.Fatalf("retries = %d, want %d (one per injected fault)", snap.Retries, injected)
	}
	if snap.Quarantined != 0 {
		t.Fatalf("quarantined = %d, want 0 — transient faults must be retried, not quarantined", snap.Quarantined)
	}
	if got := mustJSON(t, j.Results()); got != want {
		t.Fatalf("results under transient faults differ from undisturbed run:\n got: %s\nwant: %s", got, want)
	}
	if st := m.Stats(); st.Retries != snap.Retries || st.Quarantined != 0 {
		t.Fatalf("manager stats retries=%d quarantined=%d, want %d/0", st.Retries, st.Quarantined, snap.Retries)
	}
	if _, err := VerifyFile(m.LedgerPath(j.ID)); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	checkLiveIsReplayed(t, m, j)
}

// TestPermanentDeviceFaultQuarantinesItem: a permanent fault spends no retry
// budget — the poisoned item is quarantined into the ledger and the rest of
// the sweep completes.
func TestPermanentDeviceFaultQuarantinesItem(t *testing.T) {
	spec := Spec{Suite: "memorization", Model: "large", ShardSize: 2, Workers: 1}
	in := armDeviceFaults(t, 7, fault.Permanent)
	m := newTestManager(t, Config{})
	j, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	fault.Disable()

	if got := j.Status(); got != StatusCompleted {
		t.Fatalf("job with poisoned items: %s (%s), want completed around them", got, j.Snapshot().Error)
	}
	if deviceInjected(in) == 0 {
		t.Fatal("scenario injected nothing; no armed device point was exercised")
	}
	snap := j.Snapshot()
	if snap.Quarantined == 0 {
		t.Fatal("no item quarantined under permanent device faults")
	}
	if snap.Retries != 0 {
		t.Fatalf("retries = %d, want 0 — permanent faults must not spend retry budget", snap.Retries)
	}
	if got, wantN := len(j.Results()), len(j.items)-snap.Quarantined; got != wantN {
		t.Fatalf("%d results for %d items with %d quarantined, want %d", got, len(j.items), snap.Quarantined, wantN)
	}
	if n := countKind(t, m.LedgerPath(j.ID), kindQuarantine); n != snap.Quarantined {
		t.Fatalf("ledger holds %d quarantine records, want %d", n, snap.Quarantined)
	}
	if st := m.Stats(); st.Quarantined != int64(snap.Quarantined) {
		t.Fatalf("manager quarantined = %d, want %d", st.Quarantined, snap.Quarantined)
	}
	if _, err := VerifyFile(m.LedgerPath(j.ID)); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
	checkLiveIsReplayed(t, m, j)
}

// TestFailedAppendLeavesNoLiveState: a record whose append fails never
// reaches the live state. The first append of the run fails permanently —
// an item record in one arm, a quarantine record in the other — so the job
// fails, and its results, progress and quarantine count must say what the
// ledger says: nothing was recorded.
func TestFailedAppendLeavesNoLiveState(t *testing.T) {
	arms := []struct {
		name string
		spec Spec
		arm  func(*fault.Injector) *fault.Injector
	}{
		{"item", Spec{Suite: "urlmatch", Model: "large"}, func(in *fault.Injector) *fault.Injector { return in }},
		// The small model's cache is cold for memorization in this package,
		// so the first item dispatches and is poisoned.
		{"quarantine", Spec{Suite: "memorization", Model: "small", ShardSize: 2}, func(in *fault.Injector) *fault.Injector {
			return in.Set(fault.DeviceForward, fault.Spec{Prob: 1, Class: fault.Permanent}).
				Set(fault.DevicePrefill, fault.Spec{Prob: 1, Class: fault.Permanent}).
				Set(fault.DeviceExtend, fault.Spec{Prob: 1, Class: fault.Permanent}).
				Set(fault.DeviceScoreAll, fault.Spec{Prob: 1, Class: fault.Permanent})
		}},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			m := newTestManager(t, Config{})
			m.PauseDispatch()
			j, err := m.Submit(arm.spec)
			if err != nil {
				t.Fatal(err)
			}
			in := arm.arm(fault.New(3).Set(fault.LedgerAppend, fault.Spec{FailN: 1, Class: fault.Permanent}))
			fault.Enable(in)
			t.Cleanup(fault.Disable)
			m.ResumeDispatch()
			waitTerminal(t, j)
			fault.Disable()

			if got := j.Status(); got != StatusFailed {
				t.Fatalf("status %s, want failed", got)
			}
			if in.Injected(fault.LedgerAppend) != 1 {
				t.Fatalf("%d append faults injected, want 1", in.Injected(fault.LedgerAppend))
			}
			snap := j.Snapshot()
			path := m.LedgerPath(j.ID)
			if items, quarantined := countKind(t, path, kindItem), countKind(t, path, kindQuarantine); len(j.Results()) != items ||
				snap.Progress.ItemsDone != items || snap.Quarantined != quarantined || items+quarantined != 0 {
				t.Fatalf("live: %d results, items_done %d, %d quarantined; ledger: %d item and %d quarantine records, want all 0",
					len(j.Results()), snap.Progress.ItemsDone, snap.Quarantined, items, quarantined)
			}
			checkLiveIsReplayed(t, m, j)
		})
	}
}

// TestLedgerInjectedTornAppendRepairedOnReopen drives the torn-tail repair
// through the production append path: the injected fault writes half a
// record before failing, exactly the crash signature OpenLedger truncates.
func TestLedgerInjectedTornAppendRepairedOnReopen(t *testing.T) {
	path := mkLedger(t, 4) // header + 4 items + complete = 6 records
	l, recs, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("replayed %d records, want 6", len(recs))
	}

	fault.Enable(fault.New(1).Set(fault.LedgerAppend, fault.Spec{FailN: 1, Torn: true}))
	t.Cleanup(fault.Disable)
	_, err = l.Append(kindResume, resumeData{Attempt: 1})
	if err == nil {
		t.Fatal("torn append reported success")
	}
	// Torn writes are permanent by construction: a retry would append past
	// the garbage half-line.
	if !errors.Is(err, fault.ErrPermanent) || fault.IsTransient(err) {
		t.Fatalf("torn append classified %v, want permanent", err)
	}
	fault.Disable()
	// The torn append sticks: like the crash it stands for, it stops every
	// later writer, so nothing lands after the half line.
	if _, again := l.Append(kindResume, resumeData{Attempt: 2}); !errors.Is(again, err) {
		t.Fatalf("append after a torn append: %v, want the torn error %v", again, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Strict verification refuses the damaged file...
	if _, err := VerifyFile(path); err == nil {
		t.Fatal("VerifyFile accepted the torn tail")
	}
	// ...reopening repairs it, and the chain continues cleanly.
	l2, recs2, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("reopen after torn append: %v", err)
	}
	if len(recs2) != 6 {
		t.Fatalf("replayed %d records after repair, want 6", len(recs2))
	}
	if _, err := l2.Append(kindResume, resumeData{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := VerifyFile(path); err != nil || n != 7 {
		t.Fatalf("verify after repair: n=%d err=%v", n, err)
	}
}

// TestTransientLedgerSyncRetried: a failing fsync is retried by the jobs
// layer instead of failing the job (satellite 1).
func TestTransientLedgerSyncRetried(t *testing.T) {
	fault.Enable(fault.New(9).Set(fault.LedgerSync, fault.Spec{FailN: 1}))
	t.Cleanup(fault.Disable)
	m := newTestManager(t, Config{})
	j, err := m.Submit(Spec{Suite: "urlmatch", Model: "large", ShardSize: 8, Workers: 1, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	fault.Disable()
	if got := j.Status(); got != StatusCompleted {
		t.Fatalf("job under fsync fault: %s (%s), want completed", got, j.Snapshot().Error)
	}
	if j.Snapshot().Retries == 0 {
		t.Fatal("sync fault absorbed without a recorded retry")
	}
	if _, err := VerifyFile(m.LedgerPath(j.ID)); err != nil {
		t.Fatalf("ledger verify: %v", err)
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

// TestModelPanicFailsOnlyItsItems: a model that panics mid-query, behind the
// fusion scheduler, fails each item it scores with the *device.ModelPanic's
// text in the item's Err — it is neither retried nor quarantined — and the
// job completes. The worker and the process survive it: the next job, on a
// healthy model, completes with clean items.
func TestModelPanicFailsOnlyItsItems(t *testing.T) {
	env := testEnv(t)
	m := newTestManager(t, Config{})
	poisoned := relm.NewModel(poisonedLM{env.Large.LM, 4}, env.Large.Tok, relm.ModelOptions{ContinuousBatching: true})
	t.Cleanup(poisoned.Close)
	m.RegisterModel("poisoned", poisoned)
	for _, name := range []string{"poisoned", "large"} {
		j, err := m.Submit(Spec{Suite: "bias", Model: name, MaxItems: 2})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		if got := j.Status(); got != StatusCompleted {
			t.Fatalf("%s: job %s (%s), want completed", name, got, j.Snapshot().Error)
		}
		results := j.Results()
		if len(results) != 2 {
			t.Fatalf("%s: %d item results, want 2", name, len(results))
		}
		for _, r := range results {
			if failed := strings.HasPrefix(r.Err, "device: model panicked:"); failed != (name == "poisoned") {
				t.Errorf("%s: item %s recorded Err %q", name, r.ID, r.Err)
			}
		}
	}
}

// panicKeyedPreprocessor panics on every Transform, after a short pause so
// that concurrent items find its compilation in flight. Its PlanKey makes
// the query plan-cacheable, so those items join one flight.
type panicKeyedPreprocessor struct{}

func (panicKeyedPreprocessor) Transform(*automaton.DFA) (*automaton.DFA, error) {
	time.Sleep(10 * time.Millisecond)
	panic("boom")
}
func (panicKeyedPreprocessor) Name() string    { return "panic" }
func (panicKeyedPreprocessor) PlanKey() string { return "panic" }

// poisonedCompileSuite searches one query whose plan compilation panics.
type poisonedCompileSuite struct{}

func (poisonedCompileSuite) Items(max int) []Item {
	out := make([]Item, 6)
	for i := range out {
		out[i] = Item{ID: fmt.Sprintf("poisoned-%d", i)}
	}
	return capItems(out, max)
}

func (poisonedCompileSuite) Run(ctx context.Context, m *relm.Model, it Item) (ItemResult, engine.Stats, error) {
	_, err := relm.Search(m, relm.SearchQuery{
		Query:         relm.QueryString{Pattern: " ((cat)|(dog))", Prefix: "The"},
		Preprocessors: []relm.Preprocessor{panicKeyedPreprocessor{}},
	})
	return gradeScored(ctx, it, err == nil, 0, engine.Stats{}, err)
}

// TestPoisonedCompileFailsOnlyItsItems: a plan compilation that panics inside
// a jobs worker is each item's recorded error — for the worker that ran it
// and for one that joined its plan-cache flight — not a retry, a quarantine
// or a failed job, and the ledger it leaves verifies.
func TestPoisonedCompileFailsOnlyItsItems(t *testing.T) {
	suiteBuilders["poisoned-compile"] = func(*experiments.Env, Spec) (Suite, error) { return poisonedCompileSuite{}, nil }
	t.Cleanup(func() { delete(suiteBuilders, "poisoned-compile") })
	m := newTestManager(t, Config{})
	j, err := m.Submit(Spec{Suite: "poisoned-compile", Model: "large", ShardSize: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if got := j.Status(); got != StatusCompleted {
		t.Fatalf("job %s (%s), want completed", got, j.Snapshot().Error)
	}
	results := j.Results()
	if len(results) != 6 {
		t.Fatalf("%d item results, want 6", len(results))
	}
	for _, r := range results {
		if !strings.Contains(r.Err, "relm: plan compilation panicked") {
			t.Errorf("item %s recorded Err %q, want the compile panic", r.ID, r.Err)
		}
	}
	if q := j.Snapshot().Quarantined; q != 0 {
		t.Errorf("%d items quarantined, want 0", q)
	}
	if _, err := VerifyFile(m.LedgerPath(j.ID)); err != nil {
		t.Fatalf("ledger verify: %v", err)
	}
}
