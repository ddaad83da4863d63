package repro

import (
	"encoding/json"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/jobs"
)

// Robustness gate (DESIGN.md decision 15, ROADMAP robustness item). A
// validation sweep run under a seeded fault storm — probabilistic transient
// device failures plus a failing fsync — and killed mid-run must, on
// resume under the same storm, merge per-item results byte-identical to an
// undisturbed run's, with a verified hash chain and zero quarantined items:
// the retry budget absorbs every transient fault, and no transient-only
// failure may ever reach StatusFailed.
//
// Determinism is the point: the storm is a pure function of (scenario,
// seed, call index), so this gate replays the same fault pattern on every
// run — a chaotic run is a reproducible run.

const chaosStorm = "device.forward=p0.05,device.prefill=p0.05,device.extend=p0.05,device.scoreall=p0.05,ledger.sync=n1"

func armStorm(t *testing.T) {
	t.Helper()
	in, err := fault.ParseScenario(chaosStorm, 1)
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(in)
}

func chaosJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChaosResumeByteIdentity(t *testing.T) {
	env := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	// Workers:1 keeps the fault-to-item assignment deterministic: the
	// per-point call sequence is seed-driven, and a single worker consumes
	// it in item order.
	spec := jobs.Spec{Suite: "memorization", Model: "large", ShardSize: 2, Workers: 1, CheckpointEvery: 1}
	newMgr := func(dir string) *jobs.Manager {
		m, err := jobs.NewManager(jobs.Config{Dir: dir, Env: env, MaxWorkers: 8})
		if err != nil {
			t.Fatal(err)
		}
		m.RegisterModel("large", env.Large)
		return m
	}

	// Undisturbed reference run: no chaos, no kill.
	ref, err := newMgr(t.TempDir()).Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ref.Wait()
	if ref.Status() != jobs.StatusCompleted {
		t.Fatalf("reference run: %s", ref.Status())
	}
	want := chaosJSON(t, ref.Results())
	items := ref.Snapshot().Progress.Items
	if items < 6 {
		t.Fatalf("worklist too small to kill mid-run: %d items", items)
	}

	// Stormed run, killed partway through.
	dir := t.TempDir()
	killSpec := spec
	killSpec.CancelAfterItems = items/2 + 1
	armStorm(t)
	defer fault.Disable()
	mKill := newMgr(dir)
	killed, err := mKill.Submit(killSpec)
	if err != nil {
		t.Fatal(err)
	}
	killed.Wait()
	if got := killed.Status(); got != jobs.StatusCancelled {
		t.Fatalf("stormed killed run: %s, want cancelled — transient faults must never fail a job", got)
	}
	checkReadRun(t, mKill, killed)

	// Resume in a fresh manager with the storm re-armed from the same seed.
	armStorm(t)
	mRes := newMgr(dir)
	res, err := mRes.Resume(killed.ID)
	if err != nil {
		t.Fatal(err)
	}
	res.Wait()
	fault.Disable()

	if got := res.Status(); got != jobs.StatusCompleted {
		t.Fatalf("stormed resume: %s (%s), want completed", got, res.Snapshot().Error)
	}
	snap := res.Snapshot()
	killedRetries := killed.Snapshot().Retries
	if killedRetries+snap.Retries == 0 {
		t.Fatal("the storm never bit: no retries recorded across kill + resume")
	}
	if snap.Quarantined != 0 {
		t.Fatalf("%d items quarantined, want 0 — the retry budget must absorb a 5%% transient storm", snap.Quarantined)
	}
	if got := chaosJSON(t, res.Results()); got != want {
		t.Fatalf("stormed kill+resume results differ from undisturbed run:\n got: %.200s...\nwant: %.200s...", got, want)
	}
	if _, err := jobs.VerifyFile(mRes.LedgerPath(res.ID)); err != nil {
		t.Fatalf("stormed ledger does not verify: %v", err)
	}
	checkReadRun(t, mRes, res)
}

// checkReadRun holds a finished job to its ledger as relm-audit report reads
// it: the file alone must give the live job's results, ok count, resume
// count and terminal status.
func checkReadRun(t *testing.T, m *jobs.Manager, j *jobs.Job) {
	t.Helper()
	rf, err := jobs.ReadRun(m.LedgerPath(j.ID))
	if err != nil {
		t.Fatal(err)
	}
	snap := j.Snapshot()
	if got, want := chaosJSON(t, rf.Results), chaosJSON(t, j.Results()); got != want {
		t.Fatalf("%s: ReadRun results differ from the live job's:\n got: %.200s...\nwant: %.200s...", j.ID, got, want)
	}
	if rf.OKItems != snap.Progress.OKItems || rf.Resumes != snap.Resumes ||
		rf.Completed != (snap.Status == jobs.StatusCompleted) || rf.Cancelled != (snap.Status == jobs.StatusCancelled) {
		t.Fatalf("%s: ReadRun ok=%d resumes=%d completed=%v cancelled=%v, live job ok=%d resumes=%d status=%s",
			j.ID, rf.OKItems, rf.Resumes, rf.Completed, rf.Cancelled, snap.Progress.OKItems, snap.Resumes, snap.Status)
	}
}
