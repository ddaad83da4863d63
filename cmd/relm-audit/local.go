package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/jobs"
)

// envFlags are the knobs that rebuild the deterministic synthetic world.
// Submit and resume must agree on them: the ledger's item-list hash and
// model fingerprint refuse a resume against a different world.
type envFlags struct {
	scale       string
	seed        int64
	parallelism int
}

func (e *envFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&e.scale, "scale", "quick", "experiment scale: quick | full")
	fs.Int64Var(&e.seed, "seed", 0, "world seed (0 = the paper-vintage default)")
	fs.IntVar(&e.parallelism, "parallelism", 1, "device scoring-pool width per model (>= 1)")
}

func (e *envFlags) build() (*experiments.Env, error) {
	var scale experiments.Scale
	switch e.scale {
	case "quick":
		scale = experiments.Quick
	case "full":
		scale = experiments.Full
	default:
		return nil, fmt.Errorf("unknown -scale %q (want quick or full)", e.scale)
	}
	if err := engine.ValidateParallelism(e.parallelism); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "building synthetic world (scale=%s)...\n", e.scale)
	return experiments.NewEnv(experiments.EnvConfig{
		Scale:       scale,
		Seed:        e.seed,
		Parallelism: e.parallelism,
	}), nil
}

// chaosFlags arm the process-wide fault injector for local runs — the CLI
// face of the chaos-testing story. The same scenario string and seed replay
// the same fault sequence, so a chaotic run is a reproducible run.
type chaosFlags struct {
	scenario string
	seed     int64
}

func (c *chaosFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&c.scenario, "chaos", "", "fault-injection scenario, e.g. 'device.forward=p0.05,ledger.sync=n1' (empty = off)")
	fs.Int64Var(&c.seed, "chaos-seed", 1, "seed for deterministic chaos decisions")
}

func (c *chaosFlags) arm() error {
	if c.scenario == "" {
		return nil
	}
	in, err := fault.ParseScenario(c.scenario, c.seed)
	if err != nil {
		return err
	}
	fault.Enable(in)
	fmt.Fprintf(os.Stderr, "chaos armed: %s (seed %d)\n", c.scenario, c.seed)
	return nil
}

// newLocalManager arms the chaos scenario, builds the world, and returns a
// jobs manager over its two models.
func newLocalManager(dir string, ef *envFlags, cf *chaosFlags) (*jobs.Manager, error) {
	if err := cf.arm(); err != nil {
		return nil, err
	}
	env, err := ef.build()
	if err != nil {
		return nil, err
	}
	mgr, err := jobs.NewManager(jobs.Config{Dir: dir, Env: env})
	if err != nil {
		return nil, err
	}
	mgr.RegisterModel("large", env.Large)
	mgr.RegisterModel("small", env.Small)
	return mgr, nil
}

// specFlags registers the submission knobs shared by local and remote
// submit.
func specFlags(fs *flag.FlagSet, spec *jobs.Spec) {
	fs.StringVar(&spec.Suite, "suite", "", "validation suite (see 'relm-audit suites')")
	fs.StringVar(&spec.Model, "model", "large", "model to validate: large | small (or a server registry name)")
	fs.IntVar(&spec.ShardSize, "shard", 0, "items per work unit (0 = default)")
	fs.IntVar(&spec.Workers, "workers", 0, "per-job worker-pool width (0 = default)")
	fs.IntVar(&spec.CheckpointEvery, "checkpoint", 0, "shards between fsync'd checkpoints (0 = default)")
	fs.IntVar(&spec.MaxItems, "max-items", 0, "cap the suite's worklist (0 = all)")
	fs.IntVar(&spec.Priority, "priority", 0, "queue priority, higher first [-100, 100]")
	fs.StringVar(&spec.Variant, "variant", "", "suite sub-mode (lambada: baseline|words|terminated|no stop)")
	fs.IntVar(&spec.CancelAfterItems, "kill-after", 0, "cancel the run after N item results (0 = never); resume later")
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var spec jobs.Spec
	specFlags(fs, &spec)
	var ef envFlags
	ef.register(fs)
	var cf chaosFlags
	cf.register(fs)
	ledgerDir := fs.String("ledger", "", "run-ledger directory (local mode)")
	server := fs.String("server", "", "relm-serve base URL (remote mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*ledgerDir == "") == (*server == "") {
		return fmt.Errorf("exactly one of -ledger (local) or -server (remote) is required")
	}
	if *server != "" {
		if cf.scenario != "" {
			return fmt.Errorf("-chaos is local-mode only (arm the server with relm-serve -chaos instead)")
		}
		return submitRemote(*server, spec)
	}
	mgr, err := newLocalManager(*ledgerDir, &ef, &cf)
	if err != nil {
		return err
	}
	j, err := mgr.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted %s (suite=%s model=%s items=%d)\n",
		j.ID, spec.Suite, spec.Model, j.Snapshot().Progress.Items)
	return watchLocal(os.Stdout, mgr, j)
}

func cmdResume(args []string) error {
	fs := flag.NewFlagSet("resume", flag.ExitOnError)
	id := fs.String("id", "", "job id to resume")
	ledgerDir := fs.String("ledger", "", "run-ledger directory")
	var ef envFlags
	ef.register(fs)
	var cf chaosFlags
	cf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" || *ledgerDir == "" {
		return fmt.Errorf("resume requires -id and -ledger")
	}
	mgr, err := newLocalManager(*ledgerDir, &ef, &cf)
	if err != nil {
		return err
	}
	j, err := mgr.Resume(*id)
	if err != nil {
		return err
	}
	snap := j.Snapshot()
	fmt.Printf("resumed %s (attempt %d: %d/%d items already recorded)\n",
		j.ID, snap.Resumes, snap.Progress.ItemsDone, snap.Progress.Items)
	return watchLocal(os.Stdout, mgr, j)
}

// watchLocal follows the job's fold through jobs.Job.Since, printing a line
// per result as its record lands and then the summary.
func watchLocal(w io.Writer, mgr *jobs.Manager, j *jobs.Job) error {
	for n := 0; ; {
		results, snap, wake := j.Since(n, true)
		for _, res := range results {
			printResult(w, j.ID, res)
		}
		n += len(results)
		if wake == nil {
			printProgress(w, snap)
			fmt.Fprintf(w, "ledger: %s\n", mgr.LedgerPath(j.ID))
			switch snap.Status {
			case jobs.StatusCompleted:
				fmt.Fprintf(w, "completed: %d/%d items ok; verify with: relm-audit verify -id %s -ledger <dir>\n",
					snap.Progress.OKItems, snap.Progress.Items, j.ID)
				return nil
			case jobs.StatusCancelled:
				fmt.Fprintf(w, "cancelled after %d/%d items; continue with: relm-audit resume -id %s -ledger <dir>\n",
					snap.Progress.ItemsDone, snap.Progress.Items, j.ID)
				return nil
			default:
				return fmt.Errorf("job %s %s: %s", j.ID, snap.Status, snap.Error)
			}
		}
		<-wake
	}
}

// printResult prints one item's result as the job records it.
func printResult(w io.Writer, id string, r jobs.ItemResult) {
	fmt.Fprintf(w, "[%s] item %s ok=%t score=%.4g\n", id, r.ID, r.OK, r.Score)
}

func printProgress(w io.Writer, s jobs.Snapshot) {
	fmt.Fprintf(w, "[%s] %-9s items %d/%d  shards %d/%d  ok %d  model-calls %d  kv-hits %d  plan-hits %d",
		s.ID, s.Status, s.Progress.ItemsDone, s.Progress.Items,
		s.Progress.ShardsDone, s.Progress.Shards, s.Progress.OKItems,
		s.Engine.ModelCalls, s.KVHits, s.PlanHits)
	if s.Retries > 0 || s.Quarantined > 0 {
		fmt.Fprintf(w, "  retries %d  quarantined %d", s.Retries, s.Quarantined)
	}
	fmt.Fprintln(w)
}

func cmdSuites() error {
	for _, n := range jobs.SuiteNames() {
		fmt.Println(n)
	}
	return nil
}
