// Command relmperf is the repo's performance ledger: it builds the seeded
// synthetic world, serves it through an in-process internal/server on a
// loopback listener, drives one workload closed-loop from two clients, and
// prints every end-to-end and per-layer metric by name with its unit,
// direction and regression bound. bench/README.md is the manual.
//
//	go run ./relmperf -workload serve-mix                 # from bench/
//	bash bench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

const (
	// defaultSeed is the development seed; holdoutSeed is kept for checking
	// a claim on inputs nobody tuned against (bench/README.md).
	defaultSeed = 1
	holdoutSeed = 20230515

	// defaultSeconds is BENCHMARK.json's run_seconds: the timed phase's
	// length on the reference box and its hard cap anywhere.
	defaultSeconds = 20

	// setupsPerRound is how many fresh processes repeat set-up in each of the
	// run's three rounds (endToEndPass).
	setupsPerRound = 5

	// kernelRef is what allocKernel took on the reference box when the
	// benchmark was defined: setup_s is set-up time at that machine speed.
	kernelRef = 40 * time.Millisecond

	// hardStop aborts a run that would break the contract's 180 s limit.
	hardStop = 170 * time.Second
)

// nominalRate is how many timed ops a workload plans per second of
// -seconds. It is set so that on the 2-core reference box the fixed op
// sequence finishes in about 85 % of -seconds: there the op count — and so
// which sample each percentile is — repeats exactly from run to run. A
// slower machine hits the -seconds cap first and runs a prefix of the same
// sequence; block layout keeps the class mix of any prefix the same.
var nominalRate = map[string]float64{
	wlServeMix:    30,
	wlCompileCold: 45,
	wlIncremental: 38,
	wlAudit:       37,
}

// runConfig is one run's settings.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    int  // 0: end-to-end only; 1: per-layer only; 2: both
	short    bool // tens of ops, no percentile floor: for tests
	scratch  string
}

// deadline caps a measured pass at -seconds from now.
func (c runConfig) deadline() time.Time {
	return time.Now().Add(time.Duration(c.seconds) * time.Second)
}

func (c runConfig) timedOps() int {
	if c.short {
		return 20
	}
	return int(nominalRate[c.workload] * float64(c.seconds))
}

// phaseCount is attempted / succeeded / failed for one pass.
type phaseCount struct {
	name                         string
	planned, attempted, ok, fail int
}

// runResult is everything one run reports.
type runResult struct {
	cfg        runConfig
	pl         *plan
	phases     []phaseCount
	metrics    map[string]float64
	wall       map[string]float64 // the timed phase's wall-clock metrics, printed for the reader (trace 0 and 2)
	checked    int
	mismatches []string
	failures   []string // first few failed ops, for the log
	// ownSetup is this process's set-up in seconds as the clock had it;
	// setups are the fresh processes', as the clock had them (rawSetups) and
	// at reference speed (repeatSetUp).
	ownSetup          float64
	setups, rawSetups []float64
	// calibration is the machine-speed kernel's time in ms, taken right after
	// the timed phase (after, so its 64 MiB table cannot show in the phase's
	// peak_rss_mb); stats.go, calibrate.
	calibration float64
	commit      string
}

func (r *runResult) note(p *phase, name string) {
	r.phases = append(r.phases, phaseCount{name, p.planned, len(p.results), len(p.succeeded()), len(p.failed())})
	for _, f := range p.failed() {
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf("%s op %d (%s): %s", name, f.op.idx, f.op.class, f.fail))
		}
	}
}

// setUp builds a world and an untraced serving stack and reports how long
// that took: world build, tokenizer and model training, model, server and
// manager construction, until the listener accepts.
func setUp(cfg runConfig, since time.Time) (*world, *stack, float64, error) {
	w := buildWorld(cfg.workload)
	s, err := newStack(w, stackOptions{jobs: cfg.workload == wlAudit, scratch: cfg.scratch, listen: true})
	if err != nil {
		return nil, nil, 0, err
	}
	return w, s, time.Since(since).Seconds(), nil
}

// run executes one workload and returns its numbers.
func run(cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	res := &runResult{cfg: cfg, metrics: map[string]float64{}, commit: buildCommit()}
	var w *world
	var err error
	if cfg.trace != 1 {
		w, err = res.endToEndPass()
	} else {
		w = buildWorld(cfg.workload)
		res.pl, err = planFor(w, cfg)
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace != 0 {
		layers, lr, err := layerPass(w, res.pl, cfg)
		if lr != nil {
			res.note(lr.ref, "traced-pass reference")
			if lr.follow != nil {
				res.note(lr.follow, "follow=1 stream")
			}
			res.note(lr.traced, "traced pass")
			res.checked += lr.checked
			res.mismatches = append(res.mismatches, lr.mismatches...)
		}
		if err != nil {
			return nil, err
		}
		for k, v := range layers {
			res.metrics[k] = v
		}
	}
	return res, nil
}

// planFor builds the run's op sequence (a -short run keeps four warm-up ops).
func planFor(w *world, cfg runConfig) (*plan, error) {
	pl, err := buildPlan(w, cfg.workload, cfg.seed, cfg.timedOps())
	if err == nil && cfg.short {
		pl.warmup = pl.warmup[:min(len(pl.warmup), 4)]
	}
	return pl, err
}

// endToEndPass is the tracing-off half of a run: set-up (timed from process
// start), warm-up, timed phase, verification, the repeated set-ups, and the
// end-to-end metrics. It returns the world for the per-layer pass.
func (res *runResult) endToEndPass() (*world, error) {
	cfg := res.cfg
	w, s, setup, err := setUp(cfg, processStart)
	if err != nil {
		return nil, err
	}
	res.ownSetup = setup
	if res.pl, err = planFor(w, cfg); err != nil {
		_ = s.close() // the plan error is the one to report
		return nil, err
	}
	// setup_s is the median of fifteen set-ups in fresh processes, three
	// rounds of five — before the warm-up, after the timed phase and after
	// verification, while this process is idle — because one set-up is a
	// single sample of a tenth of a second, and the machine's speed changes
	// from one few seconds to the next.
	if err := res.repeatSetUp(); err != nil {
		_ = s.close()
		return nil, err
	}
	res.note(runPhase(s, res.pl.warmup, time.Time{}), "warm-up")
	timed := runPhase(s, res.pl.timed, cfg.deadline())
	res.calibration = ms(calibrate())
	err = res.repeatSetUp()
	if err == nil {
		res.checked, res.mismatches = verifyPhase(w, s, timed)
		res.note(timed, "timed")
		err = res.repeatSetUp()
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	minBeyond := 10
	if cfg.short {
		minBeyond = 0
	}
	setupS := res.ownSetup // a -short run repeats no set-up
	if len(res.setups) > 0 {
		setupS = median(res.setups)
	}
	e2e, err := timed.bounded(setupS)
	if err == nil {
		res.wall, err = timed.wallClock(minBeyond)
	}
	if err != nil {
		return nil, fmt.Errorf("relmperf: %s: %w", cfg.workload, err)
	}
	for k, v := range e2e {
		res.metrics[k] = v
	}
	return w, nil
}

// repeatSetUp runs one round of set-ups, each in a process of its own — a
// set-up repeated inside this process would start from whatever heap the
// phases left behind, not from a process start as setup_s is defined — and
// appends their times. Each process also times allocKernel right after its
// set-up, and the set-up is scaled to the speed at which that kernel takes
// kernelRef: a fresh process's set-up is bound by first-touch memory and
// allocation, whose cost on the reference box drifts by a fifth over
// minutes, and the kernel drifts with it (bench/README.md, setup_s). A
// -short run (the tests) does none.
func (res *runResult) repeatSetUp() error {
	if res.cfg.short {
		return nil
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < setupsPerRound; i++ {
		out, err := exec.Command(exe, "-setup-only", "-workload", res.cfg.workload, "-scratch", res.cfg.scratch).Output()
		if err != nil {
			return fmt.Errorf("relmperf: set-up in a fresh process: %w", err)
		}
		var secs, kernel float64
		if _, err := fmt.Sscan(string(out), &secs, &kernel); err != nil || kernel <= 0 {
			return fmt.Errorf("relmperf: set-up in a fresh process printed %q: %v", out, err)
		}
		res.rawSetups = append(res.rawSetups, secs)
		res.setups = append(res.setups, secs*kernelRef.Seconds()/kernel)
	}
	return nil
}

// buildCommit is the VCS revision the binary was built from, when the build
// recorded one (a driver checkout is not a git repository).
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				return kv.Value
			}
		}
	}
	return "unknown"
}

// contractLine is the last line of standard output: the driver's result.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints provenance, failure accounting and every metric with its
// unit, direction and bound, then the contract line.
func (r *runResult) report(out io.Writer) error {
	cfg := r.cfg
	fmt.Fprintf(out, "relmperf workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "  op-sequence hash %s, %d timed ops planned, %d warm-up ops, %d clients\n",
		r.pl.hash, len(r.pl.timed), len(r.pl.warmup), nClients)
	fmt.Fprintf(out, "  commit %s, %s, GOMAXPROCS %d, nproc %d\n", r.commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
	line := contractLine{Correct: len(r.mismatches) == 0, Metrics: map[string]contractValue{}}
	for _, p := range r.phases {
		fmt.Fprintf(out, "  %-22s planned %4d attempted %4d succeeded %4d failed %d\n", p.name, p.planned, p.attempted, p.ok, p.fail)
		if p.name != "warm-up" {
			line.Attempted += p.attempted
			line.Failed += p.fail
		}
	}
	fmt.Fprintf(out, "  verification: %d ops replayed, %d mismatches\n", r.checked, len(r.mismatches))
	for _, f := range r.failures {
		fmt.Fprintf(out, "  FAILED %s\n", f)
	}
	if len(r.setups) > 0 {
		fmt.Fprintf(out, "  set-up: this process %.4f s; %d fresh processes, median %.4f s on the clock; at reference speed (s): %.4f\n",
			r.ownSetup, len(r.setups), median(r.rawSetups), r.setups)
	}
	if r.calibration > 0 {
		fmt.Fprintf(out, "  machine calibration after the timed phase: %.1f ms — compare between runs before comparing their timings\n", r.calibration)
	}
	emit := func(title string, defs []metricDef) error {
		fmt.Fprintf(out, "%s\n", title)
		for _, d := range defs {
			v, ok := r.metrics[d.Name]
			if !ok {
				return fmt.Errorf("relmperf: metric %s was not measured", d.Name)
			}
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("bound %.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(out, "  %-36s %14.4f %-6s %-6s %s\n", d.Name, v, d.Unit, d.Better, bound)
			line.Metrics[d.Name] = contractValue{v, d.Unit}
		}
		return nil
	}
	if cfg.trace != 1 {
		if err := emit("end-to-end (tracing off)", endToEndMetrics); err != nil {
			return err
		}
		fmt.Fprintln(out, "wall clock over the timed phase (no bound: the reference box cannot hold one, bench/README.md)")
		for _, d := range wallClockMetrics {
			fmt.Fprintf(out, "  %-36s %14.4f %-6s %-6s\n", d.Name, r.wall[d.Name], d.Unit, d.Better)
		}
	}
	if cfg.trace != 0 {
		if err := emit("per-layer (traced pass and direct calls)", perLayerMetrics); err != nil {
			return err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

func main() {
	cfg := runConfig{}
	flag.StringVar(&cfg.workload, "workload", wlServeMix, "workload: serve-mix, compile-cold, incremental-deep or audit-suite")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, fmt.Sprintf("op-sequence seed (hold-out seed: %d)", holdoutSeed))
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "length of the timed phase: sizes the op sequence and caps the phase")
	flag.IntVar(&cfg.trace, "trace", 2, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; 2: both")
	flag.BoolVar(&cfg.short, "short", false, "tens of ops and no percentile floor (smoke test, numbers mean nothing)")
	flag.StringVar(&cfg.scratch, "scratch", ".relmperf", "directory for job ledgers; created, and emptied of what the run wrote")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on one seed and compare each end-to-end metric with its bound")
	sensitivity := flag.Bool("sensitivity", false, "add a fixed delay to every model call and show op_p50_ms moves by the ops' own model calls × the delay while the compile probes stay put")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it, and exit")
	setupOnly := flag.Bool("setup-only", false, "set up, print the seconds from process start to the server accepting and the seconds allocKernel then took, and exit (what a run re-executes itself with to repeat set-up)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()

	if *printManifest {
		b, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 2 {
		fatal(fmt.Errorf("relmperf: -seconds must be >= 1 and -trace one of 0, 1, 2"))
	}
	if _, _, err := workloadMix(cfg.workload); err != nil {
		fatal(err)
	}
	if *setupOnly {
		if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
			fatal(err)
		}
		_, s, secs, err := setUp(cfg, processStart)
		if err == nil {
			err = s.close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Println(secs, allocKernel().Seconds())
		return
	}
	if *selfcheck || *sensitivity {
		var err error
		if *selfcheck {
			err = selfCheck(cfg, os.Stdout)
		} else {
			err = sensitivityCheck(cfg, os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	watchdog := time.AfterFunc(hardStop, func() {
		fmt.Fprintf(os.Stderr, "relmperf: %s still running after %v; aborting\n", cfg.workload, hardStop)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := profiled(*cpuprofile, func() (*runResult, error) { return run(cfg) })
	if err != nil {
		fatal(err)
	}
	if err := res.report(os.Stdout); err != nil {
		fatal(err)
	}
}

// profiled runs fn under a CPU profile written to path (no profile when
// path is empty).
func profiled(path string, fn func() (*runResult, error)) (*runResult, error) {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	res, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return res, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
