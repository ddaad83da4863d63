package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/relm"
)

// childRun runs one workload's end-to-end pass in a fresh process of this
// same binary — one run's heap and caches cannot colour the next — and
// parses its contract line, the same way the driver reads it.
func childRun(cfg runConfig, log io.Writer) (*contractLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", "0", "-scratch", cfg.scratch,
	}
	if cfg.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("relmperf: child run of %s: %w", cfg.workload, err)
	}
	var last []byte
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line contractLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("relmperf: child run of %s printed no contract line: %w", cfg.workload, err)
	}
	fmt.Fprintf(log, "  ran %s (seed %d): attempted %d, failed %d, correct %v\n",
		cfg.workload, cfg.seed, line.Attempted, line.Failed, line.Correct)
	if !line.Correct || line.Failed > 0 {
		return nil, fmt.Errorf("relmperf: child run of %s had %d failed ops (correct=%v)", cfg.workload, line.Failed, line.Correct)
	}
	return &line, nil
}

// worse is how much worse b is than a, as a share of a, in the metric's own
// direction (negative: b is better).
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfCheck is the A/A test: every workload twice on the same seed, each
// end-to-end metric's difference beside its bound. Two runs of identical
// code must agree within the bounds the benchmark holds changes to.
func selfCheck(cfg runConfig, out io.Writer) error {
	bad := 0
	for _, wl := range workloadNames {
		c := cfg
		c.workload = wl
		a, err := childRun(c, out)
		if err != nil {
			return err
		}
		b, err := childRun(c, out)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n  %-22s %14s %14s %9s %7s\n", wl, "metric", "run A", "run B", "diff", "bound")
		for _, d := range endToEndMetrics {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(worse(d, va, vb))
			mark := ""
			if diff > d.Bound {
				mark = "  EXCEEDS"
				bad++
			}
			fmt.Fprintf(out, "  %-22s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", d.Name, va, vb, 100*diff, 100*d.Bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("relmperf: selfcheck: %d workload × metric pairs differ by more than their bound", bad)
	}
	fmt.Fprintln(out, "selfcheck passed: every workload × metric pair within its bound")
	return nil
}

const (
	// sensitivityDelay is the smallest amount of model time -sensitivity adds
	// to a decorated call; it is doubled until the predicted rise of the mean
	// op time is at least sensitivityRise of it: the reference box moves a
	// pass by up to a tenth between one minute and the next, and the quarter
	// of the rise the check allows must be more than that.
	sensitivityDelay = 200 * time.Microsecond
	sensitivityRise  = 0.50
	// sensitivityPairs is how many (base, slow) pairs of passes are compared,
	// alternating, so that the machine's drift falls on both sides alike.
	sensitivityPairs = 3
	// sensitivityFloor is the share of its base value a figure may miss its
	// prediction by when a quarter of the prediction is smaller than that: a
	// median op served from the logit cache is predicted hardly to move, and
	// the reference box moves a median by up to a tenth between two passes.
	sensitivityFloor = 0.10
	// probeRounds is the least number of times the compile-chain probes
	// compile each pattern on each side; rounds go on until probeBudget is
	// spent, so that a workload of cheap patterns (a dozen on serve-mix) gets
	// as steady a figure as compile-cold's 32 costly ones. probeTolerance is
	// how far a probe's two sides may differ, the issue's 3 %; a probe faster
	// than probeGrain is printed and not judged, 3 % of it being a tenth of a
	// microsecond.
	probeRounds    = 25
	probeBudget    = 75 * time.Second
	probeTolerance = 0.03
	probeGrain     = 10 // µs
)

// compileProbeNames are relm.Explain and the direct-call probes of the
// compile chain: they never call the model, so added model time must leave
// them alone.
var compileProbeNames = append([]string{"relm.explain_ms"}, compileSteps...)

// sensitivityPass serves the first third of the plan from a fresh stack whose
// decorated model calls each take delay longer, in the serial configuration:
// one client and one scoring worker, so every model call made during an op
// is that op's own and on its critical path.
func sensitivityPass(w *world, pl *plan, cfg runConfig, delay time.Duration) (*phase, error) {
	s, err := newStack(w, stackOptions{jobs: pl.workload == wlAudit, scratch: cfg.scratch, modelDelay: delay, serial: true, listen: true})
	if err != nil {
		return nil, err
	}
	runPhaseWith(s, pl.warmup, time.Time{}, 1, false)
	ph := runPhaseWith(s, pl.timed[:len(pl.timed)/layerShare], time.Time{}, 1, false)
	if err := s.close(); err != nil {
		return nil, err
	}
	if n := len(ph.failed()); n > 0 {
		return nil, fmt.Errorf("relmperf: sensitivity pass on %s: %d of %d ops failed", pl.workload, n, len(ph.results))
	}
	return ph, nil
}

// probeCompileChain takes the compile-chain probes on a stack without the
// delay and on one with it. Each pattern is compiled the same number of times
// on either side, in pairs. It returns the base side's means per pattern in the probes' units
// (each step charged its fastest time, as the per-layer pass does), each
// probe's median ratio of a slow-side compilation to the base-side one next
// to it — neighbours share whatever spell the machine is in, and the median
// of a thousand pairs is steadier than any sum of fastest times proved to be —
// and how many decorated model calls the probes made: the delay sits inside
// those calls and nowhere else.
func probeCompileChain(w *world, ops []*op, delay time.Duration) (base, slowOverBase map[string]float64, modelCalls int64, err error) {
	var stacks [2]*stack
	var fresh [2]map[string]*relm.Model
	for side, d := range []time.Duration{0, delay} {
		s, err := newStack(w, stackOptions{serial: true, modelDelay: d})
		if err != nil {
			return nil, nil, 0, err
		}
		defer s.close()
		stacks[side], fresh[side] = s, uncachedModels(s)
	}
	picked := probePatterns(ops)
	if len(picked) == 0 {
		return nil, nil, 0, nil // audit-suite: jobs, no search ops
	}
	calls0 := stacks[0].timerTotal().calls + stacks[1].timerTotal().calls
	best := make([]map[string]time.Duration, len(picked))
	for i := range best {
		best[i] = map[string]time.Duration{}
	}
	ratios := map[string][]float64{}
	// Which side of a pair goes first is drawn, not alternated: the collector
	// runs every few compilations, and a fixed order can fall in step with it.
	rng := rand.New(rand.NewSource(1))
	for r, t0 := 0, time.Now(); r < probeRounds || time.Since(t0) < probeBudget; r++ {
		for i, o := range picked {
			var took [2]map[string]time.Duration
			first := rng.Intn(2)
			for _, side := range []int{first, 1 - first} {
				took[side], _ = compileOnce(stacks[side], fresh[side][o.search.Model], o)
			}
			keepFastest(best[i], took[0])
			for name, d := range took[0] {
				ratios[name] = append(ratios[name], float64(took[1][name])/float64(d))
			}
		}
	}
	sum := map[string]time.Duration{}
	for i := range best {
		for name, d := range best[i] {
			sum[name] += d
		}
	}
	n := float64(len(picked))
	base = map[string]float64{"relm.explain_ms": ms(sum["explain"]) / n}
	slowOverBase = map[string]float64{"relm.explain_ms": median(ratios["explain"])}
	for _, name := range compileSteps {
		base[name] = us(sum[name]) / n
		slowOverBase[name] = median(ratios[name])
	}
	calls := stacks[0].timerTotal().calls + stacks[1].timerTotal().calls - calls0
	return base, slowOverBase, calls, nil
}

// opTimes is the mean and the median op time of a pass, in ms, if every one
// of its ops' own model calls had taken delay longer.
func opTimes(ph *phase, delay time.Duration) (meanMS, p50MS float64) {
	var total []float64
	for _, r := range ph.succeeded() {
		total = append(total, ms(r.total+time.Duration(r.ownCalls)*delay))
	}
	p50MS, _ = percentile(total, 50, 0)
	return mean(total), p50MS
}

// sensitivityCheck shows the numbers respond to the layer they are
// attributed to, in proportion. With a fixed delay added to every decorated
// model call, the mean op time must rise by the ops' own model calls × the
// delay, and op_p50_ms by what the same calls predict for the median — the
// median of (op time + own calls × delay) over the base pass, minus its
// median — each to within a quarter of the prediction (or a tenth of the base
// value where that is more: a median op served from the logit cache makes no
// model call and hardly moves). The compile-chain probes, which never call
// the model, must make no decorated call and stay within probeTolerance.
// Base and slow passes alternate in this process and are compared pair by
// pair; the probes alternate too and are compared compilation by compilation.
func sensitivityCheck(cfg runConfig, out io.Writer) error {
	bad := 0
	for _, wl := range workloadNames {
		c := cfg
		c.workload = wl
		w := buildWorld(wl)
		pl, err := planFor(w, c)
		if err != nil {
			return err
		}
		// A first base pass sizes the delay.
		first, err := sensitivityPass(w, pl, c, 0)
		if err != nil {
			return err
		}
		var calls int64
		for _, r := range first.succeeded() {
			calls += r.ownCalls
		}
		if calls == 0 {
			return fmt.Errorf("relmperf: sensitivity: %s makes no model call", wl)
		}
		delay := time.Duration(sensitivityDelay)
		for m0, _ := opTimes(first, 0); ; delay *= 2 {
			if m, _ := opTimes(first, delay); m-m0 >= sensitivityRise*m0 {
				break
			}
		}
		// Each pair is a base pass and the slow pass right after it; a
		// figure's rise is taken within the pair, so that drift slower than
		// two passes cancels, and the pairs' median is what is judged.
		type figure struct{ base, rise, predicted []float64 }
		meanOp, p50Op := &figure{}, &figure{}
		for i := 0; i < sensitivityPairs; i++ {
			base, err := sensitivityPass(w, pl, c, 0)
			if err != nil {
				return err
			}
			slow, err := sensitivityPass(w, pl, c, delay)
			if err != nil {
				return err
			}
			m0, p0 := opTimes(base, 0)
			md, pd := opTimes(base, delay)
			m1, p1 := opTimes(slow, 0)
			meanOp.base, meanOp.rise, meanOp.predicted = append(meanOp.base, m0), append(meanOp.rise, m1-m0), append(meanOp.predicted, md-m0)
			p50Op.base, p50Op.rise, p50Op.predicted = append(p50Op.base, p0), append(p50Op.rise, p1-p0), append(p50Op.predicted, pd-p0)
		}
		probeBase, probeRatio, probeCalls, err := probeCompileChain(w, pl.timed[:len(pl.timed)/layerShare], delay)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s: +%v per model call, %.1f own calls per op\n", wl, delay, float64(calls)/float64(len(first.results)))
		for _, f := range []struct {
			name string
			*figure
		}{{"mean op time", meanOp}, {"op_p50_ms", p50Op}} {
			base, rise, want := median(f.base), median(f.rise), median(f.predicted)
			verdict := "ok"
			if math.Abs(rise-want) > math.Max(0.25*want, sensitivityFloor*base) {
				verdict = "OUTSIDE THE PREDICTION"
				bad++
			}
			fmt.Fprintf(out, "  %-24s %12.3f -> %12.3f  rise %.3f ms, predicted %.3f ms  %s\n", f.name, base, base+rise, rise, want, verdict)
		}
		for _, name := range compileProbeNames {
			va := probeBase[name]
			if va == 0 {
				continue
			}
			moved := probeRatio[name] - 1
			mark := ""
			switch {
			case name != "relm.explain_ms" && va < probeGrain:
				mark = "  (too fast to judge)"
			case math.Abs(moved) > probeTolerance:
				mark = "  MOVED"
				bad++
			}
			fmt.Fprintf(out, "  %-24s %12.3f -> %12.3f  %+6.2f%%%s\n", name, va, va*probeRatio[name], 100*moved, mark)
		}
		if probeBase != nil {
			verdict := "ok"
			if probeCalls != 0 {
				verdict = "THE COMPILE CHAIN CALLS THE MODEL"
				bad++
			}
			fmt.Fprintf(out, "  model calls made by the compile probes: %d  %s\n", probeCalls, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("relmperf: sensitivity: %d checks failed", bad)
	}
	fmt.Fprintln(out, "sensitivity passed")
	return nil
}
