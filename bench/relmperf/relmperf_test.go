package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/model"
)

// testWorld builds the largest world (all three models) once for the tests
// that only need plans.
var testWorld = sync.OnceValue(func() *world { return buildWorld(wlIncremental) })

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	w := testWorld()
	for _, wl := range workloadNames {
		a, err := buildPlan(w, wl, 7, 60)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		b, err := buildPlan(w, wl, 7, 60)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		c, err := buildPlan(w, wl, 8, 60)
		if err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: same seed, different op-sequence hashes %s and %s", wl, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 give the same op-sequence hash %s", wl, a.hash)
		}
		if len(a.timed) <= 60-20 || len(a.timed) > 60 || len(a.warmup) == 0 {
			t.Errorf("%s: %d timed and %d warm-up ops, want the whole blocks that fit in 60 and a warm-up", wl, len(a.timed), len(a.warmup))
		}
	}
}

// A fresh class must never repeat a pattern, in the warm-up or after it: a
// repeat would be a plan-cache hit on the workload that measures misses.
func TestCompileColdNeverRepeatsAPattern(t *testing.T) {
	pl, err := buildPlan(testWorld(), wlCompileCold, 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, o := range append(append([]*op(nil), pl.warmup...), pl.timed...) {
		if prev, dup := seen[o.search.Pattern]; dup {
			t.Fatalf("ops %d and %d share pattern %q", prev, o.idx, o.search.Pattern)
		}
		seen[o.search.Pattern] = o.idx
	}
}

// Every block holds each class its nominal number of times, so any prefix of
// the sequence has the nominal mix to within a block.
func TestBlocksKeepTheClassMix(t *testing.T) {
	pl, err := buildPlan(testWorld(), wlServeMix, 5, 200)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"url": 8, "tox": 4, "cloze": 3, "bias": 3, "beam": 2}
	for b := 0; b+20 <= len(pl.timed); b += 20 {
		got := map[string]int{}
		for _, o := range pl.timed[b : b+20] {
			got[o.class]++
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("block at op %d has mix %v, want %v", b, got, want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 100}, {95, 190}, {1, 2}} {
		got, err := percentile(samples, tc.p, 10)
		if err != nil || got != tc.want {
			t.Errorf("p%g = %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
	// p95 of 199 samples has only 9 beyond rank 190: refused.
	if _, err := percentile(samples[:199], 95, 10); err == nil {
		t.Error("p95 of 199 samples accepted with 9 samples beyond it")
	}
	if _, err := percentile(samples[:199], 95, 0); err != nil {
		t.Errorf("p95 of 199 samples with no floor: %v", err)
	}
	if _, err := percentile(nil, 50, 0); err == nil {
		t.Error("percentile of no samples accepted")
	}
	if _, err := percentile(samples, 100, 0); err == nil {
		t.Error("p100 accepted")
	}
}

func TestNamesFitTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloadNames {
		check("workload", wl)
		why := workloadWhy[wl]
		if why == "" || len(why) > 200 || strings.ContainsAny(why, "\n<>&") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters without <, > or &: %q", wl, why)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics...) {
		check("metric", d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != lower && d.Better != higher {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	sawSetup := false
	for _, d := range endToEndMetrics {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			sawSetup = d.Unit == "s" && d.Better == lower
			for _, o := range endToEndMetrics {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !sawSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(endToEndMetrics)+len(wallClockMetrics) != 12 || len(endToEndMetrics) > 16 || len(perLayerMetrics) > 128 {
		t.Errorf("%d end-to-end, %d wall-clock and %d per-layer metrics", len(endToEndMetrics), len(wallClockMetrics), len(perLayerMetrics))
	}
}

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the repo root: %v", err)
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `go run ./relmperf -manifest > ../BENCHMARK.json` from bench/")
	}
}

// The decorator must add Incremental and AllPositions exactly when the
// wrapped model has them — the cache and device layers branch on those
// interfaces — and must return the wrapped model's rows untouched.
func TestDecoratorKeepsTheModelsShape(t *testing.T) {
	w := testWorld()
	for _, name := range []string{"small", "tr"} {
		raw := w.lms[name]
		timer := &modelTimer{}
		wrapped, err := wrapModel(raw, timer)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, rawInc := raw.(model.Incremental)
		_, gotInc := wrapped.(model.Incremental)
		_, rawAP := raw.(model.AllPositions)
		_, gotAP := wrapped.(model.AllPositions)
		if rawInc != gotInc || rawAP != gotAP {
			t.Errorf("%s: raw model Incremental=%v AllPositions=%v, decorated %v %v", name, rawInc, rawAP, gotInc, gotAP)
		}
		if model.HasPrefixStates(raw) != model.HasPrefixStates(wrapped) {
			t.Errorf("%s: HasPrefixStates changed under the decorator", name)
		}
		ctx := []model.Token{raw.EOS(), 1, 2}
		if !reflect.DeepEqual(raw.NextLogProbs(ctx), wrapped.NextLogProbs(ctx)) {
			t.Errorf("%s: decorated NextLogProbs differs", name)
		}
		if !reflect.DeepEqual(raw.ScoreBatch([][]model.Token{ctx}), wrapped.ScoreBatch([][]model.Token{ctx})) {
			t.Errorf("%s: decorated ScoreBatch differs", name)
		}
		if s := timer.snapshot(); s.calls != 2 || s.rows != 2 || s.busy <= 0 {
			t.Errorf("%s: timer saw %+v after two one-row calls", name, s)
		}
	}
}

// A -short run of every workload must emit every end-to-end metric on the
// contract line and every wall-clock metric beside it, fail no op and pass
// verification.
func TestShortRunOfEveryWorkload(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			t.Parallel() // numbers mean nothing in a -short run; only their presence is checked
			res, err := run(runConfig{workload: wl, seed: defaultSeed, seconds: 10, trace: 0, short: true, scratch: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := res.report(&out); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line contractLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("last line is not the contract object: %v", err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted != len(res.pl.timed) {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", line.Correct, line.Attempted, line.Failed, out.String())
			}
			if res.checked == 0 {
				t.Error("verification replayed no op")
			}
			for _, d := range endToEndMetrics {
				v, ok := line.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) {
					t.Errorf("metric %s = %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(line.Metrics) != len(endToEndMetrics) {
				t.Errorf("%d metrics on the contract line, want %d", len(line.Metrics), len(endToEndMetrics))
			}
			for _, d := range wallClockMetrics {
				if !(res.wall[d.Name] > 0) {
					t.Errorf("wall-clock metric %s = %v, want a positive value", d.Name, res.wall[d.Name])
				}
			}
		})
	}
}

// A -short per-layer pass must emit every per-layer metric. audit-suite is
// the workload whose pass has the most parts: polled jobs, the follow=1
// stream, the ledger probe.
func TestShortPerLayerPass(t *testing.T) {
	t.Parallel()
	res, err := run(runConfig{workload: wlAudit, seed: defaultSeed, seconds: 10, trace: 1, short: true, scratch: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.report(&out); err != nil {
		t.Fatal(err)
	}
	if len(res.mismatches) != 0 || res.checked == 0 {
		t.Errorf("verification replayed %d ops, mismatches %v", res.checked, res.mismatches)
	}
	for _, name := range []string{"op_p50_ms", "jobs.follow_ms_per_job", "jobs.ledger_sync_us", "jobs.items_per_s"} {
		if !(res.metrics[name] > 0) {
			t.Errorf("%s = %v, want a positive value", name, res.metrics[name])
		}
	}
}

// The compile-chain probes must time every step a serve-mix pattern takes
// (the -short per-layer test above runs audit-suite, which has no patterns)
// without calling the model.
func TestCompileProbesCoverTheChain(t *testing.T) {
	t.Parallel()
	w := testWorld()
	pl, err := buildPlan(w, wlServeMix, defaultSeed, 20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStack(w, stackOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	out := map[string]float64{}
	compileProbes(s, pl.timed, out)
	for _, name := range []string{"regex.compile_us", "automaton.minimize_us", "levenshtein.expand_us", "compiler.full_us",
		"compiler.canonical_us", "automaton.freeze_us", "automaton.frozen_states", "automaton.frozen_edges", "relm.explain_ms"} {
		if !(out[name] > 0) {
			t.Errorf("%s = %v, want a positive value", name, out[name])
		}
	}
	if r := out["relm.compile_residual_pct"]; !(r > 0 && r < 100) {
		t.Errorf("relm.compile_residual_pct = %v, want a share of relm.Explain", r)
	}
	if calls := s.timerTotal().calls; calls != 0 {
		t.Errorf("the compile probes made %d model calls", calls)
	}
}
