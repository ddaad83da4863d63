// Command relm-bench regenerates the paper's evaluation: one experiment per
// table and figure (see DESIGN.md's per-experiment index). Output is the
// text analog of each figure plus a summary table.
//
// Usage:
//
//	relm-bench -exp all                 # run everything at -scale quick
//	relm-bench -exp fig5 -scale full    # one experiment at paper scale
//	relm-bench -list                    # list experiment IDs
//
// Execution knobs (DESIGN.md decision 6): -parallelism sizes the one device
// scoring pool every experiment's batches are sharded across (default: all
// CPUs; 1 = no pool, the serial path). Experiment results are unaffected — the
// traversals are deterministic — only wall-clock speed changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/textio"
	"repro/internal/trace"
	"repro/relm"
)

type experiment struct {
	id    string
	about string
	run   func(env *experiments.Env) error
}

func main() {
	expFlag := flag.String("exp", "all", "experiment id (comma-separated) or 'all'")
	scaleFlag := flag.String("scale", "quick", "quick | full")
	seedFlag := flag.Int64("seed", 0, "world seed (0 = default)")
	parFlag := flag.Int("parallelism", runtime.NumCPU(), "device scoring-pool width shared by every model (1 = serial)")
	traceFlag := flag.String("trace", "", "write every query's span tree as Chrome trace-event JSON to this file (load in chrome://tracing or Perfetto)")
	listFlag := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if err := engine.ValidateParallelism(*parFlag); err != nil {
		fmt.Fprintln(os.Stderr, "relm-bench: -parallelism:", err)
		os.Exit(2)
	}

	table := registry()
	if *listFlag {
		tb := textio.NewTable("id", "reproduces")
		for _, e := range table {
			tb.AddRow(e.id, e.about)
		}
		tb.Render(os.Stdout)
		return
	}

	scale := experiments.Quick
	if *scaleFlag == "full" {
		scale = experiments.Full
	}
	fmt.Printf("building synthetic world (scale=%s, parallelism=%d)...\n", *scaleFlag, *parFlag)
	env := experiments.NewEnv(experiments.EnvConfig{Scale: scale, Seed: *seedFlag, Parallelism: *parFlag})
	fmt.Printf("world ready: vocab=%d, corpus lines=%d, memorized URLs=%d, pile docs=%d, cloze items=%d\n",
		env.Tok.VocabSize(), len(env.Corpus), len(env.Web.Memorized), len(env.Pile), len(env.Lambada.Items))

	want := map[string]bool{}
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	ran := 0
	for _, e := range table {
		if !want["all"] && !want[e.id] {
			continue
		}
		ran++
		before := env.PlanStats()
		kvBefore := env.KVStats()
		start := time.Now()
		if err := e.run(env); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		reportSplit(e.id, time.Since(start), before, env.PlanStats())
		reportKV(e.id, kvBefore, env.KVStats())
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q; use -list\n", *expFlag)
		os.Exit(1)
	}
	if *traceFlag != "" {
		if err := writeTrace(*traceFlag, env); err != nil {
			fmt.Fprintln(os.Stderr, "relm-bench: -trace:", err)
			os.Exit(1)
		}
	}
}

// writeTrace dumps the span trees of every query the run's models retained
// as one Chrome trace-event JSON file.
func writeTrace(path string, env *experiments.Env) error {
	data := env.Traces()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := trace.WriteChrome(f, data)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	fmt.Printf("wrote %s (%d traces)\n", path, len(data))
	return nil
}

// reportSplit prints the compile-vs-traverse time split for one experiment:
// compile is the plan-cache's measured compilation wall time during the run,
// and the remainder is traversal plus model scoring — the amortizable versus
// per-query cost breakdown the paper's serving story is about (DESIGN.md
// decision 9).
func reportSplit(id string, wall time.Duration, before, after relm.PlanCacheStats) {
	compile := after.CompileTime - before.CompileTime
	traverse := wall - compile
	if traverse < 0 {
		traverse = 0 // compile can overlap wall rounding at µs scales
	}
	pct := 0.0
	if wall > 0 {
		pct = 100 * float64(compile) / float64(wall)
	}
	fmt.Printf("[%s] wall %v | compile %v (%.1f%%) | traverse+score %v | plan cache +%d hits / +%d misses\n",
		id, wall.Round(time.Millisecond), compile.Round(time.Millisecond), pct,
		traverse.Round(time.Millisecond), after.Hits-before.Hits, after.Misses-before.Misses)
}

// reportKV prints the experiment's prefix-state reuse split (DESIGN.md
// decision 10): how many frontier expansions rode a cached parent state
// versus recomputed, and the arena's pressure. Silent when the experiment
// ran no incremental queries.
func reportKV(id string, before, after relm.KVStats) {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits == 0 && misses == 0 {
		return
	}
	evict := after.Evictions - before.Evictions
	demote := after.Demotions - before.Demotions
	promote := after.Promotions - before.Promotions
	fmt.Printf("[%s] kv arena +%d state hits / +%d misses | +%d evictions | +%d demotions / +%d promotions | resident %d B (%d B token-only in %d nodes)\n",
		id, hits, misses, evict, demote, promote, after.ResidentBytes, after.DemotedBytes, after.DemotedNodes)
}

func registry() []experiment {
	return []experiment{
		{
			id:    "fig5",
			about: "Figure 5/6/10: URL memorization, ReLM vs stop-length baselines",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunMemorization(env, experiments.MemorizationConfig{})
				if err != nil {
					return err
				}
				experiments.RenderMemorization(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "fig7",
			about: "Figure 7 + Observation 3: gender bias across encodings/edits",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunBias(env, experiments.BiasConfig{})
				if err != nil {
					return err
				}
				experiments.RenderBias(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "fig13",
			about: "Figure 13: bias grid (large model): all/canonical x edits",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunBias(env, experiments.BiasConfig{Variants: experiments.GridVariants(false)})
				if err != nil {
					return err
				}
				experiments.RenderBias(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "fig14",
			about: "Figure 14: bias grid (small model)",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunBias(env, experiments.BiasConfig{Variants: experiments.GridVariants(true)})
				if err != nil {
					return err
				}
				experiments.RenderBias(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "fig8",
			about: "Figure 8: toxic content extraction, prompted + unprompted",
			run: func(env *experiments.Env) error {
				p, err := experiments.RunToxicityPrompted(env, experiments.ToxicityConfig{})
				if err != nil {
					return err
				}
				u, err := experiments.RunToxicityUnprompted(env, experiments.ToxicityConfig{})
				if err != nil {
					return err
				}
				experiments.RenderToxicity(os.Stdout, p, u)
				return nil
			},
		},
		{
			id:    "fig9",
			about: "Figure 9/Appendix C: edit-position CDF, normalized vs not",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunEditCDF(env, experiments.EditCDFConfig{})
				if err != nil {
					return err
				}
				experiments.RenderEditCDF(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "tab1",
			about: "Table 1: zero-shot LAMBADA-style accuracy, 4 variants x 2 models",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunLambada(env, experiments.LambadaConfig{})
				if err != nil {
					return err
				}
				experiments.RenderLambada(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "canon",
			about: "§3.2 measurement: non-canonical fraction of free samples",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunCanon(env, experiments.CanonConfig{})
				if err != nil {
					return err
				}
				experiments.RenderCanon(os.Stdout, res)
				return nil
			},
		},
		{
			id:    "families",
			about: "extension (§6 future work): one engine, three model architectures",
			run: func(env *experiments.Env) error {
				res, err := experiments.RunFamilies(env, experiments.FamiliesConfig{})
				if err != nil {
					return err
				}
				experiments.RenderFamilies(os.Stdout, res)
				return nil
			},
		},
	}
}
