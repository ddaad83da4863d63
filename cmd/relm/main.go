// Command relm runs ad-hoc ReLM queries against a synthetic model trained on
// the built-in corpus — the CLI form of the paper's Figure 4 workflow.
//
// Usage:
//
//	relm -pattern ' ([0-9]{3}) ([0-9]{3}) ([0-9]{4})' -prefix 'My phone number is' -topk 40 -n 5
//	relm -pattern ' ((cat)|(dog))' -prefix 'The' -strategy random -n 10
//	relm -pattern 'art' -tokenization all -n 20
//
// Execution knobs (DESIGN.md decision 6): -batch sets the frontier batch
// size per device round (0 = the device's batch limit; 1 = one-at-a-time
// "sequential" expansion), and -parallelism sizes the device scoring pool
// (default: all CPUs); the query expands and samples on its own goroutine.
// At a fixed batch size, every traversal returns identical results, model
// calls, virtual device time and batches at any -parallelism; -strategy
// random's draws depend on -seed alone. Changing -batch keeps the
// sequence of log-probabilities: costs never decrease along a path, so it
// can swap only results of equal probability.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/relm"
)

func main() {
	pattern := flag.String("pattern", "", "regular expression for the match (required)")
	prefix := flag.String("prefix", "", "regular expression for the conditioning prefix")
	topK := flag.Int("topk", 0, "top-k decoding filter (0 = off)")
	topP := flag.Float64("topp", 0, "top-p decoding filter (0 = off)")
	temp := flag.Float64("temperature", 0, "temperature (0 or 1 = off)")
	strategy := flag.String("strategy", "shortest", "shortest | random")
	tokenization := flag.String("tokenization", "canonical", "canonical | all")
	eos := flag.Bool("eos", false, "require EOS after the match")
	edits := flag.Int("edits", 0, "Levenshtein preprocessor distance")
	n := flag.Int("n", 5, "number of matches to print")
	seed := flag.Int64("seed", 1, "sampling seed")
	small := flag.Bool("small", false, "use the small model")
	explain := flag.Bool("explain", false, "print the query plan instead of executing")
	artifacts := flag.String("artifacts", "", "load tokenizer.json and model.json from this directory (from relm-train) instead of retraining")
	batch := flag.Int("batch", 0, "frontier batch size per device round (0 = device batch limit, 1 = sequential expansion)")
	incremental := flag.Bool("incremental", false, "KV-cache prefix-state reuse across the frontier (byte-identical results; effective on prefix-stateful models, e.g. -artifacts from relm-train -arch transformer)")
	par := flag.Int("parallelism", runtime.NumCPU(), "width of the device scoring pool (1 = score on the query's goroutine)")
	flag.Parse()

	if *pattern == "" {
		fmt.Fprintln(os.Stderr, "usage: relm -pattern <regex> [-prefix <regex>] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Out-of-range flags are an input error, refused before the model is
	// trained: q.Validate below, and here an explicit worker pool of zero.
	if err := engine.ValidateParallelism(*par); err != nil {
		fmt.Fprintln(os.Stderr, "relm: -parallelism:", err)
		os.Exit(2)
	}
	q := relm.SearchQuery{
		Query:       relm.QueryString{Pattern: *pattern, Prefix: *prefix},
		TopK:        *topK,
		TopP:        *topP,
		Temperature: *temp,
		RequireEOS:  *eos,
		Seed:        *seed,
		BatchExpand: *batch,
		Incremental: *incremental,
	}
	if *strategy == "random" {
		q.Strategy = relm.RandomSampling
	}
	if *tokenization == "all" {
		q.Tokenization = relm.AllTokens
	}
	if *edits > 0 {
		q.Preprocessors = []relm.Preprocessor{relm.EditDistance{K: *edits}}
	}
	if err := q.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var m *relm.Model
	if *artifacts != "" {
		var arch string
		var err error
		var opts relm.ModelOptions
		if *par > 1 {
			pool := device.NewPool(*par)
			defer pool.Close()
			opts.Pool = pool
		}
		m, arch, err = relm.LoadArtifacts(*artifacts, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "relm:", err)
			os.Exit(1)
		}
		fmt.Printf("loaded %s model from %s\n", arch, *artifacts)
	} else {
		fmt.Println("training synthetic model (quick scale)...")
		env := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick, Parallelism: *par})
		m = env.FreshModel(*small)
	}

	if *explain {
		plan, err := relm.Explain(m, q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "relm:", err)
			os.Exit(1)
		}
		fmt.Print(plan)
		return
	}

	results, err := relm.Search(m, q)
	if err != nil {
		fmt.Fprintln(os.Stderr, "relm:", err)
		os.Exit(1)
	}
	defer results.Close()
	for i := 0; i < *n; i++ {
		match, err := results.Next()
		if err != nil {
			fmt.Printf("(query space exhausted after %d matches)\n", i)
			break
		}
		canon := " "
		if !match.Canonical {
			canon = "~" // non-canonical encoding marker
		}
		fmt.Printf("%2d. %s logp=%8.3f  %q\n", i+1, canon, match.LogProb, match.Text)
	}
	st := results.Stats()
	fmt.Printf("\nnodes expanded: %d   model calls: %d   emitted: %d\n",
		st.NodesExpanded, st.ModelCalls, st.Emitted)
	ds := m.Dev.Stats()
	fmt.Printf("virtual device time: %v   utilization: %.0f%%   batches: %d\n",
		ds.Clock, ds.Utilization*100, ds.Batches)
	if kv := m.KVStats(); kv.Hits+kv.Misses > 0 {
		fmt.Printf("kv arena: %d state hits   %d misses   %d evictions   resident %d B\n",
			kv.Hits, kv.Misses, kv.Evictions, kv.ResidentBytes)
	}
}
