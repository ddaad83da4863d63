// Quickstart: the paper's Figure 4 example end to end — train a small
// synthetic world, then ask the model for phone-number-shaped completions
// with a structured query instead of free-running generation.
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/relm"
)

func main() {
	// Build the synthetic world: corpus, BPE tokenizer, n-gram LM, and the
	// simulated device. (With a real LLM this is the "load model +
	// tokenizer" step.)
	fmt.Println("training synthetic model...")
	env := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick})
	m := env.FreshModel(false)

	// The query: a regex over the strings of interest, a fixed prefix that
	// bypasses decoding rules, and top-k 40 decoding — exactly Figure 4.
	query := relm.SearchQuery{
		Query: relm.QueryString{
			Pattern: " ([0-9]{3}) ([0-9]{3}) ([0-9]{4})",
			Prefix:  "My phone number is",
		},
		TopK: 40,
	}

	results, err := relm.Search(m, query)
	if err != nil {
		log.Fatal(err)
	}
	defer results.Close()

	fmt.Println("\ntop phone-number completions (most likely first):")
	for i, match := range results.Take(5) {
		fmt.Printf("%d. %q   (log prob %.2f)\n", i+1, match.Text, match.LogProb)
	}

	st := results.Stats()
	fmt.Printf("\nengine work: %d node expansions, %d model calls\n",
		st.NodesExpanded, st.ModelCalls)
	fmt.Printf("every result is guaranteed to match the pattern — no grading of free-form text needed\n")
}
