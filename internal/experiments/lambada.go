package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/lambada"
	"repro/internal/textio"
	"repro/relm"
)

// LambadaVariant is one of Table 1's four query shapes.
type LambadaVariant string

const (
	// LambadaBaseline: any word plus optional punctuation.
	LambadaBaseline LambadaVariant = "baseline"
	// LambadaWords: restrict to words appearing in the context.
	LambadaWords LambadaVariant = "words"
	// LambadaTerminated: baseline + EOS required after the word.
	LambadaTerminated LambadaVariant = "terminated"
	// LambadaNoStop: terminated + stop-word filtering.
	LambadaNoStop LambadaVariant = "no stop"
)

// AllLambadaVariants lists Table 1's columns in order.
func AllLambadaVariants() []LambadaVariant {
	return []LambadaVariant{LambadaBaseline, LambadaWords, LambadaTerminated, LambadaNoStop}
}

// LambadaResult is Table 1: accuracy per (model, variant).
type LambadaResult struct {
	// Accuracy[model name][variant] in [0,1].
	Accuracy map[string]map[LambadaVariant]float64
	Items    int
}

// LambadaConfig sizes the run.
type LambadaConfig struct {
	// Items caps evaluated cloze examples (paper: 500).
	Items int
	// Variants to run (nil = all four).
	Variants []LambadaVariant
	// Models to run: "large", "small" (nil = both).
	Models []string
}

// RunLambada reproduces Table 1: zero-shot cloze accuracy as the query is
// progressively constrained (§4.4).
func RunLambada(env *Env, cfg LambadaConfig) (*LambadaResult, error) {
	if cfg.Items == 0 {
		if env.Scale == Quick {
			cfg.Items = 25
		} else {
			cfg.Items = 500
		}
	}
	if cfg.Variants == nil {
		cfg.Variants = AllLambadaVariants()
	}
	if cfg.Models == nil {
		cfg.Models = []string{"large", "small"}
	}
	items := env.Lambada.Items
	if len(items) > cfg.Items {
		items = items[:cfg.Items]
	}
	res := &LambadaResult{Accuracy: map[string]map[LambadaVariant]float64{}, Items: len(items)}
	for _, name := range cfg.Models {
		m := env.FreshModel(name == "small")
		res.Accuracy[name] = map[LambadaVariant]float64{}
		for _, v := range cfg.Variants {
			correct := 0
			for _, item := range items {
				got, _, err := predictLastWord(context.Background(), m, item, v)
				if err == nil && got == item.Target {
					correct++
				}
			}
			res.Accuracy[name][v] = float64(correct) / float64(len(items))
		}
	}
	return res, nil
}

// LambadaItems returns the cloze worklist for validation jobs
// (internal/jobs): the held-out eval passages, capped at max when max > 0.
func LambadaItems(env *Env, max int) []lambada.Item {
	items := env.Lambada.Items
	if max > 0 && len(items) > max {
		items = items[:max]
	}
	return append([]lambada.Item(nil), items...)
}

// CheckLambadaItem is the per-item form of Table 1: run one cloze query
// under variant v and report whether the prediction matched the target,
// alongside the predicted word itself. ctx (may be nil) cancels mid-search.
func CheckLambadaItem(ctx context.Context, m *relm.Model, item lambada.Item, v LambadaVariant) (bool, string, engine.Stats, error) {
	got, st, err := predictLastWord(ctx, m, item, v)
	if err != nil {
		return false, "", st, err
	}
	return got == item.Target, got, st, nil
}

// predictLastWord runs one cloze query and returns the predicted word
// (punctuation stripped; empty when the query space drained without a
// match) plus the traversal's work counters. The error reports
// query-construction failures and non-exhaustion stream errors
// (cancellation, deadline) — an unproductive search is an empty
// prediction, not an error.
func predictLastWord(ctx context.Context, m *relm.Model, item lambada.Item, v LambadaVariant) (string, engine.Stats, error) {
	q := relm.SearchQuery{
		Query: relm.QueryString{
			Prefix: relm.EscapeLiteral(item.Context),
		},
		TopK:      1000,
		MaxTokens: 12,
		MaxNodes:  40000,
		// The cloze context is one long literal; enumeration bounds must
		// admit its full length.
		PrefixMaxLen: len(item.Context) + 1,
	}
	punct := `(\.|!|\?)?(")?`
	switch v {
	case LambadaBaseline:
		q.Query.Pattern = ` ([a-zA-Z]+)` + punct
	case LambadaWords:
		words := lambada.ContextWords(item.Context)
		opts := make([]string, len(words))
		for i, w := range words {
			opts[i] = "(" + relm.EscapeLiteral(w) + ")"
		}
		q.Query.Pattern = ` (` + strings.Join(opts, "|") + `)` + punct
	case LambadaTerminated:
		q.Query.Pattern = ` ([a-zA-Z]+)` + punct
		q.RequireEOS = true
	case LambadaNoStop:
		q.Query.Pattern = ` ([a-zA-Z]+)` + punct
		q.RequireEOS = true
		q.Preprocessors = []relm.Preprocessor{relm.RemoveWords{
			Words:      stopWordForms(),
			IgnoreCase: false,
		}}
	default:
		return "", engine.Stats{}, fmt.Errorf("unknown variant %q", v)
	}
	q.Context = ctx
	results, err := relm.Search(m, q)
	if err != nil {
		return "", engine.Stats{}, err
	}
	defer results.Close()
	match, nerr := results.Next()
	st := results.Stats()
	if nerr != nil {
		if errors.Is(nerr, relm.ErrExhausted) {
			return "", st, nil
		}
		return "", st, nerr
	}
	return strings.Trim(match.PatternText, ` .!?"`), st, nil
}

// stopWordForms expands the nltk-style stop list into the exact strings the
// pattern language contains: leading space, optional punctuation, and
// capitalized variants — the removal set for the automaton difference. The
// list is built once and shared by every query, which only reads it.
var stopWordForms = sync.OnceValue(func() []string {
	suffixes := []string{"", ".", "!", "?", `"`, `."`, `!"`, `?"`}
	var out []string
	for _, w := range lambada.StopWords {
		variants := []string{w, strings.ToUpper(w[:1]) + w[1:]}
		for _, v := range variants {
			for _, s := range suffixes {
				out = append(out, " "+v+s)
			}
		}
	}
	return out
})

// RenderLambada writes the Table 1 analog.
func RenderLambada(w io.Writer, r *LambadaResult) {
	textio.Section(w, "table1: zero-shot LAMBADA-style accuracy")
	variants := AllLambadaVariants()
	header := []string{"model"}
	for _, v := range variants {
		header = append(header, string(v))
	}
	tb := textio.NewTable(header...)
	for _, name := range []string{"large", "small"} {
		if _, ok := r.Accuracy[name]; !ok {
			continue
		}
		row := []interface{}{modelLabel(name)}
		for _, v := range variants {
			row = append(row, fmt.Sprintf("%.1f%%", r.Accuracy[name][v]*100))
		}
		tb.AddRow(row...)
	}
	tb.Render(w)
	fmt.Fprintf(w, "items: %d (paper: accuracy increases baseline -> words -> terminated -> no stop; large > small)\n", r.Items)
}

func modelLabel(name string) string {
	if name == "large" {
		return "ngram-XL (order 8)"
	}
	return "ngram-small (order 3)"
}
