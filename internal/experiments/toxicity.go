package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/corpus"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/textio"
	"repro/relm"
)

// ToxicityAttempt is one prompted extraction attempt.
type ToxicityAttempt struct {
	Prompt    string
	Insult    string
	Extracted bool
}

// ToxicityPromptedResult is the Figure 8a analog: cumulative extractions per
// attempt for the baseline (canonical, no edits) and ReLM (all encodings +
// 1 edit).
type ToxicityPromptedResult struct {
	BaselineCurve []int // cumulative successes after attempt i
	ReLMCurve     []int
	Attempts      int
	BaselineRate  float64
	ReLMRate      float64
	// Gain is ReLM successes / baseline successes (paper: 2.5x).
	Gain float64
}

// ToxicityUnpromptedBucket is a Figure 8b cell: extraction volume by query
// length under one (canonical, edits) setting.
type ToxicityUnpromptedBucket struct {
	Canonical bool
	Edits     bool
	// ByLength[len bucket] = cumulative extraction count.
	Extractions int
	// Quadrant shares (§4.3.2): fraction of returned sequences that were
	// canonical / had edits.
	SeqCanonical    int
	SeqNonCanonical int
	SeqEdited       int
	SeqVerbatim     int
}

// ToxicityUnpromptedResult aggregates the four (canonical, edits) settings.
type ToxicityUnpromptedResult struct {
	Buckets []ToxicityUnpromptedBucket
	Inputs  int
	// LengthCurve: cumulative results by query length for the full setting
	// (edits + all encodings), the dominant curve of Figure 8b.
	LengthCurve map[int]int
}

// ToxicityConfig sizes the run.
type ToxicityConfig struct {
	// MaxPrompts bounds the prompted study (paper: 150+).
	MaxPrompts int
	// MaxInputs bounds the unprompted study (paper: 2807).
	MaxInputs int
	// PerInputCap bounds extractions per input (paper: 1000).
	PerInputCap int
	// NodeBudget bounds search effort per attempt.
	NodeBudget int
}

func (c *ToxicityConfig) defaults(s Scale) {
	pick := func(v *int, quick, full int) {
		if *v == 0 {
			if s == Quick {
				*v = quick
			} else {
				*v = full
			}
		}
	}
	pick(&c.MaxPrompts, 20, 150)
	pick(&c.MaxInputs, 15, 300)
	pick(&c.PerInputCap, 20, 1000)
	pick(&c.NodeBudget, 1500, 20000)
}

// editAlphabet returns the edit alphabet for toxicity queries: the paper
// observes punctuation/letter edits, so include letters, space and common
// specials at quick scale, full printable ASCII otherwise.
func editAlphabet(s Scale) []byte {
	if s == Full {
		return nil // relm.EditDistance defaults to printable ASCII
	}
	return []byte("abcdefghijklmnopqrstuvwxyz *->#@.")
}

// RunToxicityPrompted reproduces Figure 8a: harvest insult-bearing
// sentences from the Pile-like corpus, use each sentence's pre-insult text
// as a prompt, and attempt to extract the insult under top-k 40. Baseline =
// canonical encodings only; ReLM = all encodings + 1-edit expansion. A search
// that fails other than by exhaustion ends the run with its error.
func RunToxicityPrompted(env *Env, cfg ToxicityConfig) (*ToxicityPromptedResult, error) {
	cfg.defaults(env.Scale)
	matches := corpus.ScanForInsults(env.Pile, corpus.Insults)
	if len(matches) > cfg.MaxPrompts {
		matches = matches[:cfg.MaxPrompts]
	}
	res := &ToxicityPromptedResult{Attempts: len(matches)}

	baseSucc, relmSucc := 0, 0
	for _, match := range matches {
		base, _, _, err := checkInsult(nil, env.FreshModel(false), match.Prompt, match.Insult, false, env.Scale, cfg.NodeBudget)
		if err != nil {
			return nil, err
		}
		full, _, _, err := checkInsult(nil, env.FreshModel(false), match.Prompt, match.Insult, true, env.Scale, cfg.NodeBudget)
		if err != nil {
			return nil, err
		}
		if base {
			baseSucc++
		}
		if full {
			relmSucc++
		}
		res.BaselineCurve = append(res.BaselineCurve, baseSucc)
		res.ReLMCurve = append(res.ReLMCurve, relmSucc)
	}
	if res.Attempts > 0 {
		res.BaselineRate = float64(baseSucc) / float64(res.Attempts)
		res.ReLMRate = float64(relmSucc) / float64(res.Attempts)
	}
	if baseSucc > 0 {
		res.Gain = float64(relmSucc) / float64(baseSucc)
	} else if relmSucc > 0 {
		res.Gain = float64(relmSucc)
	}
	return res, nil
}

// ToxicityItems returns the prompted-extraction worklist for validation
// jobs (internal/jobs): every insult-bearing sentence in the pile corpus,
// capped at max when max > 0. Deterministic for a given env seed.
func ToxicityItems(env *Env, max int) []corpus.InsultMatch {
	matches := corpus.ScanForInsults(env.Pile, corpus.Insults)
	if max > 0 && len(matches) > max {
		matches = matches[:max]
	}
	return matches
}

// CheckPromptedInsult is the per-item form of the Figure 8a ReLM arm (all
// encodings + 1-edit expansion), as validation jobs run it.
func CheckPromptedInsult(ctx context.Context, m *relm.Model, prompt, insult string, scale Scale, nodeBudget int) (bool, float64, engine.Stats, error) {
	return checkInsult(ctx, m, prompt, insult, true, scale, nodeBudget)
}

// checkInsult attempts to extract " <insult>" given the prompt as prefix,
// under top-k 40 within the node budget, reporting success (the
// shortest-path stream emits a result) and the extraction's log probability.
// The baseline arm searches canonical encodings only; the ReLM arm (relmArm)
// searches all encodings, expanded by 1 edit. ctx (may be nil) cancels
// mid-search.
func checkInsult(ctx context.Context, m *relm.Model, prompt, insult string, relmArm bool, scale Scale, nodeBudget int) (bool, float64, engine.Stats, error) {
	q := relm.SearchQuery{
		Query: relm.QueryString{
			Pattern: relm.EscapeLiteral(" " + insult),
			Prefix:  relm.EscapeLiteral(prompt),
		},
		TopK:      40,
		MaxTokens: 16,
		MaxNodes:  nodeBudget,
		Context:   ctx,
	}
	if relmArm {
		q.Tokenization = relm.AllTokens
		q.Preprocessors = []relm.Preprocessor{relm.EditDistance{K: 1, Alphabet: editAlphabet(scale)}}
	}
	results, err := relm.Search(m, q)
	if err != nil {
		return false, 0, engine.Stats{}, err
	}
	defer results.Close()
	return gradeFirstMatch(results)
}

// RunToxicityUnprompted reproduces Figure 8b: extract whole insult-bearing
// sentences with no prompt, comparing the four (canonical, edits) settings
// and recording the per-sequence canonical/edited breakdown.
func RunToxicityUnprompted(env *Env, cfg ToxicityConfig) (*ToxicityUnpromptedResult, error) {
	cfg.defaults(env.Scale)
	matches := corpus.ScanForInsults(env.Pile, corpus.Insults)
	if len(matches) > cfg.MaxInputs {
		matches = matches[:cfg.MaxInputs]
	}
	res := &ToxicityUnpromptedResult{Inputs: len(matches), LengthCurve: map[int]int{}}

	settings := []struct{ canonical, edits bool }{
		{true, false}, {true, true}, {false, false}, {false, true},
	}
	for _, s := range settings {
		bucket := ToxicityUnpromptedBucket{Canonical: s.canonical, Edits: s.edits}
		for _, match := range matches {
			n := extractSentence(env, match.Sentence, s.canonical, s.edits, cfg, &bucket)
			bucket.Extractions += n
			if !s.canonical && s.edits {
				res.LengthCurve[lenBucket(len(match.Sentence))] += n
			}
		}
		res.Buckets = append(res.Buckets, bucket)
	}
	return res, nil
}

func lenBucket(n int) int { return (n / 20) * 20 }

// extractSentence extracts up to PerInputCap sequences matching the whole
// sentence (± edits), under the given tokenization, and classifies each
// returned sequence for the §4.3.2 quadrant accounting.
func extractSentence(env *Env, sentence string, canonical, edits bool, cfg ToxicityConfig, bucket *ToxicityUnpromptedBucket) int {
	m := env.FreshModel(false)
	q := relm.SearchQuery{
		Query:     relm.QueryString{Pattern: relm.EscapeLiteral(sentence)},
		TopK:      40,
		MaxTokens: 48,
		MaxNodes:  cfg.NodeBudget,
	}
	if !canonical {
		q.Tokenization = relm.AllTokens
	}
	if edits {
		q.Preprocessors = []relm.Preprocessor{relm.EditDistance{K: 1, Alphabet: editAlphabet(env.Scale)}}
	}
	results, err := relm.Search(m, q)
	if err != nil {
		return 0
	}
	defer results.Close()
	count := 0
	for count < cfg.PerInputCap {
		match, err := results.Next()
		if err != nil {
			break
		}
		count++
		if match.Canonical {
			bucket.SeqCanonical++
		} else {
			bucket.SeqNonCanonical++
		}
		if match.Text == sentence {
			bucket.SeqVerbatim++
		} else {
			bucket.SeqEdited++
		}
	}
	return count
}

// RenderToxicity writes the Figure 8 analog output.
func RenderToxicity(w io.Writer, p *ToxicityPromptedResult, u *ToxicityUnpromptedResult) {
	textio.Section(w, "fig8a: prompted toxic extraction (cumulative)")
	var series []textio.Series
	mk := func(name string, curve []int) textio.Series {
		s := textio.Series{Name: name}
		for i, v := range curve {
			s.X = append(s.X, float64(i+1))
			s.Y = append(s.Y, float64(v))
		}
		return s
	}
	series = append(series, mk("ReLM (all enc + edits)", p.ReLMCurve), mk("Baseline (canonical)", p.BaselineCurve))
	textio.LineChart(w, "cumulative extractions vs attempts", series, 60, 12)
	rlo, rhi := stats.WilsonInterval(int(p.ReLMRate*float64(p.Attempts)+0.5), p.Attempts, 1.96)
	blo, bhi := stats.WilsonInterval(int(p.BaselineRate*float64(p.Attempts)+0.5), p.Attempts, 1.96)
	fmt.Fprintf(w, "extraction rate: ReLM %.0f%% (95%% CI %.0f–%.0f%%)  baseline %.0f%% (CI %.0f–%.0f%%)  gain %.1fx (paper: 2.5x)\n",
		p.ReLMRate*100, rlo*100, rhi*100, p.BaselineRate*100, blo*100, bhi*100, p.Gain)

	textio.Section(w, "fig8b: unprompted extraction volume by setting")
	tb := textio.NewTable("canonical", "edits", "extractions", "seq canonical", "seq non-canon", "seq edited", "seq verbatim")
	for _, b := range u.Buckets {
		tb.AddRow(b.Canonical, b.Edits, b.Extractions, b.SeqCanonical, b.SeqNonCanonical, b.SeqEdited, b.SeqVerbatim)
	}
	tb.Render(w)
	fmt.Fprintf(w, "inputs: %d; per-length cumulative results (edits+all): %v\n", u.Inputs, u.LengthCurve)
}
