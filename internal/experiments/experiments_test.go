package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
	"repro/relm"
)

var (
	envOnce sync.Once
	testEnv *Env
)

// sharedEnv builds the Quick-scale world once for the whole test package —
// tokenizer and model training dominate setup cost.
func sharedEnv(tb testing.TB) *Env {
	tb.Helper()
	envOnce.Do(func() {
		testEnv = NewEnv(EnvConfig{Scale: Quick})
	})
	return testEnv
}

func TestEnvDeterministic(t *testing.T) {
	a := NewEnv(EnvConfig{Scale: Quick, Seed: 5})
	b := NewEnv(EnvConfig{Scale: Quick, Seed: 5})
	if a.Tok.VocabSize() != b.Tok.VocabSize() {
		t.Error("env construction nondeterministic")
	}
	if len(a.Corpus) != len(b.Corpus) {
		t.Error("corpus nondeterministic")
	}
}

func TestMemorizationShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunMemorization(env, MemorizationConfig{
		Attempts:    40,
		StopLengths: []int{4, 16},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Observation 1 shape: ReLM extracts memorized URLs and beats the best
	// baseline on throughput.
	if res.ReLM.Valid == 0 {
		t.Fatal("ReLM extracted no valid URLs")
	}
	best := 0.0
	for _, b := range res.Baselines {
		if b.Throughput > best {
			best = b.Throughput
		}
	}
	if res.ReLM.Throughput <= best {
		t.Errorf("ReLM throughput %.3f should beat best baseline %.3f",
			res.ReLM.Throughput, best)
	}
	// ReLM produces no duplicates by construction (§4.1.2).
	if res.ReLM.Duplicates != 0 {
		t.Errorf("ReLM produced %d duplicates; shortest-path enumeration must not repeat", res.ReLM.Duplicates)
	}
	// Curves are monotone.
	for _, m := range append([]MemorizationMethod{res.ReLM}, res.Baselines...) {
		for i := 1; i < len(m.Curve); i++ {
			if m.Curve[i].Valid < m.Curve[i-1].Valid || m.Curve[i].Time < m.Curve[i-1].Time {
				t.Fatalf("%s: non-monotone curve", m.Name)
			}
		}
	}
	var buf bytes.Buffer
	RenderMemorization(&buf, res)
	for _, want := range []string{"fig5", "fig6", "ReLM", "speedup"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestBiasShape(t *testing.T) {
	env := sharedEnv(t)
	// 360 draws per gender: at 120 the canonical cell's p-value missed the
	// -2 bound on ~10 % of sampling seeds, for any generator.
	res, err := RunBias(env, BiasConfig{SamplesPerGender: 360})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(res.Cells))
	}
	canon := res.Cell("canonical-prefix")
	if canon == nil {
		t.Fatal("canonical cell missing")
	}
	// Planted stereotype directions must be recovered under canonical
	// encodings with a prefix (Figure 7b).
	if canon.Prob("man", "engineering") <= canon.Prob("woman", "engineering") {
		t.Errorf("engineering should skew man: %.3f vs %.3f",
			canon.Prob("man", "engineering"), canon.Prob("woman", "engineering"))
	}
	if canon.Prob("woman", "medicine") <= canon.Prob("man", "medicine") {
		t.Errorf("medicine should skew woman: %.3f vs %.3f",
			canon.Prob("woman", "medicine"), canon.Prob("man", "medicine"))
	}
	// Observation 3 shape (robust parts): the canonical variant detects the
	// planted bias with strong significance, and the edit perturbation
	// measurably changes the outcome distribution. (The paper's strict
	// significance ordering canonical > edits > all-encodings depends on
	// GPT-2-specific non-canonical quirks our substrate does not plant; see
	// fig7 in DESIGN.md §5.)
	all := res.Cell("all-noprefix")
	edits := res.Cell("canonical-prefix-edits")
	if all == nil || edits == nil {
		t.Fatal("cells missing")
	}
	if canon.Log10P > -2 {
		t.Errorf("canonical bias should be strongly significant, log10p = %.1f", canon.Log10P)
	}
	if all.Log10P > -1 {
		t.Errorf("all-encodings bias should still be detectable, log10p = %.1f", all.Log10P)
	}
	if canon.Chi2 == edits.Chi2 {
		t.Error("single-character edits should perturb the distribution (Observation 3)")
	}
	var buf bytes.Buffer
	RenderBias(&buf, res)
	if !strings.Contains(buf.String(), "chi2") {
		t.Error("render missing chi2")
	}
}

func TestBiasGridRuns(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunBias(env, BiasConfig{
		SamplesPerGender: 40,
		Variants:         GridVariants(true),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("grid should have 4 cells, got %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		total := c.Samples["man"] + c.Samples["woman"]
		if total == 0 {
			t.Errorf("variant %s collected no samples", c.Variant.Name)
		}
	}
}

func TestToxicityPromptedShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunToxicityPrompted(env, ToxicityConfig{MaxPrompts: 12, NodeBudget: 600})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts == 0 {
		t.Fatal("no insult prompts harvested")
	}
	relmFinal := res.ReLMCurve[len(res.ReLMCurve)-1]
	baseFinal := res.BaselineCurve[len(res.BaselineCurve)-1]
	// Observation 5 shape: edits + all encodings unlock at least as many
	// extractions, and strictly more overall.
	if relmFinal < baseFinal {
		t.Errorf("ReLM extractions %d < baseline %d; edits+encodings must not lose", relmFinal, baseFinal)
	}
	if relmFinal == 0 {
		t.Error("ReLM extracted nothing")
	}
}

func TestToxicityUnpromptedShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunToxicityUnprompted(env, ToxicityConfig{MaxInputs: 6, PerInputCap: 10, NodeBudget: 800})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inputs == 0 {
		t.Fatal("no inputs")
	}
	var verbatimCanon, editsAll int
	for _, b := range res.Buckets {
		if b.Canonical && !b.Edits {
			verbatimCanon = b.Extractions
		}
		if !b.Canonical && b.Edits {
			editsAll = b.Extractions
		}
	}
	// Figure 8b shape: the (all encodings, edits) setting extracts the most.
	if editsAll < verbatimCanon {
		t.Errorf("edits+all (%d) should extract at least as many as canonical verbatim (%d)", editsAll, verbatimCanon)
	}
	var buf bytes.Buffer
	RenderToxicity(&buf, &ToxicityPromptedResult{ReLMCurve: []int{1}, BaselineCurve: []int{0}, Attempts: 1, ReLMRate: 1, Gain: 1}, res)
	if !strings.Contains(buf.String(), "fig8b") {
		t.Error("render missing fig8b")
	}
}

func TestLambadaShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunLambada(env, LambadaConfig{Items: 20})
	if err != nil {
		t.Fatal(err)
	}
	large := res.Accuracy["large"]
	small := res.Accuracy["small"]
	// Table 1 shape: constraints monotonically help (allowing ties), the
	// full stack strictly beats the baseline, and large > small on the
	// final configuration.
	if large[LambadaNoStop] <= large[LambadaBaseline] {
		t.Errorf("no-stop (%.2f) should beat baseline (%.2f) on the large model",
			large[LambadaNoStop], large[LambadaBaseline])
	}
	if large[LambadaWords] < large[LambadaBaseline] {
		t.Errorf("words (%.2f) should not lose to baseline (%.2f)",
			large[LambadaWords], large[LambadaBaseline])
	}
	if large[LambadaNoStop] < small[LambadaNoStop] {
		t.Errorf("large no-stop (%.2f) should be >= small no-stop (%.2f)",
			large[LambadaNoStop], small[LambadaNoStop])
	}
	var buf bytes.Buffer
	RenderLambada(&buf, res)
	if !strings.Contains(buf.String(), "table1") {
		t.Error("render missing table1")
	}
}

func TestEditCDFShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunEditCDF(env, EditCDFConfig{Samples: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 9 shape: unnormalized sampling front-loads edits; normalized
	// spreads them out.
	if res.FracFirstQuarterUnnorm <= res.FracFirstQuarterNorm {
		t.Errorf("unnormalized first-quarter fraction (%.2f) should exceed normalized (%.2f)",
			res.FracFirstQuarterUnnorm, res.FracFirstQuarterNorm)
	}
	// Normalized should be roughly linear: first-quarter mass near 25%.
	if res.FracFirstQuarterNorm > 0.5 {
		t.Errorf("normalized sampling still front-loaded: %.2f in first quarter", res.FracFirstQuarterNorm)
	}
	var buf bytes.Buffer
	RenderEditCDF(&buf, res)
	if !strings.Contains(buf.String(), "fig9") {
		t.Error("render missing fig9")
	}
}

func TestCanonShape(t *testing.T) {
	env := sharedEnv(t)
	res, err := RunCanon(env, CanonConfig{Samples: 200})
	if err != nil {
		t.Fatal(err)
	}
	for name, frac := range res.NonCanonicalFrac {
		if frac < 0 || frac > 0.6 {
			t.Errorf("%s: non-canonical fraction %.2f outside plausible range", name, frac)
		}
	}
	var buf bytes.Buffer
	RenderCanon(&buf, res)
	if !strings.Contains(buf.String(), "non-canonical") {
		t.Error("render missing content")
	}
}

func TestURLMatcherLongestPrefix(t *testing.T) {
	m, err := compileURLChecker()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.longestValidPrefix("https://www.example.com/page and then text"); got != "https://www.example.com/page" {
		t.Errorf("longest prefix = %q", got)
	}
	if got := m.longestValidPrefix("not a url"); got != "" {
		t.Errorf("non-URL should yield empty, got %q", got)
	}
}

// rowRecorder keeps every row its model computes beside the row's bits, so a
// test can tell whether anyone wrote into a row after it was handed out.
type rowRecorder struct {
	model.LanguageModel
	mu   sync.Mutex
	rows [][]float64
	bits [][]uint64
}

func (r *rowRecorder) NextLogProbs(ctx []model.Token) []float64 {
	return r.ScoreBatch([][]model.Token{ctx})[0]
}

func (r *rowRecorder) ScoreBatch(ctxs [][]model.Token) [][]float64 {
	rows := r.LanguageModel.ScoreBatch(ctxs)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, row := range rows {
		bits := make([]uint64, len(row))
		for i, x := range row {
			bits[i] = math.Float64bits(x)
		}
		r.rows, r.bits = append(r.rows, row), append(r.bits, bits)
	}
	return rows
}

// TestSharedRowsStayUnwritten: the logit cache hands every caller the row it
// stores (DESIGN.md decision 4). Every engine, the free sampler and the
// memorization baseline run at once over one cache, fused and on four
// scoring workers; afterwards no row the model computed — so no row the LRU
// holds — may differ from the model's output by a bit. Run with -race.
func TestSharedRowsStayUnwritten(t *testing.T) {
	env := sharedEnv(t)
	rec := &rowRecorder{LanguageModel: env.Small.LM}
	pool := device.NewPool(4)
	defer pool.Close()
	m := relm.NewModel(rec, env.Tok, relm.ModelOptions{Pool: pool, ContinuousBatching: true})
	defer m.Close()
	matcher, err := compileURLChecker()
	if err != nil {
		t.Fatal(err)
	}
	url := relm.QueryString{Pattern: URLPattern, Prefix: relm.EscapeLiteral(URLPrefix)}
	var wg sync.WaitGroup
	run := func(name string, fn func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}()
	}
	for _, q := range []relm.SearchQuery{
		{Query: url, Strategy: relm.ShortestPath, TopK: 40, MaxTokens: 12},
		{Query: url, Strategy: relm.BeamSearch, BeamWidth: 4, TopP: 0.9, MaxTokens: 12},
		{Query: url, Strategy: relm.RandomSampling, Temperature: 2, TopK: 40, MaxTokens: 12},
	} {
		run(fmt.Sprint("strategy ", q.Strategy), func() error {
			res, err := relm.Search(m, q)
			if err != nil {
				return err
			}
			defer res.Close()
			res.Take(8)
			return nil
		})
	}
	run("freeSample", func() error {
		rng := rand.New(rand.NewSource(1))
		for range 20 {
			if _, err := freeSample(m, rng, decoding.TopK{K: 40}, nil, 24); err != nil {
				return err
			}
		}
		return nil
	})
	run("baseline", func() error {
		_, err := runBaseline(env, m, MemorizationConfig{Attempts: 20}, 16, matcher)
		return err
	})
	wg.Wait()

	if m.Cache().Len() == 0 {
		t.Fatal("nothing reached the logit cache")
	}
	for i, row := range rec.rows {
		for j, x := range row {
			if math.Float64bits(x) != rec.bits[i][j] {
				t.Fatalf("row %d of %d was written after it left the model (token %d: %v, was %v)",
					i, len(rec.rows), j, x, math.Float64frombits(rec.bits[i][j]))
			}
		}
	}
}
