package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/lambada"
	"repro/relm"
)

// Suite adapts one experiments harness to the jobs execution model: a
// deterministic worklist plus a per-item runner. Run must be a pure
// function of (model, item) — the crash/resume guarantee (re-running an
// interrupted shard merges byte-identically) rests on it.
type Suite interface {
	// Items builds the worklist, capped at max when max > 0.
	Items(max int) []Item
	// Run scores one item. The context cancels mid-item; a cancelled run
	// returns ctx.Err() and its result is discarded, not recorded.
	Run(ctx context.Context, m *relm.Model, it Item) (ItemResult, engine.Stats, error)
}

// SuiteNames lists the built-in suites in wire-name order.
func SuiteNames() []string {
	names := make([]string, 0, len(suiteBuilders))
	for n := range suiteBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var suiteBuilders = map[string]func(env *experiments.Env, spec Spec) (Suite, error){
	"memorization": newMemorizationSuite,
	"toxicity":     newToxicitySuite,
	"bias":         newBiasSuite,
	"lambada":      newLambadaSuite,
	"urlmatch":     newURLMatchSuite,
}

// NewSuite builds the named suite bound to env.
func NewSuite(env *experiments.Env, spec Spec) (Suite, error) {
	b, ok := suiteBuilders[spec.Suite]
	if !ok {
		return nil, fmt.Errorf("jobs: unknown suite %q (have %v)", spec.Suite, SuiteNames())
	}
	return b(env, spec)
}

// gradeScored converts a per-item checker's outcome into the recordable
// result shape, separating four cases: a context-cancelled item must be
// discarded (its re-run is what resume is for — recording it would race the
// cancel), a device fault goes to the retry layer, which classifies it, any
// other checker error is recorded visibly in ItemResult.Err (never silently
// as a negative outcome), and a clean run records (ok, score).
func gradeScored(ctx context.Context, it Item, ok bool, score float64, st engine.Stats, err error) (ItemResult, engine.Stats, error) {
	if cerr := ctx.Err(); cerr != nil {
		return ItemResult{}, st, cerr
	}
	if errors.Is(err, fault.ErrTransient) || errors.Is(err, fault.ErrPermanent) {
		return ItemResult{}, st, err
	}
	if err != nil {
		return ItemResult{ID: it.ID, Err: err.Error()}, st, nil
	}
	return ItemResult{ID: it.ID, OK: ok, Score: score}, st, nil
}

// --- memorization -----------------------------------------------------

type memorizationSuite struct{ env *experiments.Env }

func newMemorizationSuite(env *experiments.Env, _ Spec) (Suite, error) {
	return &memorizationSuite{env: env}, nil
}

func (s *memorizationSuite) Items(max int) []Item {
	urls := capItems(experiments.MemorizationItems(s.env), max)
	out := make([]Item, len(urls))
	for i, u := range urls {
		out[i] = Item{ID: u, Target: u}
	}
	return out
}

func (s *memorizationSuite) Run(ctx context.Context, m *relm.Model, it Item) (ItemResult, engine.Stats, error) {
	ok, logp, st, err := experiments.CheckMemorizedURL(ctx, m, it.Target)
	return gradeScored(ctx, it, ok, logp, st, err)
}

// --- toxicity ---------------------------------------------------------

type toxicitySuite struct {
	env    *experiments.Env
	budget int
}

func newToxicitySuite(env *experiments.Env, _ Spec) (Suite, error) {
	budget := 1500
	if env.Scale == experiments.Full {
		budget = 20000
	}
	return &toxicitySuite{env: env, budget: budget}, nil
}

func (s *toxicitySuite) Items(max int) []Item {
	matches := experiments.ToxicityItems(s.env, max)
	out := make([]Item, len(matches))
	for i, match := range matches {
		out[i] = Item{ID: fmt.Sprintf("tox-%04d", i), Prompt: match.Prompt, Target: match.Insult}
	}
	return out
}

func (s *toxicitySuite) Run(ctx context.Context, m *relm.Model, it Item) (ItemResult, engine.Stats, error) {
	ok, logp, st, err := experiments.CheckPromptedInsult(ctx, m, it.Prompt, it.Target, s.env.Scale, s.budget)
	return gradeScored(ctx, it, ok, logp, st, err)
}

// --- bias -------------------------------------------------------------

type biasSuite struct{ env *experiments.Env }

func newBiasSuite(env *experiments.Env, _ Spec) (Suite, error) {
	return &biasSuite{env: env}, nil
}

func (s *biasSuite) Items(max int) []Item {
	pairs := capItems(experiments.BiasPairs(), max)
	out := make([]Item, len(pairs))
	for i, p := range pairs {
		out[i] = Item{ID: "bias-" + p[0] + "-" + p[1], Prompt: p[0], Target: p[1]}
	}
	return out
}

func (s *biasSuite) Run(ctx context.Context, m *relm.Model, it Item) (ItemResult, engine.Stats, error) {
	ok, logp, st, err := experiments.CheckBiasPair(ctx, m, it.Prompt, it.Target)
	return gradeScored(ctx, it, ok, logp, st, err)
}

// --- lambada ----------------------------------------------------------

type lambadaSuite struct {
	env     *experiments.Env
	variant experiments.LambadaVariant
}

func newLambadaSuite(env *experiments.Env, spec Spec) (Suite, error) {
	v := experiments.LambadaTerminated
	if spec.Variant != "" {
		v = experiments.LambadaVariant(spec.Variant)
		known := false
		for _, k := range experiments.AllLambadaVariants() {
			if v == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("jobs: unknown lambada variant %q (have %v)",
				spec.Variant, experiments.AllLambadaVariants())
		}
	}
	return &lambadaSuite{env: env, variant: v}, nil
}

func (s *lambadaSuite) Items(max int) []Item {
	items := experiments.LambadaItems(s.env, max)
	out := make([]Item, len(items))
	for i, it := range items {
		out[i] = Item{ID: fmt.Sprintf("lam-%04d", i), Prompt: it.Context, Target: it.Target}
	}
	return out
}

func (s *lambadaSuite) Run(ctx context.Context, m *relm.Model, it Item) (ItemResult, engine.Stats, error) {
	ok, got, st, err := experiments.CheckLambadaItem(ctx, m, lambada.Item{Context: it.Prompt, Target: it.Target}, s.variant)
	res, st, err := gradeScored(ctx, it, ok, boolScore(ok), st, err)
	if err == nil && res.Err == "" {
		res.Text = got
	}
	return res, st, err
}

func boolScore(ok bool) float64 {
	if ok {
		return 1.0
	}
	return 0.0
}

// capItems truncates a worklist to max when max > 0.
func capItems[T any](items []T, max int) []T {
	if max > 0 && len(items) > max {
		return items[:max]
	}
	return items
}

// --- urlmatch ---------------------------------------------------------

type urlMatchSuite struct {
	env     *experiments.Env
	matcher *experiments.URLMatcher
}

func newURLMatchSuite(env *experiments.Env, _ Spec) (Suite, error) {
	matcher, err := experiments.NewURLMatcher()
	if err != nil {
		return nil, fmt.Errorf("jobs: urlmatch: %w", err)
	}
	return &urlMatchSuite{env: env, matcher: matcher}, nil
}

func (s *urlMatchSuite) Items(max int) []Item {
	cands := experiments.URLMatchItems(s.env, max)
	out := make([]Item, len(cands))
	for i, c := range cands {
		// The candidate goes in Prompt, not ID: two registry URLs differing
		// at one character can corrupt to the same string, and item IDs
		// must be unique (result merging and streaming key on them).
		out[i] = Item{ID: fmt.Sprintf("url-%04d", i), Prompt: c}
	}
	return out
}

func (s *urlMatchSuite) Run(ctx context.Context, _ *relm.Model, it Item) (ItemResult, engine.Stats, error) {
	if cerr := ctx.Err(); cerr != nil {
		return ItemResult{}, engine.Stats{}, cerr
	}
	ok := s.matcher.Grade(s.env, it.Prompt)
	return ItemResult{ID: it.ID, OK: ok, Score: boolScore(ok)}, engine.Stats{}, nil
}
