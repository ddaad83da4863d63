package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/decoding"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/textio"
	"repro/internal/web"
	"repro/relm"
)

// URLPattern is the §4.1 memorization query (the paper's charset, with the
// space spelled as underscore-style literal set).
const URLPattern = `([a-zA-Z0-9]|_|-|#|%)+\.([a-zA-Z0-9]|_|-|#|%|/)+`

// URLPrefix is the shared conditioning prefix.
const URLPrefix = "https://www."

// MemorizationPoint is one (virtual time, cumulative unique valid URLs)
// sample on a method's curve.
type MemorizationPoint struct {
	Time  time.Duration
	Valid int
}

// MemorizationMethod is one curve of Figures 5/10 with its Figure-6
// throughput summary.
type MemorizationMethod struct {
	Name        string
	Curve       []MemorizationPoint
	Attempts    int
	Valid       int // unique validated URLs
	Duplicates  int // valid but previously seen
	Total       time.Duration
	Throughput  float64 // unique valid URLs per virtual second
	Utilization float64
	FirstResult time.Duration
}

// MemorizationResult aggregates all methods.
type MemorizationResult struct {
	ReLM      MemorizationMethod
	Baselines []MemorizationMethod // indexed by stop length
	// Speedup is ReLM throughput over the best baseline throughput
	// (Observation 1: the paper reports 15x).
	Speedup float64
}

// MemorizationConfig sizes the run.
type MemorizationConfig struct {
	// Attempts is the per-method sample budget (paper: 10000).
	Attempts int
	// StopLengths are the baseline n values (paper: powers of two).
	StopLengths []int
	// Small switches to the small model.
	Small bool
}

// RunMemorization reproduces Figures 5, 6 and 10: ReLM's shortest-path URL
// extraction versus fixed-stop-length random sampling baselines.
func RunMemorization(env *Env, cfg MemorizationConfig) (*MemorizationResult, error) {
	if cfg.Attempts == 0 {
		if env.Scale == Quick {
			cfg.Attempts = 60
		} else {
			cfg.Attempts = 1500
		}
	}
	if cfg.StopLengths == nil {
		cfg.StopLengths = []int{1, 2, 4, 8, 16, 32, 64}
	}

	res := &MemorizationResult{}

	// --- ReLM: shortest-path traversal of the URL automaton. ---
	m := env.FreshModel(cfg.Small)
	oracle := env.FreshOracle()
	// RequireEOS is the §3.3 stop disambiguation: without it the stream is
	// dominated by high-probability *prefixes* of memorized URLs (valid
	// pattern matches but dead links); requiring the model to terminate
	// ranks complete memorized URLs first.
	results, err := relm.Search(m, relm.SearchQuery{
		Query:        relm.QueryString{Pattern: URLPattern, Prefix: relm.EscapeLiteral(URLPrefix)},
		TopK:         40,
		Tokenization: relm.AllTokens,
		RequireEOS:   true,
		MaxTokens:    24,
		MaxNodes:     1 << 22,
		// KV prefix-state reuse across the frontier (DESIGN.md decision 10):
		// results are byte-identical; on a prefix-stateful substrate each
		// expansion round extends parent states instead of re-scoring whole
		// prefixes (the n-gram stand-in transparently keeps the full path).
		Incremental: true,
	})
	if err != nil {
		return nil, err
	}
	defer results.Close()
	relmMethod := MemorizationMethod{Name: "ReLM"}
	first := true
	for i := 0; i < cfg.Attempts; i++ {
		match, err := results.Next()
		if err != nil {
			break
		}
		relmMethod.Attempts++
		valid, dup := oracle.CheckUnique(match.Text)
		if valid && dup {
			relmMethod.Duplicates++
		}
		if valid && !dup {
			relmMethod.Valid++
		}
		t := clockOf(m, oracle)
		if first {
			relmMethod.FirstResult = t
			first = false
		}
		relmMethod.Curve = append(relmMethod.Curve, MemorizationPoint{Time: t, Valid: relmMethod.Valid})
	}
	relmMethod.Total = clockOf(m, oracle)
	relmMethod.Throughput = throughput(relmMethod.Valid, relmMethod.Total)
	relmMethod.Utilization = m.Dev.Stats().Utilization
	res.ReLM = relmMethod

	// --- Baselines: random generation with stop length n. ---
	urlDFA, err := compileURLChecker()
	if err != nil {
		return nil, err
	}
	for _, n := range cfg.StopLengths {
		bm, err := runBaseline(env, env.FreshModel(cfg.Small), cfg, n, urlDFA)
		if err != nil {
			return nil, err
		}
		res.Baselines = append(res.Baselines, bm)
	}

	best := 0.0
	for _, b := range res.Baselines {
		if b.Throughput > best {
			best = b.Throughput
		}
	}
	if best > 0 {
		res.Speedup = res.ReLM.Throughput / best
	} else if res.ReLM.Throughput > 0 {
		res.Speedup = math.Inf(1)
	}
	return res, nil
}

// MemorizationItems returns the memorized-URL worklist for dataset-driven
// validation jobs (internal/jobs): one item per URL planted in the training
// text, in corpus order. Deterministic for a given env seed.
func MemorizationItems(env *Env) []string {
	return append([]string(nil), env.Web.Memorized...)
}

// CheckMemorizedURL is the per-item form of the §4.1 sweep: can the model
// regenerate url from the shared conditioning prefix? It runs the same
// shortest-path query RunMemorization uses, restricted to this URL's
// suffix, and reports whether a completion surfaced plus its log
// probability. The traversal is deterministic — identical inputs yield
// identical results regardless of worker or shard placement — which is what
// lets the jobs layer re-run interrupted shards and still merge
// byte-identical result sets. ctx (may be nil) cancels mid-search.
func CheckMemorizedURL(ctx context.Context, m *relm.Model, url string) (bool, float64, engine.Stats, error) {
	rest, hasPrefix := strings.CutPrefix(url, URLPrefix)
	if !hasPrefix {
		return false, 0, engine.Stats{}, fmt.Errorf("url %q lacks prefix %q", url, URLPrefix)
	}
	results, err := relm.Search(m, relm.SearchQuery{
		Query:        relm.QueryString{Pattern: relm.EscapeLiteral(rest), Prefix: relm.EscapeLiteral(URLPrefix)},
		TopK:         40,
		Tokenization: relm.AllTokens,
		RequireEOS:   true,
		MaxTokens:    24,
		MaxNodes:     1 << 16,
		Incremental:  true,
		Context:      ctx,
	})
	if err != nil {
		return false, 0, engine.Stats{}, err
	}
	defer results.Close()
	return gradeFirstMatch(results)
}

// gradeFirstMatch converts a per-item stream's first result into the
// (found, logprob) shape the job suites record. Exhaustion — the language
// drained or the node budget ran out — is a durable negative result;
// any other stream error (cancellation, deadline, engine failure) is a
// real error the caller must not record as a validation outcome.
func gradeFirstMatch(results *relm.Results) (bool, float64, engine.Stats, error) {
	match, nerr := results.Next()
	st := results.Stats()
	if nerr != nil {
		if errors.Is(nerr, relm.ErrExhausted) {
			return false, 0, st, nil
		}
		return false, 0, st, nerr
	}
	return true, match.LogProb, st, nil
}

// compileURLChecker builds the full-URL matcher used to grade baseline
// generations.
func compileURLChecker() (urlMatcher, error) {
	d, err := relmCompile(relm.EscapeLiteral(URLPrefix) + URLPattern)
	if err != nil {
		return urlMatcher{}, err
	}
	return urlMatcher{d: d}, nil
}

// runBaseline mirrors the HuggingFace generation example: sample tokens from
// m under top-k 40 until n tokens (or EOS), then grade the decoded string
// against the URL pattern and validate it.
func runBaseline(env *Env, m *relm.Model, cfg MemorizationConfig, n int, matcher urlMatcher) (MemorizationMethod, error) {
	oracle := env.FreshOracle()
	rng := rand.New(rand.NewSource(env.Seed + int64(n)))
	bm := MemorizationMethod{Name: fmt.Sprintf("Baseline (n=%d)", n)}
	prefixToks := env.Tok.Encode(URLPrefix)
	first := true
	for i := 0; i < cfg.Attempts; i++ {
		bm.Attempts++
		generated, err := freeSample(m, rng, decoding.TopK{K: 40}, prefixToks, n)
		if err != nil {
			return bm, err
		}
		text := URLPrefix + env.Tok.Decode(generated)
		candidate := matcher.longestValidPrefix(text)
		if candidate != "" {
			valid, dup := oracle.CheckUnique(candidate)
			if valid && dup {
				bm.Duplicates++
			}
			if valid && !dup {
				bm.Valid++
				if first {
					bm.FirstResult = clockOf(m, oracle)
					first = false
				}
			}
		}
		bm.Curve = append(bm.Curve, MemorizationPoint{Time: clockOf(m, oracle), Valid: bm.Valid})
	}
	bm.Total = clockOf(m, oracle)
	bm.Throughput = throughput(bm.Valid, bm.Total)
	bm.Utilization = m.Dev.Stats().Utilization
	return bm, nil
}

func clockOf(m *relm.Model, o *web.Oracle) time.Duration {
	_, elapsed, _ := o.Stats()
	return m.Dev.Stats().Clock + elapsed
}

func throughput(valid int, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(valid) / total.Seconds()
}

func sampleFromLogProbs(rng *rand.Rand, lp []float64) model.Token {
	r := rng.Float64()
	acc := 0.0
	last := 0
	for i, x := range lp {
		if math.IsInf(x, -1) {
			continue
		}
		acc += math.Exp(x)
		last = i
		if r < acc {
			return i
		}
	}
	return last
}

// RenderMemorization writes the Figure 5/6/10 analog output.
func RenderMemorization(w io.Writer, r *MemorizationResult) {
	textio.Section(w, "fig5/fig10: cumulative validated URLs vs virtual time")
	var series []textio.Series
	toSeries := func(m MemorizationMethod) textio.Series {
		s := textio.Series{Name: m.Name}
		for _, p := range m.Curve {
			s.X = append(s.X, p.Time.Seconds())
			s.Y = append(s.Y, float64(p.Valid))
		}
		return s
	}
	series = append(series, toSeries(r.ReLM))
	for _, b := range r.Baselines {
		series = append(series, toSeries(b))
	}
	textio.LineChart(w, "cumulative unique validated URLs", series, 64, 14)

	textio.Section(w, "fig6: validated URL throughput")
	var labels []string
	var values []float64
	labels = append(labels, r.ReLM.Name)
	values = append(values, r.ReLM.Throughput)
	for _, b := range r.Baselines {
		labels = append(labels, b.Name)
		values = append(values, b.Throughput)
	}
	textio.BarChart(w, "unique valid URLs per virtual second", labels, values, 40)

	tb := textio.NewTable("method", "attempts", "valid", "dup", "throughput/s", "util", "first result")
	add := func(m MemorizationMethod) {
		tb.AddRow(m.Name, m.Attempts, m.Valid, m.Duplicates, m.Throughput,
			m.Utilization, m.FirstResult.Round(time.Millisecond).String())
	}
	add(r.ReLM)
	sorted := append([]MemorizationMethod{}, r.Baselines...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, b := range sorted {
		add(b)
	}
	tb.Render(w)
	fmt.Fprintf(w, "\nObservation 1 analog: ReLM speedup over best baseline = %.1fx (paper: 15x)\n", r.Speedup)
}
