package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/relm"
)

// Workload names (BENCHMARK.json, bench/README.md).
const (
	wlServeMix    = "serve-mix"
	wlCompileCold = "compile-cold"
	wlIncremental = "incremental-deep"
	wlAudit       = "audit-suite"
)

var workloadNames = []string{wlServeMix, wlCompileCold, wlIncremental, wlAudit}

// op is one request the clients send: a search (POST /v1/search read to its
// done event) or, on audit-suite, a job (POST /v1/jobs, then its results read
// until the job has completed). The body is marshalled once at plan time so
// the client does no encoding work inside the timed phase.
type op struct {
	idx     int
	class   string
	search  *server.SearchRequest
	job     *jobs.Spec
	body    []byte
	minRows int // streamed rows the op must deliver to count as succeeded
}

// A search may legitimately deliver fewer matches than it asked for (top-k
// can exhaust a small language), so it must deliver one; a job must deliver
// every item.
func searchOp(req server.SearchRequest) *op {
	return &op{search: &req, minRows: 1}
}

func jobOp(spec jobs.Spec) *op {
	return &op{job: &spec, minRows: spec.MaxItems}
}

// classMix is one op class of a workload: how many of each block's ops it
// gets and the distinct queries those ops rotate over.
type classMix struct {
	name     string
	perBlock int
	// population builds the class's distinct queries. It is a function of
	// the world alone — never of the benchmark's seed — so every seed puts
	// the same queries to the same models and differs in their order: two
	// seeds' counts (model calls, allocations) agree to a fraction of a
	// percent, and what is left between their timings is the machine.
	// n is how many ops the plan has for the class; a fresh class
	// (compile-cold) returns n queries, none repeating.
	population func(w *world, n int) []*op
	fresh      bool
}

// plan is a workload's complete, seed-derived op sequence: an untimed
// warm-up, then the timed ops. The same (workload, seed, length) always
// yields the same plan, byte for byte; hash proves it in the output.
type plan struct {
	workload string
	seed     int64
	warmup   []*op
	timed    []*op
	hash     string
}

// buildPlan lays the sequence out in blocks. Every block holds each class
// exactly perBlock times, in seed-shuffled order, and a class's ops walk its
// seed-shuffled population round-robin. So the class shares of any prefix of
// the sequence are the nominal ones to within a block, and a percentile of
// the op-time distribution falls in the same class on every run and seed.
func buildPlan(w *world, workload string, seed int64, nTimed int) (*plan, error) {
	mixes, warmBlocks, err := workloadMix(workload)
	if err != nil {
		return nil, err
	}
	blockLen := 0
	for _, m := range mixes {
		blockLen += m.perBlock
	}
	// Whole blocks only: every seed then runs the same multiset of ops.
	timedBlocks := max(nTimed/blockLen, 1)
	totalBlocks := warmBlocks + timedBlocks

	rng := rand.New(rand.NewSource(seed))
	pops := make([][]*op, len(mixes))
	for i, m := range mixes {
		need := totalBlocks * m.perBlock
		pop := m.population(w, need)
		if len(pop) == 0 || (m.fresh && len(pop) < need) {
			return nil, fmt.Errorf("relmperf: workload %s class %s has %d queries, needs %d", workload, m.name, len(pop), need)
		}
		rng.Shuffle(len(pop), func(a, b int) { pop[a], pop[b] = pop[b], pop[a] })
		pops[i] = pop
	}
	next := make([]int, len(mixes))
	var seq []*op
	for b := 0; b < totalBlocks; b++ {
		var block []int
		for i, m := range mixes {
			for k := 0; k < m.perBlock; k++ {
				block = append(block, i)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ci := range block {
			cp := *pops[ci][next[ci]%len(pops[ci])]
			next[ci]++
			cp.class = mixes[ci].name
			seq = append(seq, &cp)
		}
	}
	h := sha256.New()
	for i, o := range seq {
		o.idx = i
		var v interface{} = o.search
		if o.job != nil {
			v = o.job
		}
		body, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("relmperf: marshal op %d: %w", i, err)
		}
		o.body = body
		h.Write(body)
		h.Write([]byte{'\n'})
	}
	nWarm := warmBlocks * blockLen
	p := &plan{
		workload: workload,
		seed:     seed,
		warmup:   seq[:nWarm],
		timed:    seq[nWarm:],
		hash:     hex.EncodeToString(h.Sum(nil))[:16],
	}
	return p, nil
}

// workloadMix returns a workload's classes and how many blocks of warm-up
// precede the timed ops.
func workloadMix(workload string) (mixes []classMix, warmBlocks int, err error) {
	switch workload {
	case wlServeMix:
		// 20 ops per block: url 40 %, tox 20 %, cloze 15 %, bias 15 %, beam
		// 10 %. The ~120 distinct queries share a dozen plans (the prefix is
		// not part of a plan's key), far inside the 128-entry plan cache, so
		// plans are hot after the warm-up. The warm-up visits about two thirds
		// of the queries: the logit cache is partly hot when timing starts and
		// fills during the first third of the timed phase.
		return []classMix{
			{name: "url", perBlock: 8, population: urlQueries},
			{name: "tox", perBlock: 4, population: toxQueries},
			{name: "cloze", perBlock: 3, population: clozeQueries},
			{name: "bias", perBlock: 3, population: biasQueries},
			{name: "beam", perBlock: 2, population: beamQueries},
		}, 4, nil
	case wlCompileCold:
		return []classMix{
			{name: "lit-e1", perBlock: 4, population: coldQueries(coldLiteralEdit1), fresh: true},
			{name: "disj", perBlock: 3, population: coldQueries(coldDisjunction), fresh: true},
			{name: "case", perBlock: 2, population: coldQueries(coldCaseVariant), fresh: true},
			{name: "lit-e2", perBlock: 1, population: coldQueries(coldLiteralEdit2), fresh: true},
		}, 2, nil
	case wlIncremental:
		return []classMix{
			{name: "deep", perBlock: 8, population: deepQueries},
		}, 5, nil
	case wlAudit:
		return []classMix{
			{name: "job", perBlock: len(auditKinds), population: auditJobs},
		}, 1, nil
	default:
		return nil, 0, fmt.Errorf("relmperf: unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
}

// --- serve-mix ----------------------------------------------------------

var urlLeads = []string{
	"", "read more at ", "the source is ", "as reported at ", "see ", "visit ",
	"details at ", "coverage continues at ",
}

// urlQueries is §4.1's memorization query: shortest-path extraction of the
// URL pattern under top-k 40, after one of the corpus's lead-in phrases, on
// either n-gram model, for 3 to 5 matches.
func urlQueries(*world, int) []*op {
	var pool []*op
	for _, lead := range urlLeads {
		for _, mdl := range []string{"large", "small"} {
			for _, k := range []int{3, 4, 5} {
				pool = append(pool, searchOp(server.SearchRequest{
					Model:      mdl,
					Pattern:    experiments.URLPattern,
					Prefix:     relm.EscapeLiteral(lead + experiments.URLPrefix),
					TopK:       40,
					RequireEOS: true,
					MaxMatches: k,
				}))
			}
		}
	}
	return pool
}

// toxQueries is §4.3's prompted-insult query: the insult within one edit,
// over all encodings, given the sentence up to it.
func toxQueries(w *world, _ int) []*op {
	var pool []*op
	for _, m := range experiments.ToxicityItems(w.env, 0) {
		pool = append(pool, searchOp(server.SearchRequest{
			Model:        "large",
			Pattern:      relm.EscapeLiteral(" " + m.Insult),
			Prefix:       relm.EscapeLiteral(m.Prompt),
			Tokenization: "all",
			TopK:         40,
			Edits:        1,
			MaxMatches:   3,
		}))
	}
	return dedupOps(pool)
}

// clozePassages is how many LAMBADA passages the mix draws on.
const clozePassages = 30

// clozeQueries is Table 1's LAMBADA query: the passage as prefix, one word
// and a full stop as pattern.
func clozeQueries(w *world, _ int) []*op {
	var pool []*op
	for _, it := range w.env.Lambada.Items {
		pool = append(pool, searchOp(server.SearchRequest{
			Model:      "large",
			Pattern:    ` ([a-zA-Z]+)\.`,
			Prefix:     relm.EscapeLiteral(clozeContext(it.Context)),
			TopK:       500,
			MaxMatches: 3,
		}))
	}
	pool = dedupOps(pool)
	return pool[:min(len(pool), clozePassages)]
}

// clozeContext keeps the end of a passage: the server enumerates prefix
// languages up to 128 bytes (relm's PrefixMaxLen default, which the wire
// request cannot raise), so the prefix is the last 120 bytes cut at a word.
func clozeContext(passage string) string {
	const limit = 120
	if len(passage) <= limit {
		return passage
	}
	tail := passage[len(passage)-limit:]
	if i := strings.IndexByte(tail, ' '); i >= 0 {
		tail = tail[i+1:]
	}
	return tail
}

func professionPattern() string {
	opts := make([]string, len(corpus.Professions))
	for i, p := range corpus.Professions {
		opts[i] = "(" + relm.EscapeLiteral(p) + ")"
	}
	return " (" + strings.Join(opts, "|") + ")"
}

// biasQueries is §4.2's sampling query: 20 random samples of the profession
// disjunction after a gendered prompt. The sampler's seed is part of the
// query, so a repeat of the query repeats its samples.
func biasQueries(*world, int) []*op {
	var pool []*op
	for _, g := range corpus.Genders {
		for _, mdl := range []string{"large", "small"} {
			for s := int64(1); s <= 4; s++ {
				pool = append(pool, searchOp(server.SearchRequest{
					Model:      mdl,
					Pattern:    professionPattern(),
					Prefix:     relm.EscapeLiteral("The " + g + " was trained in"),
					Strategy:   "random",
					Seed:       s,
					MaxMatches: 20,
				}))
			}
		}
	}
	return pool
}

// beamQueries is the mix's slow tail: a narrow beam over the URL pattern,
// sized to cost about ten times the median op.
func beamQueries(*world, int) []*op {
	var pool []*op
	for _, lead := range []string{"read more at ", "the source is "} {
		for _, width := range []int{12, 14, 16, 18, 20} {
			pool = append(pool, searchOp(server.SearchRequest{
				Model:      "large",
				Pattern:    experiments.URLPattern,
				Prefix:     relm.EscapeLiteral(lead + experiments.URLPrefix),
				Strategy:   "beam",
				BeamWidth:  width,
				TopK:       40,
				MaxMatches: 4,
			}))
		}
	}
	return pool
}

// dedupOps drops queries that repeat an earlier one (two corpus items can
// yield the same prompt), keeping first occurrences.
func dedupOps(pool []*op) []*op {
	seen := map[string]bool{}
	var out []*op
	for _, o := range pool {
		key := fmt.Sprintf("%+v", *o.search)
		if !seen[key] {
			seen[key] = true
			out = append(out, o)
		}
	}
	return out
}

// --- compile-cold -------------------------------------------------------

// plainWords splits a corpus line into words and reports whether every one
// is plain lower-case letters (no URLs, digits or punctuation to escape).
func plainWords(line string) ([]string, bool) {
	ws := strings.Fields(line)
	for _, f := range ws {
		for i := 0; i < len(f); i++ {
			if f[i] < 'a' || f[i] > 'z' {
				return nil, false
			}
		}
	}
	return ws, true
}

// vocabulary is the plain words of 3 to 9 letters in the corpus's plain
// sentences, sorted: decoys for the generated patterns.
func vocabulary(w *world) []string {
	seen := map[string]bool{}
	for _, l := range w.env.Corpus {
		ws, _ := plainWords(l)
		for _, f := range ws {
			if len(f) >= 3 && len(f) <= 9 {
				seen[f] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// coldSource is what compile-cold's generator draws from: sentences of the
// training corpus (so the model finds the pattern's strings quickly and the
// op's time goes to compiling, not searching) and decoy words.
type coldSource struct {
	lines [][]string
	vocab []string
}

func newColdSource(w *world) *coldSource {
	src := &coldSource{vocab: vocabulary(w)}
	for _, l := range w.env.Corpus {
		if ws, ok := plainWords(l); ok && len(ws) >= 6 {
			src.lines = append(src.lines, ws)
		}
	}
	return src
}

// window draws a corpus position: up to three words of context as the
// prefix, and the n words that follow it.
func (c *coldSource) window(rng *rand.Rand, n int) (prefix string, next []string) {
	ws := c.lines[rng.Intn(len(c.lines))]
	at := 1 + rng.Intn(len(ws)-n)
	from := at - 1 - rng.Intn(3)
	if from < 0 {
		from = 0
	}
	return strings.Join(ws[from:at], " "), ws[at : at+n]
}

func (c *coldSource) decoy(rng *rand.Rand) string { return c.vocab[rng.Intn(len(c.vocab))] }

type coldShape func(rng *rand.Rand, src *coldSource) server.SearchRequest

func coldRequest(prefix, pattern string, edits int) server.SearchRequest {
	return server.SearchRequest{
		Model:        "small",
		Pattern:      pattern,
		Prefix:       prefix,
		Tokenization: "all",
		Edits:        edits,
		MaxMatches:   3,
	}
}

// coldLiteralEdit1: the next three words within one edit.
func coldLiteralEdit1(rng *rand.Rand, src *coldSource) server.SearchRequest {
	prefix, next := src.window(rng, 3)
	return coldRequest(prefix, " "+strings.Join(next, " "), 1)
}

// coldLiteralEdit2: a short next word and a short decoy within two edits.
// Two edits square the automaton, and the search for the second and third
// match widens with it, so the words are kept to five letters: the class is
// the slow tenth of the workload, not a tail that drowns the rest.
func coldLiteralEdit2(rng *rand.Rand, src *coldSource) server.SearchRequest {
	for {
		prefix, next := src.window(rng, 1)
		decoy := src.decoy(rng)
		if len(next[0]) <= 5 && len(decoy) <= 5 {
			return coldRequest(prefix, " "+next[0]+" "+decoy, 2)
		}
	}
}

// coldDisjunction: the next two words, each beside two decoys, within one
// edit.
func coldDisjunction(rng *rand.Rand, src *coldSource) server.SearchRequest {
	prefix, next := src.window(rng, 2)
	var b strings.Builder
	for _, s := range next {
		fmt.Fprintf(&b, " ((%s)|(%s)|(%s))", s, src.decoy(rng), src.decoy(rng))
	}
	return coldRequest(prefix, b.String(), 1)
}

// coldCaseVariant: the next three words and a decoy, each optionally
// capitalised, no edits.
func coldCaseVariant(rng *rand.Rand, src *coldSource) server.SearchRequest {
	prefix, next := src.window(rng, 3)
	var b strings.Builder
	for _, s := range append(append([]string(nil), next...), src.decoy(rng)) {
		fmt.Fprintf(&b, " (%s|%s)%s", s[:1], strings.ToUpper(s[:1]), s[1:])
	}
	return coldRequest(prefix, b.String(), 0)
}

// coldQueries draws the first n queries of one shape from a generator
// seeded by the world, no pattern repeating: a repeat would be a plan-cache
// hit, and this workload exists to measure misses. (The prefix is not part
// of a plan's key, so it is the pattern that must be new.) A longer run's
// queries extend a shorter run's.
func coldQueries(shape coldShape) func(*world, int) []*op {
	return func(w *world, n int) []*op {
		src := newColdSource(w)
		rng := rand.New(rand.NewSource(worldSeed))
		seen := map[string]bool{}
		var out []*op
		for tries := 0; len(out) < n && tries < 100*n; tries++ {
			r := shape(rng, src)
			if seen[r.Pattern] {
				continue
			}
			seen[r.Pattern] = true
			out = append(out, searchOp(r))
		}
		return out
	}
}

// --- incremental-deep ---------------------------------------------------

// deepQueries decodes the tail of a training sentence word by word on the
// transformer: the first words are the prefix, every later word is a slot
// that admits the true word or one decoy, and the match must end in EOS.
// Frontier batch 1 makes every expansion one single-row device dispatch.
// Every sentence is used at two cut points: ~90 queries whose decode states
// together are several times the arena's budget.
func deepQueries(w *world, _ int) []*op {
	vocab := vocabulary(w)
	var pool []*op
	for li, line := range w.trLines {
		ws := strings.Fields(line)
		for _, cut := range []int{len(ws) - 4, len(ws) - 5} {
			if cut < 4 {
				continue
			}
			var b strings.Builder
			for wi, s := range ws[cut:] {
				fmt.Fprintf(&b, " ((%s)|(%s))", relm.EscapeLiteral(s), vocab[(31*li+7*wi+cut)%len(vocab)])
			}
			pool = append(pool, searchOp(server.SearchRequest{
				Model:       "tr",
				Pattern:     b.String(),
				Prefix:      relm.EscapeLiteral(strings.Join(ws[:cut], " ")),
				RequireEOS:  true,
				Incremental: true,
				Batch:       1,
				MaxMatches:  3,
			}))
		}
	}
	return pool
}

// --- audit-suite --------------------------------------------------------

// auditKind is one suite × variant × model combination.
type auditKind struct{ suite, variant, model string }

// auditKinds are the jobs a block submits, one of each: the four validation
// suites, LAMBADA in its four variants, on both n-gram models.
var auditKinds = func() []auditKind {
	var kinds []auditKind
	for _, mdl := range []string{"large", "small"} {
		kinds = append(kinds, auditKind{"bias", "", mdl}, auditKind{"toxicity", "", mdl}, auditKind{"memorization", "", mdl})
		for _, v := range []experiments.LambadaVariant{experiments.LambadaWords, experiments.LambadaBaseline, experiments.LambadaTerminated, experiments.LambadaNoStop} {
			kinds = append(kinds, auditKind{"lambada", string(v), mdl})
		}
	}
	return kinds
}()

// auditJobs is every kind once: 4 items in shards of 2, a checkpoint (and
// fsync) after every shard. The suites take the first items of their
// worklists, so after the warm-up block every job re-scores contexts the
// logit cache already holds: the engine is cheap here and the scheduler,
// sessions and ledger are what is left.
func auditJobs(*world, int) []*op {
	var pool []*op
	for _, k := range auditKinds {
		pool = append(pool, jobOp(jobs.Spec{
			Suite:           k.suite,
			Variant:         k.variant,
			Model:           k.model,
			ShardSize:       2,
			CheckpointEvery: 1,
			MaxItems:        4,
		}))
	}
	return pool
}
