package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/automaton"
	"repro/internal/compiler"
	"repro/internal/jobs"
	"repro/internal/kvcache"
	"repro/internal/levenshtein"
	"repro/internal/model"
	"repro/internal/regex"
	"repro/internal/trace"
	"repro/relm"
)

// The per-layer pass. Layers are this repo's packages; every number is taken
// from outside the program: direct calls into public functions on the
// workload's own inputs, the timing decorator around the raw model, and the
// public counters the packages already export. bench/README.md lists, for
// each metric, the end-to-end metric it should move and on which workload.

// maxProbePatterns caps how many distinct patterns the compile-chain probes
// compile (compile-cold has a new pattern per op; a few dozen give a stable
// mean and keep the pass inside its time budget).
const maxProbePatterns = 32

// probeReps is how many times each probe pattern is compiled.
const probeReps = 5

// layerShare is the part of the timed sequence the per-layer pass runs: the
// first third, which on every workload is at least 200 ops, so the pass's own
// p95 has ten samples beyond it.
const layerShare = 3

// directShare is the part of the per-layer pass's ops the serial no-HTTP
// replay covers: a quarter of them, because one caller takes twice the wall
// time two callers do.
const directShare = 4

// stageNames are the tracer's stages, in pipeline order. Each gets a
// trace.stage.<name>_ms_per_op metric: the stage's wall self time (span
// duration minus what its child spans cover) per op.
var stageNames = []string{
	"plan.compile", "prefix.score", "round", "device.forward", "device.prefill",
	"device.extend", "kv.acquire", "kv.promote", "emit",
}

// counters is one reading of every public counter family on a stack.
type counters struct {
	planHits, planMisses    int64
	planCompile             time.Duration
	cacheHits, cacheMisses  int64
	cacheFlights            int64
	batches, sequences      int64
	fused, fusedRows        int64
	multiQuery, windowFlush int64
	kv                      relm.KVStats
	jobs                    jobs.ManagerStats
	timer                   timerSnapshot
}

func readCounters(s *stack) counters {
	var c counters
	for _, name := range s.names {
		m := s.models[name]
		ps := m.PlanCacheStats()
		c.planHits += ps.Hits
		c.planMisses += ps.Misses
		c.planCompile += ps.CompileTime
		if lc := m.Cache(); lc != nil {
			h, mi := lc.Stats()
			c.cacheHits += h
			c.cacheMisses += mi
			c.cacheFlights += lc.FlightStats()
		}
		ds := m.Dev.Stats()
		c.batches += ds.Batches
		c.sequences += ds.Sequences
		bs := m.BatcherStats()
		c.fused += bs.FusedBatches
		c.fusedRows += bs.Rows
		c.multiQuery += bs.MultiQueryBatches
		c.windowFlush += bs.WindowFlushes
		ks := m.KVStats()
		c.kv.Hits += ks.Hits
		c.kv.Misses += ks.Misses
		c.kv.Evictions += ks.Evictions
		c.kv.Demotions += ks.Demotions
		c.kv.Promotions += ks.Promotions
		c.kv.ResidentBytes += ks.ResidentBytes
	}
	if s.mgr != nil {
		c.jobs = s.mgr.Stats()
	}
	c.timer = s.timerTotal()
	return c
}

// layerRun is the failure accounting of a per-layer pass: its two HTTP
// passes and what verification of the traced one found.
type layerRun struct {
	ref, traced *phase
	follow      *phase // audit-suite only: one block of jobs read through follow=1
	checked     int
	mismatches  []string
}

// layerPass runs the per-layer pass for a plan — the first third of the
// timed sequence — and returns every per-layer metric.
func layerPass(w *world, pl *plan, cfg runConfig) (map[string]float64, *layerRun, error) {
	ops := pl.timed[:len(pl.timed)/layerShare]
	if len(ops) == 0 {
		return nil, nil, fmt.Errorf("relmperf: %d timed ops leave nothing for the traced pass", len(pl.timed))
	}
	out := map[string]float64{}
	base := stackOptions{jobs: pl.workload == wlAudit, scratch: cfg.scratch, listen: true}

	// (1) Untraced reference: same warm-up, same ops, tracing off.
	plain, err := newStack(w, base)
	if err != nil {
		return nil, nil, err
	}
	runPhase(plain, pl.warmup, time.Time{})
	ref := runPhase(plain, ops, cfg.deadline())
	// The server's own follow=1 stream, on one block of jobs: what the
	// 50 ms results poll makes of a job the clients above saw finish sooner.
	out["jobs.follow_ms_per_job"] = 0
	var follow *phase
	if pl.workload == wlAudit {
		follow = runPhaseWith(plain, ops[:min(len(ops), len(auditKinds))], cfg.deadline(), nClients, true)
		var followed []float64
		for _, r := range follow.succeeded() {
			followed = append(followed, ms(r.total))
		}
		out["jobs.follow_ms_per_job"] = mean(followed)
	}
	if err := plain.close(); err != nil {
		return nil, nil, err
	}

	// (2) Traced pass: counters and span trees.
	tracedOpts := base
	tracedOpts.traced = true
	ts, err := newStack(w, tracedOpts)
	if err != nil {
		return nil, nil, err
	}
	defer ts.close()
	runPhase(ts, pl.warmup, time.Time{})
	c0 := readCounters(ts)
	began := time.Now()
	tp := runPhase(ts, ops, cfg.deadline())
	c1 := readCounters(ts)
	phases := &layerRun{ref: ref, traced: tp, follow: follow}
	phases.checked, phases.mismatches = verifyPhase(w, ts, tp)
	nOK := float64(len(tp.succeeded()))
	if nOK == 0 || len(ref.succeeded()) == 0 {
		return nil, phases, fmt.Errorf("relmperf: traced pass: no op succeeded")
	}

	// The wall-clock metrics, from the untraced reference phase.
	minBeyond := 10
	if cfg.short {
		minBeyond = 0
	}
	wall, err := ref.wallClock(minBeyond)
	if err != nil {
		return nil, phases, fmt.Errorf("relmperf: %s: %w", pl.workload, err)
	}
	for k, v := range wall {
		out[k] = v
	}

	refPerOp := ref.wall.Seconds() / float64(len(ref.results))
	tracedPerOp := tp.wall.Seconds() / float64(len(tp.results))
	out["trace.overhead_pct"] = 100 * (tracedPerOp - refPerOp) / refPerOp
	stageSelf(ts, began, nOK, out)

	out["relm.plan_hit_rate"] = ratio(float64(c1.planHits-c0.planHits),
		float64(c1.planHits-c0.planHits+c1.planMisses-c0.planMisses))
	out["relm.plan_compile_ms_per_op"] = ms(c1.planCompile-c0.planCompile) / nOK

	hits, misses, flights := float64(c1.cacheHits-c0.cacheHits), float64(c1.cacheMisses-c0.cacheMisses), float64(c1.cacheFlights-c0.cacheFlights)
	out["cache.hit_rate"] = ratio(hits, hits+misses+flights)
	out["cache.misses_per_op"] = misses / nOK
	out["cache.flights_per_op"] = flights / nOK

	tm := c1.timer.sub(c0.timer)
	out["model.calls_per_op"] = float64(tm.calls) / nOK
	out["model.rows_per_call"] = ratio(float64(tm.rows), float64(tm.calls))
	out["model.busy_ms_per_op"] = ms(tm.busy) / nOK
	out["model.prefill_ms_per_op"] = ms(tm.prefill) / nOK
	out["model.extend_ms_per_op"] = ms(tm.extendDur) / nOK

	batches, fused := float64(c1.batches-c0.batches), float64(c1.fused-c0.fused)
	out["device.batches_per_op"] = batches / nOK
	out["device.rows_per_batch"] = ratio(float64(c1.sequences-c0.sequences), batches)
	out["device.fused_occupancy"] = ratio(float64(c1.fusedRows-c0.fusedRows), fused)
	out["device.multi_query_share"] = ratio(float64(c1.multiQuery-c0.multiQuery), fused)
	out["device.window_flush_share"] = ratio(float64(c1.windowFlush-c0.windowFlush), fused)

	kvHits, kvMisses := float64(c1.kv.Hits-c0.kv.Hits), float64(c1.kv.Misses-c0.kv.Misses)
	out["kvcache.hit_rate"] = ratio(kvHits, kvHits+kvMisses)
	out["kvcache.evictions_per_op"] = float64(c1.kv.Evictions-c0.kv.Evictions) / nOK
	out["kvcache.demotions_per_op"] = float64(c1.kv.Demotions-c0.kv.Demotions) / nOK
	out["kvcache.promotions_per_op"] = float64(c1.kv.Promotions-c0.kv.Promotions) / nOK
	out["kvcache.resident_mb"] = float64(c1.kv.ResidentBytes) / (1 << 20)

	out["jobs.items_per_s"] = float64(c1.jobs.ItemsDone-c0.jobs.ItemsDone) / tp.wall.Seconds()
	out["jobs.ledger_bytes_per_item"] = ratio(float64(c1.jobs.LedgerBytes-c0.jobs.LedgerBytes), float64(c1.jobs.ItemsDone-c0.jobs.ItemsDone))
	out["jobs.retries"] = float64(c1.jobs.Retries - c0.jobs.Retries)
	out["jobs.quarantined"] = float64(c1.jobs.Quarantined - c0.jobs.Quarantined)

	rejected, refetched := 0, 0
	for i := range tp.results {
		if tp.results[i].rejected {
			rejected++
		}
		if tp.results[i].refetched {
			refetched++
		}
	}
	out["server.rejected"] = float64(rejected)
	out["jobs.results_refetched"] = float64(refetched)
	gaps := make([]float64, len(tp.gaps))
	for i, g := range tp.gaps {
		gaps[i] = ms(g)
	}
	out["server.match_gap_p50_ms"] = median(gaps)

	out["go.gc_cpu_pct"] = 100 * tp.gcCPU
	out["go.gc_cycles_per_op"] = float64(tp.gcCycles) / nOK
	out["go.goroutines_peak"] = float64(tp.peakGo)
	out["host.calibration_ms"] = ms(calibrate())

	// (3) The same ops with no HTTP: one caller, straight into relm.Search
	// (or Suite.Run), on a third stack warmed the same way.
	nDirect := len(ops) / directShare
	if nDirect < 1 {
		nDirect = 1
	}
	d, err := directReplay(w, pl, ops[:nDirect], cfg)
	if err != nil {
		return nil, phases, err
	}
	var httpMS []float64
	for i := range ref.results[:min(nDirect, len(ref.results))] {
		if ref.results[i].fail == "" {
			httpMS = append(httpMS, ms(ref.results[i].total))
		}
	}
	out["relm.search_ms_per_op"] = d.searchMS
	out["engine.nodes_per_op"] = d.nodes
	out["engine.host_ms_per_op"] = d.searchMS - d.busyMS - d.compileMS
	out["server.self_ms_per_op"] = mean(httpMS) - d.searchMS
	if pl.workload == wlAudit {
		out["jobs.self_ms_per_job"] = out["server.self_ms_per_op"]
	} else {
		out["jobs.self_ms_per_job"] = 0
	}

	// (4) Direct calls into single layers.
	compileProbes(ts, ops, out)
	encodeProbe(w, ops, out)
	hotPathProbes(ts, out)
	kvProbe(ts, out)
	if err := ledgerProbe(pl.workload, cfg.scratch, out); err != nil {
		return nil, phases, err
	}
	return out, phases, nil
}

// stageSelf walks the span trees of the traces that began after the warm-up
// and charges each span's wall self time to its stage. What no named stage
// covers — the root span's self time — is trace.unattributed_pct.
func stageSelf(s *stack, began time.Time, nOps float64, out map[string]float64) {
	self := map[string]time.Duration{}
	var rootWall time.Duration
	for _, name := range s.names {
		for _, d := range s.models[name].Tracer().Recent(0) {
			if d.Began.Before(began) {
				continue
			}
			covered := make(map[trace.SpanID]time.Duration, len(d.Spans))
			for i := range d.Spans {
				covered[d.Spans[i].Parent] += d.Spans[i].Wall()
			}
			for i := range d.Spans {
				sp := &d.Spans[i]
				own := sp.Wall() - covered[sp.ID]
				if own < 0 {
					own = 0 // children ran in parallel and cover more than the parent's wall
				}
				self[sp.Name] += own
			}
			if r := d.Root(); r != nil {
				rootWall += r.Wall()
			}
		}
	}
	for _, st := range stageNames {
		out["trace.stage."+st+"_ms_per_op"] = ms(self[st]) / nOps
	}
	out["trace.unattributed_pct"] = 100 * ratio(float64(self["query"]), float64(rootWall))
}

type directResult struct {
	searchMS, busyMS, compileMS, nodes float64 // means per op
}

// directReplay warms a listener-less stack with the plan's warm-up and then
// runs ops through it one at a time, timing each from outside.
func directReplay(w *world, pl *plan, ops []*op, cfg runConfig) (directResult, error) {
	s, err := newStack(w, stackOptions{})
	if err != nil {
		return directResult{}, err
	}
	defer s.close()
	run := func(o *op) (nodes int64, err error) {
		if o.job != nil {
			_, nodes, err = directJob(w, s.models[o.job.Model].NewSession().Model, o.job)
		} else {
			_, nodes, err = directSearch(s.models[o.search.Model].NewSession().Model, o.search)
		}
		return nodes, err
	}
	for _, o := range pl.warmup {
		if _, err := run(o); err != nil {
			return directResult{}, fmt.Errorf("relmperf: direct warm-up op %d: %w", o.idx, err)
		}
	}
	c0 := readCounters(s)
	var nodes int64
	t0 := time.Now()
	for _, o := range ops {
		n, err := run(o)
		if err != nil {
			return directResult{}, fmt.Errorf("relmperf: direct op %d: %w", o.idx, err)
		}
		nodes += n
	}
	wall := time.Since(t0)
	c1 := readCounters(s)
	n := float64(len(ops))
	return directResult{
		searchMS:  ms(wall) / n,
		busyMS:    ms(c1.timer.busy-c0.timer.busy) / n,
		compileMS: ms(c1.planCompile-c0.planCompile) / n,
		nodes:     float64(nodes) / n,
	}, nil
}

// directJob runs a job's items through its suite on m, as the job's worker
// would, and returns the item results and nodes expanded.
func directJob(w *world, m *relm.Model, spec *jobs.Spec) ([]jobs.ItemResult, int64, error) {
	suite, err := jobs.NewSuite(w.env, *spec)
	if err != nil {
		return nil, 0, err
	}
	var out []jobs.ItemResult
	var nodes int64
	for _, it := range suite.Items(spec.MaxItems) {
		res, st, err := suite.Run(context.Background(), m, it)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, res)
		nodes += st.NodesExpanded
	}
	return out, nodes, nil
}

// compileSteps are the direct-call probes of the compile chain, in pipeline
// order.
var compileSteps = []string{"regex.compile_us", "levenshtein.expand_us", "automaton.minimize_us",
	"compiler.canonical_us", "compiler.full_us", "automaton.freeze_us"}

// probePatterns picks the ops whose patterns the compile-chain probes
// compile: the first maxProbePatterns distinct ones among the search ops.
func probePatterns(ops []*op) []*op {
	type key struct {
		model, pattern, tokenization string
		edits                        int
	}
	seen := map[key]bool{}
	var picked []*op
	for _, o := range ops {
		if o.search == nil {
			continue
		}
		k := key{o.search.Model, o.search.Pattern, o.search.Tokenization, o.search.Edits}
		if !seen[k] && len(picked) < maxProbePatterns {
			seen[k] = true
			picked = append(picked, o)
		}
	}
	return picked
}

// uncachedModels wraps the stack's decorated language models in relm models
// without a plan cache, so that every relm.Explain on them compiles.
func uncachedModels(s *stack) map[string]*relm.Model {
	fresh := map[string]*relm.Model{}
	for name, m := range s.models {
		fresh[name] = relm.NewModel(m.LM, s.w.toks[name], relm.ModelOptions{PlanCacheSize: -1, TraceSampling: -1})
	}
	return fresh
}

// compileOnce takes one op's pattern through the compile chain step by step,
// calling each step directly, then through a cold relm.Explain on m, and
// returns how long each step took ("explain" for the last; a step the
// pattern does not take has no entry) and the frozen automaton, nil when the
// pattern does not compile (the op itself fails on it, and is counted there).
func compileOnce(s *stack, m *relm.Model, o *op) (map[string]time.Duration, *automaton.Frozen) {
	req := o.search
	tok := s.w.toks[req.Model]
	took := map[string]time.Duration{}
	timed := func(name string, fn func()) {
		t0 := time.Now()
		fn()
		took[name] = time.Since(t0)
	}
	var char, token *automaton.DFA
	var cerr error
	timed("regex.compile_us", func() { char, cerr = regex.Compile(req.Pattern) })
	if cerr != nil {
		return took, nil
	}
	if req.Edits > 0 {
		timed("levenshtein.expand_us", func() { char = levenshtein.ExpandK(char, levenshtein.PrintableASCII(), req.Edits) })
	}
	timed("automaton.minimize_us", func() { char = char.MinimizeHopcroft() })
	full := req.Tokenization == "all"
	if !full {
		// relm's CanonicalAuto: enumerate when the language is small
		// enough, else the full automaton under the dynamic filter.
		timed("compiler.canonical_us", func() { token, cerr = compiler.CompileCanonical(char, tok, 64, 50000) })
		full = errors.Is(cerr, compiler.ErrLanguageTooLarge)
	}
	if full {
		timed("compiler.full_us", func() { token = compiler.CompileFull(char, tok) })
	}
	var fz *automaton.Frozen
	timed("automaton.freeze_us", func() { fz = token.Freeze() })
	timed("explain", func() { _, _ = relm.Explain(m, toQuery(req, context.Background())) })
	return took, fz
}

// keepFastest lowers each step's time in best to took's where that is less:
// one compilation is a single sample of a few milliseconds of CPU-bound work,
// which interference only ever slows.
func keepFastest(best, took map[string]time.Duration) {
	for name, d := range took {
		if b, seen := best[name]; !seen || d < b {
			best[name] = d
		}
	}
}

// compileProbes times each step of the compile chain on the distinct
// patterns of the traced ops, and a cold relm.Explain of the same queries
// over the stack's decorated language model. Each pattern is compiled
// probeReps times and each step charged its fastest time. Means are per
// distinct pattern; a step a pattern does not take contributes zero.
func compileProbes(s *stack, ops []*op, out map[string]float64) {
	picked := probePatterns(ops)
	fresh := uncachedModels(s)
	sum := map[string]time.Duration{}
	var states, edges int
	for _, o := range picked {
		best := map[string]time.Duration{}
		var fz *automaton.Frozen
		for r := 0; r < probeReps; r++ {
			var took map[string]time.Duration
			took, fz = compileOnce(s, fresh[o.search.Model], o)
			keepFastest(best, took)
		}
		if fz == nil {
			continue
		}
		states += fz.NumStates()
		edges += fz.NumEdges()
		for name, d := range best {
			sum[name] += d
		}
	}
	n := float64(len(picked))
	var chain time.Duration
	for _, name := range compileSteps {
		out[name] = ratio(us(sum[name]), n)
		chain += sum[name]
	}
	out["automaton.frozen_states"] = ratio(float64(states), n)
	out["automaton.frozen_edges"] = ratio(float64(edges), n)
	out["relm.explain_ms"] = ratio(ms(sum["explain"]), n)
	out["relm.compile_residual_pct"] = 100 * ratio(float64(sum["explain"]-chain), float64(sum["explain"]))
}

// encodeProbe times BPE.Encode on the ops' prefixes.
func encodeProbe(w *world, ops []*op, out map[string]float64) {
	var total time.Duration
	n := 0
	for _, o := range ops {
		if o.search == nil {
			continue
		}
		tok := w.toks[o.search.Model]
		// The wire prefix is an escaped literal; encode the text it denotes.
		text := unescape(o.search.Prefix)
		t0 := time.Now()
		tok.Encode(text)
		total += time.Since(t0)
		n++
	}
	out["tokenizer.encode_us"] = ratio(us(total), float64(n))
}

// unescape undoes regex.Escape on a literal.
func unescape(s string) string {
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b = append(b, s[i])
	}
	return string(b)
}

// hotPathProbes times the logit cache's hit path and the device's dispatch
// path on contexts known to be resident: pure bookkeeping, no model work.
func hotPathProbes(s *stack, out map[string]float64) {
	m := s.models[s.names[0]]
	eos := m.LM.EOS()
	ctxs := make([][]model.Token, 32)
	for i := range ctxs {
		ctxs[i] = []model.Token{eos, model.Token(i % m.LM.VocabSize())}
	}
	m.Cache().ScoreBatch(ctxs) // make them resident
	const reps = 200
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		m.Cache().ScoreBatch(ctxs)
	}
	out["cache.hit_us_per_row"] = us(time.Since(t0)) / float64(reps*len(ctxs))
	t0 = time.Now()
	for r := 0; r < reps; r++ {
		m.Dev.Forward(ctxs)
	}
	out["device.forward_hot_us"] = us(time.Since(t0)) / reps
}

// kvProbe feeds the decode states the decorator recorded during the traced
// pass to a standalone arena and times Commit and Acquire. With no recorded
// states (every workload but incremental-deep) both are zero.
func kvProbe(s *stack, out map[string]float64) {
	out["kvcache.acquire_us"], out["kvcache.commit_us"] = 0, 0
	t := s.timers["tr"]
	if t == nil {
		return
	}
	states := t.recorded()
	if len(states) == 0 {
		return
	}
	arena := kvcache.NewTiered(kvcache.Config{BudgetBytes: 64 << 20})
	handles := make([]*kvcache.Handle, len(states))
	t0 := time.Now()
	for i, st := range states {
		handles[i] = arena.Commit(nil, st.Context(), st)
	}
	out["kvcache.commit_us"] = us(time.Since(t0)) / float64(len(states))
	for _, h := range handles {
		h.Release()
	}
	t0 = time.Now()
	for i, st := range states {
		handles[i] = arena.Acquire(st.Context())
	}
	out["kvcache.acquire_us"] = us(time.Since(t0)) / float64(len(states))
	for _, h := range handles {
		h.Release()
	}
}

// ledgerProbe times hash-chained appends and fsyncs on a scratch ledger
// (audit-suite only; zero elsewhere).
func ledgerProbe(workload, scratch string, out map[string]float64) error {
	out["jobs.ledger_append_us"], out["jobs.ledger_sync_us"] = 0, 0
	if workload != wlAudit {
		return nil
	}
	dir, err := os.MkdirTemp(scratch, "ledger-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := jobs.CreateLedger(filepath.Join(dir, "probe.jsonl"))
	if err != nil {
		return err
	}
	item := jobs.ItemResult{ID: "probe-0000", OK: true, Score: -12.345678, Text: "probe"}
	const appends, syncs = 400, 20
	t0 := time.Now()
	for i := 0; i < appends; i++ {
		if _, err := l.Append("item", item); err != nil {
			_ = l.Close()
			return err
		}
	}
	out["jobs.ledger_append_us"] = us(time.Since(t0)) / appends
	t0 = time.Now()
	for i := 0; i < syncs; i++ {
		if _, err := l.Append("checkpoint", nil); err != nil {
			_ = l.Close()
			return err
		}
		if err := l.Sync(); err != nil {
			_ = l.Close()
			return err
		}
	}
	out["jobs.ledger_sync_us"] = us(time.Since(t0)) / syncs
	return l.Close()
}
