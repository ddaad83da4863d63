package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/tokenizer"
	"repro/relm"
)

// worldSeed fixes the synthetic corpora and the trained models. The
// benchmark's -seed varies the op sequence, never the world: two runs on
// different seeds query the same models, so their numbers are comparable.
const worldSeed = 20230515

// kvBudget is the transformer's prefix-state arena on incremental-deep,
// deliberately tight: the workload's decode states add up to about four
// times this, so hits, demotions, promotions and Prefill fall-backs all
// occur (bench/README.md, incremental-deep).
const kvBudget = 1 << 20

// world is everything trained in set-up: corpora, tokenizers and raw
// language models. It is built once per set-up and shared by every stack.
type world struct {
	env *experiments.Env
	// raw models by registry name, with the tokenizer each was trained on.
	lms  map[string]model.LanguageModel
	toks map[string]*tokenizer.BPE
	// trLines is the transformer's training text, the source of
	// incremental-deep's prefixes (nil on other workloads).
	trLines []string
}

// buildWorld trains what the workload serves: the two n-gram models always,
// the transformer only where it is queried (training it is most of that
// workload's set-up time, and other workloads never touch it).
func buildWorld(workload string) *world {
	env := experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick, Seed: worldSeed})
	w := &world{
		env:  env,
		lms:  map[string]model.LanguageModel{"large": env.Large.LM, "small": env.Small.LM},
		toks: map[string]*tokenizer.BPE{"large": env.Tok, "small": env.Tok},
	}
	if workload == wlIncremental {
		w.trLines = transformerLines(env)
		tok := tokenizer.Train(w.trLines, 300)
		w.lms["tr"] = model.TrainTransformer(w.trLines, tok, model.TransformerConfig{
			DModel: 32, NHeads: 2, NLayers: 2, DFF: 64, MaxSeqLen: 64, Epochs: 1, Seed: 7,
		})
		w.toks["tr"] = tok
	}
	return w
}

// transformerLines picks the transformer's training text: the filler
// sentences of the web corpus (plain words, no URLs), longest first, so the
// workload has long prefixes the model has seen.
func transformerLines(env *experiments.Env) []string {
	var lines []string
	for _, l := range env.Web.Lines {
		if len(l) >= 40 && len(l) <= 90 && !strings.Contains(l, "http") {
			lines = append(lines, l)
		}
	}
	sort.SliceStable(lines, func(i, j int) bool { return len(lines[i]) > len(lines[j]) })
	if len(lines) > 48 {
		lines = lines[:48]
	}
	return lines
}

// stack is one serving instance over a world: relm models (each raw model
// behind its timing decorator), the shared scoring pool, the HTTP server on
// a loopback listener, and the jobs manager. The benchmark builds one
// untraced stack for the end-to-end numbers and a traced one for the
// per-layer pass.
type stack struct {
	w      *world
	names  []string // registry names, sorted
	models map[string]*relm.Model
	timers map[string]*modelTimer
	pool   *device.Pool
	srv    *server.Server
	mgr    *jobs.Manager
	addr   string
	ledger string // ledger directory, removed on close

	stop   chan os.Signal
	served chan error
}

type stackOptions struct {
	traced     bool
	jobs       bool          // mount /v1/jobs (audit-suite)
	scratch    string        // parent directory for the ledger directory
	modelDelay time.Duration // -sensitivity: extra time per decorated model call
	serial     bool          // -sensitivity: one scoring worker, so no two model calls overlap
	listen     bool          // false: models only, no HTTP server (direct replay)
}

// newStack wires models, server and listener the way cmd/relm-serve does,
// with the same defaults: MaxConcurrent 4, jobs MaxActive 2, a scoring pool
// of NumCPU workers, fusion on, default caches.
func newStack(w *world, o stackOptions) (*stack, error) {
	workers := runtime.NumCPU()
	if o.serial {
		workers = 1
	}
	s := &stack{
		w:      w,
		models: map[string]*relm.Model{},
		timers: map[string]*modelTimer{},
		pool:   device.NewPool(workers),
	}
	sampling := -1.0
	if o.traced {
		sampling = 1.0
	}
	for name := range w.lms {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	for _, name := range s.names {
		t := &modelTimer{delay: o.modelDelay, keep: o.traced}
		lm, err := wrapModel(w.lms[name], t)
		if err != nil {
			_ = s.close() // nothing is serving yet; the wrap error is the one to report
			return nil, err
		}
		opts := relm.ModelOptions{
			Pool:               s.pool,
			ContinuousBatching: true,
			TraceSampling:      sampling,
			// The per-layer pass reads every span tree of its ops back; the
			// default ring of 256 would drop the oldest on a job workload.
			TraceRing: 8192,
		}
		if name == "tr" {
			opts.KVBudgetBytes = kvBudget
		}
		s.timers[name] = t
		s.models[name] = relm.NewModel(lm, w.toks[name], opts)
	}
	if !o.listen {
		return s, nil
	}

	s.srv = server.New(server.Config{})
	if o.jobs {
		dir, err := os.MkdirTemp(o.scratch, "ledgers-")
		if err != nil {
			_ = s.close()
			return nil, fmt.Errorf("relmperf: ledger directory: %w", err)
		}
		s.ledger = dir
		mgr, err := jobs.NewManager(jobs.Config{Dir: dir, Env: w.env})
		if err != nil {
			_ = s.close()
			return nil, err
		}
		s.mgr = mgr
		s.srv.EnableJobs(mgr)
	}
	for _, name := range s.names {
		s.srv.AddModel(name, s.models[name])
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.close()
		return nil, fmt.Errorf("relmperf: listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.stop = make(chan os.Signal, 1)
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln, s.stop, 5*time.Second) }()
	return s, nil
}

// close drains the server, stops the fusion schedulers and the pool, and
// removes the ledger directory. It returns once every goroutine the stack
// started has exited.
func (s *stack) close() error {
	var err error
	if s.stop != nil {
		s.stop <- os.Interrupt
		err = <-s.served
		s.stop = nil
	}
	for _, m := range s.models {
		m.Close()
	}
	if s.pool != nil {
		s.pool.Close()
		s.pool = nil
	}
	if s.ledger != "" {
		if rerr := os.RemoveAll(s.ledger); rerr != nil && err == nil {
			err = rerr
		}
		s.ledger = ""
	}
	return err
}

// timerTotal sums the decorator counters over the stack's models.
func (s *stack) timerTotal() timerSnapshot {
	var sum timerSnapshot
	for _, t := range s.timers {
		sum = sum.add(t.snapshot())
	}
	return sum
}

// vdevBusy sums simulated accelerator time over the stack's models.
func (s *stack) vdevBusy() time.Duration {
	var sum time.Duration
	for _, m := range s.models {
		sum += m.Dev.Stats().Busy
	}
	return sum
}
