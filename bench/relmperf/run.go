package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/relm"
)

// nClients is the closed loop's width: two callers, each waiting for its
// reply before sending the next request, on two keep-alive connections. On
// the 2-core reference box this keeps both cores busy without queueing.
const nClients = 2

// phase is one pass of ops through a stack's HTTP server, with everything
// the harness measures around it from outside.
type phase struct {
	results   []opResult // one per attempted op, in sequence order
	planned   int        // ops the pass was given
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocated uint64 // bytes
	gcCycles  uint32
	gcCPU     float64 // fraction of available CPU the GC used over the pass
	timer     timerSnapshot
	vdev      time.Duration
	gaps      []time.Duration
	peakRSS   float64 // MiB, read when the pass ended
	peakGo    int     // most goroutines seen by the sampler
}

// runPhase drives ops through the server closed-loop from nClients
// goroutines. Ops are claimed in sequence order; an op not yet claimed when
// the deadline passes is not attempted (a slow machine shortens the pass
// instead of overrunning the time cap). A zero deadline means none.
func runPhase(s *stack, ops []*op, deadline time.Time) *phase {
	return runPhaseWith(s, ops, deadline, nClients, false)
}

// runPhaseWith is runPhase with the two things the probes vary: how many
// clients drive the loop (-sensitivity uses one, so that the decorated model
// calls made during an op are the op's own) and whether job ops read the
// server's follow=1 stream instead of polling.
func runPhaseWith(s *stack, ops []*op, deadline time.Time, width int, follow bool) *phase {
	p := &phase{planned: len(ops), results: make([]opResult, len(ops))}
	clients := make([]*client, width)
	for i := range clients {
		clients[i] = newClient(s.addr)
		clients[i].follow = follow
	}

	// Sample the goroutine count from outside the clients; the sampler is
	// stopped and joined before the pass's numbers are read.
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				if n := runtime.NumGoroutine(); n > p.peakGo {
					p.peakGo = n
				}
			}
		}
	}()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	timer0, vdev0, cpu0 := s.timerTotal(), s.vdevBusy(), cpuTime()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				if width > 1 {
					p.results[i] = c.do(ops[i])
					continue
				}
				calls := s.timerTotal().calls
				p.results[i] = c.do(ops[i])
				p.results[i].ownCalls = s.timerTotal().calls - calls
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.timer = s.timerTotal().sub(timer0)
	p.vdev = s.vdevBusy() - vdev0
	runtime.ReadMemStats(&m1)
	p.peakRSS = peakRSSMiB()
	close(stopSampler)
	<-samplerDone

	p.mallocs = m1.Mallocs - m0.Mallocs
	p.allocated = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	// GCCPUFraction is cumulative since process start; recover the pass's
	// own share from the two cumulative readings and their time bases.
	p.gcCPU = passGCFraction(m0.GCCPUFraction, m1.GCCPUFraction, start, p.wall)

	attempted := 0
	for i := range p.results {
		if p.results[i].op != nil {
			attempted = i + 1
		}
	}
	p.results = p.results[:attempted]
	for _, c := range clients {
		p.gaps = append(p.gaps, c.gaps...)
		c.close()
	}
	return p
}

var processStart = time.Now()

// passGCFraction converts two cumulative GCCPUFraction readings into the
// fraction over the interval between them.
func passGCFraction(f0, f1 float64, start time.Time, wall time.Duration) float64 {
	t0 := start.Sub(processStart).Seconds()
	t1 := t0 + wall.Seconds()
	if t1 <= t0 {
		return 0
	}
	return (f1*t1 - f0*t0) / (t1 - t0)
}

// succeeded and failed split the attempted ops.
func (p *phase) succeeded() []*opResult {
	var out []*opResult
	for i := range p.results {
		if p.results[i].fail == "" {
			out = append(out, &p.results[i])
		}
	}
	return out
}

func (p *phase) failed() []*opResult {
	var out []*opResult
	for i := range p.results {
		if p.results[i].fail != "" {
			out = append(out, &p.results[i])
		}
	}
	return out
}

// bounded computes the end-to-end metrics of a timed pass that repeat from
// run to run and carry a bound (setup_s is supplied by the caller). Per-op
// figures divide by succeeded ops.
func (p *phase) bounded(setupS float64) (map[string]float64, error) {
	ok := p.succeeded()
	n := float64(len(ok))
	if n == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted)", len(p.results))
	}
	var calls int64
	for _, r := range ok {
		calls += r.modelCalls
	}
	return map[string]float64{
		"setup_s":            setupS,
		"allocs_per_op":      float64(p.mallocs) / n,
		"alloc_kb_per_op":    float64(p.allocated) / 1024 / n,
		"peak_rss_mb":        p.peakRSS,
		"model_calls_per_op": float64(calls) / n,
		"vdev_ms_per_op":     ms(p.vdev) / n,
	}, nil
}

// wallClock computes the six wall-clock metrics of a pass. A failed op
// contributes no latency sample and lowers ops_per_s, so it counts as
// missing every one of them.
func (p *phase) wallClock(minBeyond int) (map[string]float64, error) {
	ok := p.succeeded()
	n := float64(len(ok))
	if n == 0 {
		return nil, fmt.Errorf("no op succeeded (%d attempted)", len(p.results))
	}
	total := make([]float64, len(ok))
	ttfm := make([]float64, len(ok))
	for i, r := range ok {
		total[i] = ms(r.total)
		ttfm[i] = ms(r.ttfm)
	}
	out := map[string]float64{
		"ops_per_s":     n / p.wall.Seconds(),
		"cpu_ms_per_op": ms(p.cpu) / n,
	}
	for name, src := range map[string]struct {
		s []float64
		p float64
	}{
		"op_p50_ms":   {total, 50},
		"op_p95_ms":   {total, 95},
		"ttfm_p50_ms": {ttfm, 50},
		"ttfm_p95_ms": {ttfm, 95},
	} {
		v, err := percentile(src.s, src.p, minBeyond)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// toQuery translates a wire request into the relm.SearchQuery the server
// builds from it (internal/server buildQuery, which is not exported). The
// harness needs it for every direct relm.Search: verification replays and
// the per-layer "same op, no HTTP" pass.
func toQuery(req *server.SearchRequest, ctx context.Context) relm.SearchQuery {
	q := relm.SearchQuery{
		Query:       relm.QueryString{Pattern: req.Pattern, Prefix: req.Prefix},
		TopK:        req.TopK,
		TopP:        req.TopP,
		Temperature: req.Temperature,
		RequireEOS:  req.RequireEOS,
		DedupByText: req.Dedup,
		Seed:        req.Seed,
		BeamWidth:   req.BeamWidth,
		BatchExpand: req.Batch,
		Parallelism: req.Parallelism,
		Incremental: req.Incremental,
		Context:     ctx,
	}
	switch req.Strategy {
	case "beam":
		q.Strategy = relm.BeamSearch
	case "random":
		q.Strategy = relm.RandomSampling
	}
	if req.Tokenization == "all" {
		q.Tokenization = relm.AllTokens
	}
	if req.Edits > 0 {
		q.Preprocessors = []relm.Preprocessor{relm.EditDistance{K: req.Edits}}
	}
	return q
}

// directSearch runs one search op through relm.Search on m and drains it the
// way the server's handler does: up to max_matches results, then Close. It
// returns the matches and the nodes the traversal expanded.
func directSearch(m *relm.Model, req *server.SearchRequest) ([]matchRec, int64, error) {
	results, err := relm.Search(m, toQuery(req, context.Background()))
	if err != nil {
		return nil, 0, err
	}
	defer results.Close()
	var rows []matchRec
	for i := 0; i < req.MaxMatches; i++ {
		match, nerr := results.Next()
		if nerr != nil {
			break
		}
		rows = append(rows, matchRec{Text: match.Text, LogProb: match.LogProb})
	}
	return rows, results.Stats().NodesExpanded, results.Err()
}
