package engine

import (
	"container/heap"
	"context"

	"repro/internal/device"
	"repro/internal/model"
)

// ShortestPath returns a stream that yields matching sequences in order of
// decreasing model probability (increasing -log p), the traversal used for
// memorization extraction and inference (§3.3). The search tree is rooted at
// the enumerated prefixes; prefix costs are charged without rule filtering
// (the paper's heuristic: prefixes are prioritized by their original costs
// but never eliminated by decoding rules).
func ShortestPath(dev *device.Device, q *Query) Stream {
	s := &dijkstraStream{dev: dev, q: normalizeQuery(dev, q)}
	s.init()
	return s
}

type dijkstraStream struct {
	dev   *device.Device
	q     *Query
	heap  nodeHeap
	done  error // terminal state: set once the stream has ended for good
	round int64 // expansion rounds so far (trace annotation)
	stats counters
}

// normalizeQuery fills defaults; a missing prefix set means one empty prefix.
// The caller's context is wrapped in a cancelable child so Stream.Close can
// stop the traversal independently of the caller's own cancellation.
func normalizeQuery(dev *device.Device, q *Query) *Query {
	cp := *q
	if len(cp.Prefixes) == 0 {
		cp.Prefixes = [][]model.Token{{}}
	}
	if cp.MaxTokens <= 0 {
		cp.MaxTokens = dev.Model().MaxSeqLen()
	}
	if cp.MaxNodes <= 0 {
		cp.MaxNodes = 1 << 20
	}
	cp.Parallelism = EffectiveParallelism(cp.Parallelism)
	ctx, cancel := context.WithCancel(queryContext(&cp))
	cp.Context = ctx
	cp.cancel = cancel
	return &cp
}

// init roots the search tree: every prefix is scored in one batched device
// round (all (prefix, position) contexts in a single Forward call) rather
// than position-by-position, so broad prefix sets pay one dispatch.
func (s *dijkstraStream) init() {
	heap.Init(&s.heap)
	pdev, pspan := prefixDevice(s.dev, s.q)
	logPs, calls := scoreSequences(pdev, s.q.Prefixes)
	s.q.Trace.End(pspan)
	s.stats.modelCalls.Add(calls)
	for pi, p := range s.q.Prefixes {
		logP := logPs[pi]
		cost := -logP
		if s.q.PrefixZeroCost {
			// The rejected §3.3 design: a flat prior over prefixes. Every
			// prefix root enters the heap at cost 0, so all of them are
			// visited before the first deep expansion — the startup-latency
			// blowup the heuristic avoids.
			cost = 0
		}
		heap.Push(&s.heap, &node{
			path:     rootPath(p),
			state:    s.q.Pattern.Start(),
			cost:     cost,
			prefLogP: logP,
		})
	}
}

// Next pops nodes best-first until a terminal (match) node surfaces.
// Expansion of a popped node generates pattern-edge children under the
// decision rule, plus — when the automaton state accepts — a terminal child
// carrying the match. When RequireEOS is set, the terminal child is charged
// the model's EOS probability (rule-checked), so result order reflects the
// full sequence probability including termination.
//
// Non-terminal nodes are expanded in device batches of up to BatchExpand,
// amortizing dispatch overhead (§3.3). A terminal at the heap top always
// emits before further expansion, so batching only reorders results whose
// costs interleave within a single batch. Rule filtering and child
// generation for a scored batch fan out across the Parallelism worker pool;
// each worker fills its node's slot and the coordinator pushes slots into
// the heap in batch order, so the emitted sequence is identical at any
// worker count (DESIGN.md decision 6).
func (s *dijkstraStream) Next() (*Result, error) {
	if s.done != nil {
		return nil, s.done
	}
	batchSize := EffectiveBatch(s.dev, s.q.BatchExpand)
	for s.heap.Len() > 0 {
		if err := s.q.Context.Err(); err != nil {
			return nil, s.finish(err)
		}
		if s.heap[0].terminal {
			s.stats.emitted.Add(1)
			return heap.Pop(&s.heap).(*node).result(), nil
		}
		expanded := s.stats.nodesExpanded.Load()
		if expanded >= int64(s.q.MaxNodes) {
			return nil, s.finish(ErrExhausted)
		}
		// Gather a batch of non-terminal nodes; stop if a terminal surfaces.
		var batch []*node
		for len(batch) < batchSize && s.heap.Len() > 0 && !s.heap[0].terminal &&
			expanded+int64(len(batch)) < int64(s.q.MaxNodes) {
			batch = append(batch, heap.Pop(&s.heap).(*node))
		}
		if len(batch) == 0 {
			continue
		}
		rdev, rspan := roundDevice(s.dev, s.q, s.round, len(batch))
		s.round++
		lps := scoreFrontier(rdev, s.q, contexts(batch))
		s.stats.modelCalls.Add(int64(len(batch)))
		s.stats.nodesExpanded.Add(int64(len(batch)))
		// Expansion (rule filtering, the canonicality verdict, child
		// construction) is independent per node: fan out, then merge lock-free
		// in order — a node's children, then its terminal.
		m := s.dev.Model()
		children := make([][]*node, len(batch))
		parallelFor(len(batch), s.q.Parallelism, func(i int) {
			cs, term := s.q.expand(m, batch[i], lps[i])
			if term != nil {
				cs = append(cs, term)
			}
			children[i] = cs
		})
		for _, cs := range children {
			for _, c := range cs {
				heap.Push(&s.heap, c)
			}
		}
		s.q.Trace.End(rspan)
	}
	return nil, s.finish(ErrExhausted)
}

// finish records the stream's terminal error and releases its derived
// context, so even streams that are never explicitly closed don't stay
// registered with a long-lived parent once they end.
func (s *dijkstraStream) finish(err error) error {
	s.done = err
	s.q.cancel()
	return err
}

// Close implements Stream: it cancels the traversal context. A concurrent
// Next observes the cancellation at its next expansion round.
func (s *dijkstraStream) Close() error {
	s.q.cancel()
	return nil
}

func (s *dijkstraStream) Stats() Stats { return s.stats.snapshot() }
