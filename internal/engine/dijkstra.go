package engine

import (
	"container/heap"
	"context"
	"slices"

	"repro/internal/automaton"
	"repro/internal/decoding"
	"repro/internal/device"
	"repro/internal/model"
	"repro/internal/trace"
)

// ShortestPath returns a stream that yields matching sequences in order of
// decreasing model probability (increasing -log p), the traversal used for
// memorization extraction and inference (§3.3). The search tree is rooted at
// the enumerated prefixes; prefix costs are charged without rule filtering
// (the paper's heuristic: prefixes are prioritized by their original costs
// but never eliminated by decoding rules).
func ShortestPath(dev *device.Device, q *Query) Stream {
	s := &dijkstraStream{stream: stream{q: normalizeQuery(dev, q), dev: dev}}
	s.init()
	return s
}

type dijkstraStream struct {
	stream
	frontier frontier
	seq      int64 // discovery order of the next node popped
	round    int64 // rounds so far (trace annotation)

	// The open round: its device view, nil between rounds, and its span.
	rdev  *device.Device
	rspan trace.SpanID

	// Scratch: a gather's popped nodes, a resolution's cursors, the
	// contexts of either, and a resolution's rows. A popped node is needed
	// only until its cursor has copied it.
	batch   []node
	pending []*cursor
	ctxs    [][]model.Token
	rows    [][]float64
}

// cursor is a popped node on the frontier with the siblings it has not
// yielded yet. The frontier holds one cursor per popped node (and per prefix
// root), ordered by its least sibling: a pop spawns that sibling and re-files
// the cursor under the next one, so a child is built only when it is popped.
// A cursor is filed *unscored* — context built, no row, no siblings — and is
// scored only when it reaches the top of the frontier (settle). A cursor is
// popped about once, so it holds only its node's least window siblings,
// inline, and the node's row (shared, read-only) if expand dropped others;
// should the window run dry, it builds those once.
type cursor struct {
	ctx            []model.Token // the node's own context
	cost, prefLogP float64
	seq            int64 // the node's discovery order
	state, patLen  int32
	sibs           siblings  // a heap: the window's unpopped part, or the rest
	lp             []float64 // the node's row, while the rest is unbuilt
	win            [window]sibling
}

// window is how many siblings a cursor holds before it needs its row again.
// Shortest path pops about one sibling per cursor (0.3 % of those built, on
// the audit suite). With two, 0.1 to 20 % of the ledger workloads' cursors
// rebuild (a support and an expand, no model call); four would halve that
// but grow the cursor past what a narrow node's siblings used to cost.
const window = 2

// expand is Query.expand on c's node scored lp.
func (c *cursor) expand(q *Query, lp []float64, dst siblings, bounded bool) (siblings, bool) {
	return q.expand(automaton.StateID(c.state), c.ctx[len(c.ctx)-int(c.patLen):], c.cost, lp, decoding.SupportOf(q.Rule, lp), dst, bounded)
}

// rebuild replaces a spent window with the siblings expand dropped from it:
// the set built again from the same row, after last, the sibling popped last.
func (c *cursor) rebuild(q *Query, last sibling) {
	all, _ := c.expand(q, c.lp, nil, false)
	rest := slices.DeleteFunc(all, func(s sibling) bool { return !last.before(s) })
	rest.heapify()
	c.sibs, c.lp = rest, nil
}

// spawn builds the node sibling s of c's node stands for.
func (c *cursor) spawn(s sibling) node {
	return (&node{path: path{ctx: c.ctx}, state: automaton.StateID(c.state), patLen: int(c.patLen), prefLogP: c.prefLogP}).spawn(s, c.seq)
}

// unscored reports whether c waits for its row. A scored cursor without
// siblings leaves the frontier, so on it no siblings means unscored.
func (c *cursor) unscored() bool { return len(c.sibs) == 0 }

// next is c's frontier key: its least sibling's, or, unscored, (cost, seq, 0),
// a lower bound on every sibling it will have — a row's entries are
// log-probabilities, never above 0, so no sibling costs less than its node,
// and every sibling ranks at or after 0.
func (c *cursor) next() order {
	if c.unscored() {
		return order{c.cost, c.seq, 0}
	}
	s := c.sibs[0]
	return order{s.cost, c.seq, s.rank()}
}

// frontier is shortest path's heap of cursors.
type frontier []*cursor

func (h frontier) Len() int           { return len(h) }
func (h frontier) Less(i, j int) bool { return h[i].next().compare(h[j].next()) < 0 }
func (h frontier) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *frontier) Push(x any)        { *h = append(*h, x.(*cursor)) }
func (h *frontier) Pop() any {
	old := *h
	c := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return c
}

// matchNext reports whether the least entry, scored, is a match, ready to
// emit.
func (h frontier) matchNext() bool { return h[0].sibs[0].sym == matchSym }

// pop spawns the least entry, scored, and advances its cursor, which rebuilds a spent
// window if it holds its row; a spent cursor leaves the heap and lets go of
// its node's context.
func (h *frontier) pop(q *Query) node {
	c := (*h)[0]
	s := c.sibs.pop()
	n := c.spawn(s)
	if len(c.sibs) == 0 && c.lp != nil {
		c.rebuild(q, s)
	}
	if len(c.sibs) > 0 {
		heap.Fix(h, 0)
	} else {
		heap.Pop(h)
		*c = cursor{}
	}
	return n
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
	cp.eos = dev.Model().EOS()
	ctx, cancel := context.WithCancel(queryContext(&cp))
	cp.Context = ctx
	cp.cancel = cancel
	return &cp
}

// init roots the search tree: every prefix is scored in one batched device
// round (all (prefix, position) contexts in a single Forward call) rather
// than position-by-position, so broad prefix sets pay one dispatch. Each root
// is a cursor whose one sibling is the root itself.
func (s *dijkstraStream) init() {
	logPs, err := s.scorePrefixes()
	if err != nil {
		return
	}
	roots := make([]cursor, len(s.q.Prefixes))
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
		c := &roots[pi]
		*c = cursor{ctx: rootPath(p).ctx, prefLogP: logP, seq: int64(pi), state: int32(s.q.Pattern.Start())}
		c.win[0] = sibling{cost: cost, sym: rootSym}
		c.sibs = c.win[:1]
		s.frontier = append(s.frontier, c)
	}
	heap.Init(&s.frontier)
	s.seq = int64(len(roots))
}

// Next pops entries best-first until a match surfaces. Expanding a popped
// node gives its siblings: the pattern-edge children the decision rule keeps,
// plus — when the automaton state accepts — the match. When RequireEOS is
// set, the match is charged the model's EOS probability (rule-checked), so
// result order reflects the full sequence probability including termination.
// Entries come off the frontier in the frontier order (DESIGN.md decision 6).
//
// A round pops up to BatchExpand non-match entries, stopping when a match
// surfaces, and files each popped node as an unscored cursor under its own
// cost. Nothing is scored until it is needed: before the top is read, the
// unscored cursors there are resolved, several per device dispatch, so a
// match emits as soon as every cursor that could precede it has a row, and a
// node whose turn never comes costs no row. Since every decision reads a
// scored top whose key is at or before every unscored bound, the stream is
// the one an eager expansion of each round emits, at any batch size; and
// since costs never decrease along a path, batching reorders only matches of
// equal cost.
func (s *dijkstraStream) Next() (*Result, error) {
	n, err := s.next()
	if err != nil {
		return nil, err
	}
	return n.result(), nil
}

// next returns the next match node.
func (s *dijkstraStream) next() (node, error) {
	if s.end != nil {
		return node{}, s.end
	}
	batchSize := EffectiveBatch(s.dev, s.q.BatchExpand)
	defer s.endRound()
	for {
		if err := s.q.Context.Err(); err != nil {
			return node{}, s.finish(err)
		}
		if err := s.settle(batchSize); err != nil {
			return node{}, s.finish(err)
		}
		if len(s.frontier) == 0 {
			return node{}, s.finish(ErrExhausted)
		}
		if s.frontier.matchNext() {
			s.stats.emitted.Add(1)
			return s.frontier.pop(s.q), nil
		}
		expanded := s.stats.nodesExpanded.Load()
		if expanded >= int64(s.q.MaxNodes) {
			return node{}, s.finish(ErrExhausted)
		}
		// Gather a round of non-match entries; stop if a match surfaces.
		s.openRound()
		batch := s.batch[:0]
		for len(batch) < batchSize && expanded+int64(len(batch)) < int64(s.q.MaxNodes) {
			if err := s.settle(batchSize); err != nil {
				return node{}, s.finish(err)
			}
			if len(s.frontier) == 0 || s.frontier.matchNext() {
				break
			}
			batch = append(batch, s.frontier.pop(s.q))
		}
		s.batch = batch
		s.file(batch)
		s.endRound()
	}
}

// file numbers a round's popped nodes in pop order and files each as an
// unscored cursor, their contexts built in one block and the cursors in one
// array.
func (s *dijkstraStream) file(batch []node) {
	s.ctxs = appendContexts(s.ctxs[:0], batch)
	clear(s.ctxs)
	s.stats.nodesExpanded.Add(int64(len(batch)))
	s.q.Trace.AddCount(s.rspan, "nodes", len(batch))
	cursors := make([]cursor, len(batch))
	for i := range batch {
		n, c := &batch[i], &cursors[i]
		*c = cursor{ctx: n.ctx, cost: n.cost, prefLogP: n.prefLogP, seq: s.seq + int64(i), state: int32(n.state), patLen: int32(n.patLen)}
		heap.Push(&s.frontier, c)
	}
	s.seq += int64(len(batch))
	clear(batch)
}

// settle resolves the unscored cursors at the top of the frontier until the
// top is scored or the frontier is empty. A resolution pops the consecutive
// unscored cursors at the top, in frontier order, scores them in one device
// round and re-files each with its siblings, or drops it if it has none.
// Every call starts afresh: its first resolution is sized by whether the
// top's row must be dispatched (firstResolution), which a probe of the
// logit cache tells, and each later one in the same call takes twice as many
// as the last, up to batchSize.
func (s *dijkstraStream) settle(batchSize int) error {
	size := 0
	for len(s.frontier) > 0 && s.frontier[0].unscored() {
		top := heap.Pop(&s.frontier).(*cursor)
		var row []float64
		if size == 0 {
			resident, dispatched := firstResolution(s.dev, batchSize)
			size = dispatched
			if resident != dispatched {
				if row = s.probe(top); row != nil {
					size = resident
				}
			}
		} else {
			size = min(2*size, batchSize)
		}
		cs := append(s.pending[:0], top)
		for len(cs) < size && len(s.frontier) > 0 && s.frontier[0].unscored() {
			cs = append(cs, heap.Pop(&s.frontier).(*cursor))
		}
		s.pending = cs
		err := s.score(cs, row)
		for _, c := range cs {
			if len(c.sibs) > 0 {
				heap.Push(&s.frontier, c)
			} else {
				*c = cursor{}
			}
		}
		clear(cs)
		if err != nil {
			return err
		}
	}
	return nil
}

// firstResolution sizes a settle's first resolution from the device's
// latency model and batch limit, for a top whose row the logit cache holds
// and for one whose row must be dispatched; neither exceeds batchSize.
//
// With r₀ = ⌈Dispatch/PerSequence⌉, the rows one dispatch's fixed price
// buys: a resident top costs no dispatch, so every row taken beside it is
// speculation, and it takes 2·r₀ (8 under DefaultLatency). A top that must
// be dispatched pays that price anyway and the rows below it ride along at
// PerSequence each, so it takes half a device batch (32 of 64), leaving the
// other half for other queries' rows in a fused dispatch, and never fewer
// than a resident top.
func firstResolution(dev *device.Device, batchSize int) (resident, dispatched int) {
	lat := dev.Latency()
	if lat.PerSequence <= 0 {
		return batchSize, batchSize
	}
	r0 := max(1, int((lat.Dispatch+lat.PerSequence-1)/lat.PerSequence))
	resident = min(2*r0, batchSize)
	return resident, min(max(resident, (dev.MaxBatch()+1)/2), batchSize)
}

// probe returns the top cursor's row when the logit cache holds it, or nil
// when it must be dispatched. The row found is the one its resolution uses,
// so the cache is asked for it once.
func (s *dijkstraStream) probe(top *cursor) []float64 {
	s.ctxs = append(s.ctxs[:0], model.ClampWindow(s.dev.Model(), top.ctx))
	s.rows = append(s.rows[:0], nil)
	s.openRound().Resident(s.ctxs, s.rows)
	row := s.rows[0]
	s.rows[0], s.ctxs[0] = nil, nil
	return row
}

// score scores cs in one device round under the open round and fills each
// cursor's siblings, or returns the device's error. top, when not nil, is
// cs[0]'s row, found by the settle's probe; only the rest are asked for.
func (s *dijkstraStream) score(cs []*cursor, top []float64) error {
	rows := s.rows[:0]
	if top != nil {
		rows = append(rows, top)
	}
	ctxs := s.ctxs[:0]
	for _, c := range cs[len(rows):] {
		ctxs = append(ctxs, c.ctx)
	}
	s.ctxs = ctxs
	defer clear(ctxs)
	if len(ctxs) > 0 {
		lps, err := scoreFrontier(s.openRound(), s.q, ctxs)
		if err != nil {
			clear(rows)
			return err
		}
		rows = append(rows, lps...)
	}
	s.rows = rows
	defer clear(rows)
	s.stats.modelCalls.Add(int64(len(cs)))
	s.q.Trace.AddCount(s.rspan, "rows", len(cs))
	for i, c := range cs {
		var dropped bool
		if c.sibs, dropped = c.expand(s.q, rows[i], c.win[:0], true); dropped {
			c.lp = rows[i]
		}
	}
	return nil
}

// openRound opens a round unless one is open and returns the device view its
// dispatches record under. A round is one pass of Next's loop: the
// resolutions before the top is read, and the gather with its own.
func (s *dijkstraStream) openRound() *device.Device {
	if s.rdev == nil {
		s.rdev, s.rspan = roundDevice(s.dev, s.q, s.round, 0)
		s.round++
	}
	return s.rdev
}

// endRound closes the open round, if any.
func (s *dijkstraStream) endRound() {
	if s.rdev != nil {
		s.q.Trace.End(s.rspan)
		s.rdev = nil
	}
}
