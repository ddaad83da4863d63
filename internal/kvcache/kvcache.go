// Package kvcache provides the prefix-state arena for incremental decoding
// (DESIGN.md decision 10): a trie-shaped, ref-counted, byte-budgeted store
// of model.DecodeState values keyed by token context. Engines commit each
// expanded frontier node's state and acquire the parent's state when scoring
// children, so one round of traversal pays one incremental step per node
// instead of a full-prefix forward.
//
// States are pure caches — everything in the arena is recomputable via
// Prefill — so eviction is always safe: a traversal that misses simply
// recomputes. That keeps the design simple under concurrency: handles pin a
// node only for the duration of one scoring round, and the byte budget is
// enforced by LRU eviction of unpinned leaves.
//
// The trie shape matters for accounting. A child transformer state shares
// its prefix K/V rows with the parent by pointer, so each node is charged
// only its exclusive bytes (its state's size minus its parent's). Eviction
// is leaf-only: a node with live children stays resident, because its rows
// are still reachable through them — evicting it would free nothing. When
// the last child goes, the parent becomes a leaf and ages out normally.
//
// Demotion (DESIGN.md decision 14) is the rung between resident and gone: a
// cold full leaf — past the hot window, or the coldest under byte pressure —
// drops its K/V rows and keeps only its token context, a model.CtxState.
// The node stays acquirable; its handle reports NeedsRecompute, and the
// engine promotes it with one Prefill. A demoted node stands alone: demotion
// severs the trie link so the parent can age out independently, and the
// node is charged the token context's size.
package kvcache

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/lru"
	"repro/internal/model"
)

// Config sizes an arena.
type Config struct {
	// BudgetBytes is the resident byte budget (<= 0: DefaultBudget).
	BudgetBytes int64
}

// Arena is a concurrency-safe prefix-state store. The zero value is not
// usable; construct with NewTiered.
type Arena struct {
	mu     sync.Mutex
	budget int64
	// hotWindow caps how many full nodes stay unpinned-resident before the
	// coldest demote regardless of byte pressure (DefaultHotWindow; <= 0
	// means no window, which only tests use).
	hotWindow int

	nodes map[string]*node
	// lruFull holds exactly the evictable full nodes — unpinned leaves — so
	// each demotion or eviction is an O(1) pop from the back. Interior nodes
	// enter when their last child goes (at the back: a parent's last use is
	// at least as old as its children's), pinned nodes when released.
	lruFull lru.List[*node] // front = most recently used
	// lruDemoted holds the unpinned demoted nodes, in demotion/use order.
	// Demoted nodes are always parentless leaves, so every one is evictable.
	lruDemoted lru.List[*node]
	resident   int64
	handles    int // live handles, across all nodes

	hits, misses, commits, evictions int64
	demotions, promotions            int64
	demotedNodes                     int
	demotedBytes                     int64
}

type node struct {
	key    string
	parent *node
	state  model.DecodeState
	bytes  int64 // resident charge: exclusive bytes, or the token context's once demoted
	refs   int   // live handles
	// children counts resident child nodes; always 0 once demoted (demotion
	// is leaf-only and demoted nodes are never linked as parents).
	children int
	demoted  bool
	// el links the node into lruFull or lruDemoted while it is evictable
	// (unlisted while pinned or interior). Embedded rather than allocated so
	// the pin/release cycle every Acquire runs is alloc-free — the hot
	// scoring path allocates only its Handle.
	el lru.Elem[*node]
}

// Handle pins one node: a pinned node cannot be evicted or demoted, so the
// state stays valid across a scoring round. Handles must be released
// promptly (they are round-scoped, not query-scoped); Release is idempotent.
type Handle struct {
	a *Arena
	n *node
}

// DefaultBudget is the arena byte budget when none is configured (64 MiB).
const DefaultBudget = 64 << 20

// DefaultHotWindow is how many unpinned full leaves an arena keeps before
// the coldest demote.
const DefaultHotWindow = 256

// NewTiered creates an arena from cfg. Its two tiers are full states and
// demoted ones, which keep only their token context.
func NewTiered(cfg Config) *Arena {
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = DefaultBudget
	}
	return &Arena{
		budget:    cfg.BudgetBytes,
		hotWindow: DefaultHotWindow,
		nodes:     make(map[string]*node),
	}
}

// Acquire returns a pinned handle to the cached state for ctx, or nil on a
// miss (the caller then recomputes via Prefill and Commits the result). A
// hit on a demoted node reports NeedsRecompute on the handle: the caller
// promotes by Prefilling ctx and calling Promote — or simply uses the
// token-only state as-is, which models score correctly (if slowly) by
// recomputing internally.
func (a *Arena) Acquire(ctx []model.Token) *Handle {
	if f := fault.Hit(fault.KVPromote); f != nil && f.Failure() {
		// A failed promote degrades to a miss: the caller Prefills from
		// scratch, which computes bit-identical state — the arena is a pure
		// cache, so losing a hit costs latency, never correctness.
		a.mu.Lock()
		a.misses++
		a.mu.Unlock()
		return nil
	}
	buf := model.GetKeyBuf()
	defer model.PutKeyBuf(buf)
	*buf = model.AppendKey((*buf)[:0], ctx)
	a.mu.Lock()
	n, ok := a.nodes[string(*buf)]
	if !ok {
		a.misses++
		a.mu.Unlock()
		return nil
	}
	a.hits++
	a.pin(n)
	a.mu.Unlock()
	return &Handle{a: a, n: n}
}

// Commit stores st as the state for ctx and returns a pinned handle to it.
// parent, when non-nil, must be a live handle to the state ctx extends by
// one token; the new node is charged only its exclusive bytes and linked
// into the trie so the parent outlives it — unless the parent node is
// demoted, in which case st shares nothing with it and is charged in full,
// unlinked. If another goroutine committed the same context first, the
// existing node wins and st is discarded (the two are bit-identical by
// construction) — though a full st does promote a demoted incumbent.
func (a *Arena) Commit(parent *Handle, ctx []model.Token, st model.DecodeState) *Handle {
	buf := model.GetKeyBuf()
	defer model.PutKeyBuf(buf)
	*buf = model.AppendKey((*buf)[:0], ctx)
	a.mu.Lock()
	if n, ok := a.nodes[string(*buf)]; ok {
		a.pin(n)
		if n.demoted {
			a.promote(n, st)
		}
		a.mu.Unlock()
		return &Handle{a: a, n: n}
	}
	key := string(*buf) // the only per-insert key allocation
	n := &node{key: key, state: st, bytes: st.SizeBytes(), refs: 1}
	a.handles++
	n.el.Value = n
	if parent != nil && parent.n != nil && !parent.n.demoted {
		n.parent = parent.n
		// Charge only what this node owns. States that can size themselves
		// against the parent exactly (fresh rows + their own pointer arrays)
		// are preferred over the SizeBytes difference, which undercounts the
		// per-node allocations shared-by-pointer states still make.
		if es, ok := st.(model.ExclusiveSizer); ok {
			n.bytes = es.ExclusiveBytes(parent.n.state)
		} else if ps := parent.n.state.SizeBytes(); ps < n.bytes {
			n.bytes -= ps
		}
		// The parent is pinned by the caller's handle, so it cannot be in
		// the eviction list; it re-enters only once it is both released and
		// childless again.
		parent.n.children++
	}
	a.nodes[key] = n
	a.resident += n.bytes
	a.commits++
	a.reclaim()
	a.mu.Unlock()
	return &Handle{a: a, n: n}
}

// State returns the pinned decode state, or nil if the handle was already
// released. For a NeedsRecompute handle this is the token-only state — still
// a correct DecodeState (models recompute foreign states internally), just
// carrying no reusable rows until promoted.
func (h *Handle) State() model.DecodeState {
	if h == nil || h.n == nil {
		return nil
	}
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.n.state
}

// NeedsRecompute reports whether the pinned node is demoted: the caller gets
// identical results fastest by Prefilling the context once and installing
// the result via Promote.
func (h *Handle) NeedsRecompute() bool {
	if h == nil || h.n == nil {
		return false
	}
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.n.demoted
}

// Promote installs a freshly recomputed full state on a demoted pinned node.
// No-op if the node was already promoted (by a racing caller) or the handle
// released.
func (h *Handle) Promote(st model.DecodeState) {
	if h == nil || h.n == nil || st == nil {
		return
	}
	h.a.mu.Lock()
	if h.n.demoted {
		h.a.promote(h.n, st)
	}
	h.a.mu.Unlock()
}

// Release unpins the handle. Safe to call more than once.
func (h *Handle) Release() {
	if h == nil || h.n == nil {
		return
	}
	n := h.n
	h.n = nil
	a := h.a
	a.mu.Lock()
	n.refs--
	a.handles--
	if n.refs == 0 && n.children == 0 {
		// A pinned node is never listed, so n joins its list here.
		if n.demoted {
			a.lruDemoted.PushFront(&n.el)
		} else {
			a.lruFull.PushFront(&n.el)
		}
		a.ageFulls()
		a.reclaim()
	}
	a.mu.Unlock()
}

// pin marks a node in use, removing it from its eviction list. Caller holds
// the lock.
func (a *Arena) pin(n *node) {
	n.refs++
	a.handles++
	n.el.Remove()
}

// promote replaces a demoted node's state with the full st, re-charging the
// node at st's standalone size (demoted nodes are severed from the trie, so
// nothing is shared), then reclaims, since the node just grew. Caller holds
// the lock.
func (a *Arena) promote(n *node, st model.DecodeState) {
	nb := st.SizeBytes()
	a.resident += nb - n.bytes
	a.demotedNodes--
	a.demotedBytes -= n.bytes
	a.promotions++
	n.state = st
	n.bytes = nb
	n.demoted = false
	a.reclaim()
}

// demote drops n's rows and keeps its token context, unless that would not
// shrink the node's charge. Severs the trie link — the demoted node stands
// alone, so its parent may age out independently — and moves n to the
// demoted list. n must be an unpinned full leaf. Caller holds the lock.
func (a *Arena) demote(n *node) bool {
	if n.demoted || n.refs > 0 || n.children > 0 {
		return false
	}
	st := &model.CtxState{Toks: n.state.Context()}
	size := st.SizeBytes()
	if size >= n.bytes {
		return false
	}
	n.el.Remove()
	a.resident += size - n.bytes
	a.demotions++
	a.demotedNodes++
	a.demotedBytes += size
	n.state = st
	n.bytes = size
	n.demoted = true
	if p := n.parent; p != nil {
		n.parent = nil
		p.children--
		if p.children == 0 && p.refs == 0 && !p.el.Listed() {
			a.lruFull.PushBack(&p.el)
		}
	}
	a.lruDemoted.PushFront(&n.el)
	return true
}

// ageFulls demotes the coldest full leaves until they fit the hot window,
// independent of byte pressure. Caller holds the lock.
func (a *Arena) ageFulls() {
	for a.hotWindow > 0 && a.lruFull.Len() > a.hotWindow {
		if !a.demote(a.lruFull.Back().Value) {
			return // the coldest leaf cannot shrink; the rest are newer
		}
	}
}

// reclaim brings the resident size back under budget: demote the coldest
// full leaf when that frees bytes (preferred — the state stays acquirable),
// evict it when it cannot shrink, and evict the coldest demoted nodes once
// no full leaf remains. Each step is O(1); demotion may cascade a parent
// into the full list, but every node demotes at most once and evictions
// only shrink the node set, so the loop terminates. Caller holds the lock.
func (a *Arena) reclaim() {
	for a.resident > a.budget {
		if e := a.lruFull.Back(); e != nil {
			if !a.demote(e.Value) {
				a.evictNode(e.Value)
			}
			continue
		}
		e := a.lruDemoted.Back()
		if e == nil {
			return // everything left is pinned or has live children
		}
		a.evictNode(e.Value)
	}
}

// evictNode drops an unpinned leaf. Evicting a parent's last child pushes
// the parent to the back of the full list (its last use is no newer than
// the child's), so retiring a depth-D chain is D pops, not D list scans.
// Caller holds the lock.
func (a *Arena) evictNode(n *node) {
	n.el.Remove()
	delete(a.nodes, n.key)
	a.resident -= n.bytes
	a.evictions++
	if n.demoted {
		a.demotedNodes--
		a.demotedBytes -= n.bytes
	}
	if p := n.parent; p != nil {
		p.children--
		if p.children == 0 && p.refs == 0 {
			a.lruFull.PushBack(&p.el)
		}
	}
}

// Stats is a snapshot of arena activity. Its JSON and metric tags are the
// names a serving layer publishes it under (/v1/stats, /metrics).
type Stats struct {
	// Hits and Misses count Acquire outcomes; a miss costs the caller one
	// Prefill recompute.
	Hits   int64 `json:"kv_hits" metric:"relm_kv_hits_total,counter,KV-arena prefix-state hits."`
	Misses int64 `json:"kv_misses" metric:"relm_kv_misses_total,counter,KV-arena prefix-state misses."`
	// Commits counts states inserted; Evictions counts states dropped to
	// stay under budget.
	Commits   int64 `json:"-" metric:"-"`
	Evictions int64 `json:"kv_evictions" metric:"relm_kv_evictions_total,counter,KV-arena evictions."`
	// ResidentBytes is the current exclusive-byte total; Budget the limit.
	ResidentBytes int64 `json:"kv_resident_bytes" metric:"relm_kv_resident_bytes,gauge,KV-arena resident bytes."`
	Budget        int64 `json:"-" metric:"-"`
	// Nodes is the current entry count; Handles counts unreleased handles.
	Nodes   int `json:"kv_nodes" metric:"relm_kv_nodes,gauge,KV-arena resident prefix states."`
	Handles int `json:"-" metric:"-"`
	// DemotedNodes/DemotedBytes describe the demoted (token-only)
	// nodes right now; Demotions and Promotions count transitions over the
	// arena's life.
	DemotedNodes int   `json:"kv_demoted_nodes" metric:"relm_kv_demoted_nodes,gauge,KV-arena states demoted to their token context."`
	DemotedBytes int64 `json:"kv_demoted_bytes" metric:"relm_kv_demoted_bytes,gauge,Bytes held by the demoted KV-arena states."`
	Demotions    int64 `json:"kv_demotions" metric:"relm_kv_demotions_total,counter,States demoted to their token context."`
	Promotions   int64 `json:"kv_promotions" metric:"relm_kv_promotions_total,counter,Demoted states promoted back."`
}

// Stats snapshots the counters.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Hits:          a.hits,
		Misses:        a.misses,
		Commits:       a.commits,
		Evictions:     a.evictions,
		ResidentBytes: a.resident,
		Budget:        a.budget,
		Nodes:         len(a.nodes),
		Handles:       a.handles,
		DemotedNodes:  a.demotedNodes,
		DemotedBytes:  a.demotedBytes,
		Demotions:     a.demotions,
		Promotions:    a.promotions,
	}
}
