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
// Tiered compression (DESIGN.md decision 14) adds a middle rung between
// resident and gone. With a tier configured, cold full-precision leaves
// demote in place — the state packs itself via model.Compactor, or falls
// back to its token context alone — instead of evicting, and promote back
// (expand once, or recompute via the caller's Prefill) on the next Acquire.
// A compact node stands alone: demotion severs the trie link so the parent
// can age out independently, and the node is charged its standalone compact
// size. The pyramid this produces — hot leaves full-precision inside the
// HotWindow, cold interior demoted, coldest compacts evicted — holds several
// times more reusable prefixes per byte than full-precision LRU alone.
package kvcache

import (
	"sync"

	"repro/internal/fault"
	"repro/internal/lru"
	"repro/internal/model"
)

// Config sizes and shapes an arena.
type Config struct {
	// BudgetBytes is the resident byte budget (<= 0: DefaultBudget).
	BudgetBytes int64
	// Compression selects the demotion tier; CompressNone disables demotion
	// entirely (evict-only, the pre-tiering behavior).
	Compression model.CompressTier
	// HotWindow caps how many full-precision nodes stay resident before the
	// coldest demote regardless of byte pressure (the pyramid's full-tier
	// tip). 0 means DefaultHotWindow when compression is on; negative means
	// no window — nodes demote only under byte pressure.
	HotWindow int
}

// Arena is a concurrency-safe prefix-state store. The zero value is not
// usable; construct with New or NewTiered.
type Arena struct {
	mu  sync.Mutex
	cfg Config

	nodes map[string]*node
	// lruFull holds exactly the evictable full-tier nodes — unpinned leaves
	// — so each demotion or eviction is an O(1) pop from the back. Interior
	// nodes enter when their last child goes (at the back: a parent's last
	// use is at least as old as its children's), pinned nodes when released.
	lruFull lru.List[*node] // front = most recently used
	// lruCompact holds the unpinned compact nodes, in demotion/use order.
	// Compact nodes are always parentless leaves, so every one is evictable.
	lruCompact lru.List[*node]
	resident   int64
	handles    int // live handles, across all nodes

	hits, misses, commits, evictions int64
	demotions, promotions            int64
	compressedNodes                  int
	compressedBytes                  int64
}

type node struct {
	key    string
	parent *node
	state  model.DecodeState
	bytes  int64 // resident charge: exclusive bytes, or standalone size once compact
	refs   int   // live handles
	// children counts resident child nodes; always 0 once compact (demotion
	// is leaf-only and compact nodes are never linked as parents).
	children int
	compact  bool
	// el links the node into lruFull or lruCompact while it is evictable
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

// DefaultHotWindow is the full-precision node cap when compression is on
// and Config.HotWindow is zero.
const DefaultHotWindow = 256

// New creates an uncompressed arena with the given byte budget
// (<= 0: DefaultBudget).
func New(budget int64) *Arena {
	return NewTiered(Config{BudgetBytes: budget})
}

// NewTiered creates an arena from cfg.
func NewTiered(cfg Config) *Arena {
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = DefaultBudget
	}
	if cfg.Compression != model.CompressNone && cfg.HotWindow == 0 {
		cfg.HotWindow = DefaultHotWindow
	}
	return &Arena{
		cfg:   cfg,
		nodes: make(map[string]*node),
	}
}

// Acquire returns a pinned handle to the cached state for ctx, or nil on a
// miss (the caller then recomputes via Prefill and Commits the result). A
// hit on a demoted node promotes it: exactly-expandable compacts expand in
// place here; the rest stay compact and report NeedsRecompute on the handle,
// and the caller promotes by Prefilling ctx and calling Promote — or simply
// uses the compact state as-is, which models score correctly (if slowly) by
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
	if n.compact {
		if cs, ok := n.state.(model.CompactState); ok {
			if full, exact := cs.Expand(); exact {
				a.swapState(n, full)
				a.reclaim()
			}
		}
	}
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
		if n.compact {
			a.swapState(n, st)
			a.reclaim()
		}
		a.mu.Unlock()
		return &Handle{a: a, n: n}
	}
	key := string(*buf) // the only per-insert key allocation
	n := &node{key: key, state: st, bytes: st.SizeBytes(), refs: 1}
	a.handles++
	n.el.Value = n
	if parent != nil && parent.n != nil && !parent.n.compact {
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
// released. For a NeedsRecompute handle this is the compact state — still a
// correct DecodeState (models recompute foreign states internally), just
// carrying no reusable rows until promoted.
func (h *Handle) State() model.DecodeState {
	if h == nil || h.n == nil {
		return nil
	}
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.n.state
}

// NeedsRecompute reports whether the pinned node is demoted with no exact
// expansion: the caller gets identical results fastest by Prefilling the
// context once and installing the result via Promote.
func (h *Handle) NeedsRecompute() bool {
	if h == nil || h.n == nil {
		return false
	}
	h.a.mu.Lock()
	defer h.a.mu.Unlock()
	return h.n.compact
}

// Promote installs a freshly recomputed full-precision state on a demoted
// pinned node. No-op if the node was already promoted (by a racing caller)
// or the handle released.
func (h *Handle) Promote(st model.DecodeState) {
	if h == nil || h.n == nil || st == nil {
		return
	}
	h.a.mu.Lock()
	if h.n.compact {
		h.a.swapState(h.n, st)
		h.a.reclaim()
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
		// A pinned node is never listed, so n joins its tier's list here.
		if n.compact {
			a.lruCompact.PushFront(&n.el)
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

// swapState replaces a demoted node's state with the full-precision st,
// re-charging the node at st's standalone size (compact nodes are severed
// from the trie, so nothing is shared). Caller holds the lock; the caller
// also reclaims, since the node just grew.
func (a *Arena) swapState(n *node, st model.DecodeState) {
	nb := st.SizeBytes()
	a.resident += nb - n.bytes
	a.compressedNodes--
	a.compressedBytes -= n.bytes
	a.promotions++
	n.state = st
	n.bytes = nb
	n.compact = false
}

// demote packs n in place: the configured tier's Compact when it shrinks the
// resident charge, else the token-only form (promotion recomputes), else
// decline. Severs the trie link — the compact node stands alone, so its
// parent may age out independently — and moves n to the compact list. n must
// be an unpinned full-tier leaf. Caller holds the lock.
func (a *Arena) demote(n *node) bool {
	if a.cfg.Compression == model.CompressNone || n.compact || n.refs > 0 || n.children > 0 {
		return false
	}
	var cs model.CompactState
	if cp, ok := n.state.(model.Compactor); ok {
		if c, ok := cp.Compact(a.cfg.Compression); ok && c.SizeBytes() < n.bytes {
			cs = c
		}
	}
	if cs == nil {
		ctx := n.state.Context()
		tc := &model.TokenCompact{Toks: append(make([]model.Token, 0, len(ctx)), ctx...), T: a.cfg.Compression}
		if tc.SizeBytes() >= n.bytes {
			return false
		}
		cs = tc
	}
	n.el.Remove()
	a.resident += cs.SizeBytes() - n.bytes
	a.demotions++
	a.compressedNodes++
	a.compressedBytes += cs.SizeBytes()
	n.state = cs
	n.bytes = cs.SizeBytes()
	n.compact = true
	if p := n.parent; p != nil {
		n.parent = nil
		p.children--
		if p.children == 0 && p.refs == 0 && !p.el.Listed() {
			a.lruFull.PushBack(&p.el)
		}
	}
	a.lruCompact.PushFront(&n.el)
	return true
}

// ageFulls demotes the coldest full-precision leaves until the full tier
// fits the hot window — the pyramid's age-based rung, independent of byte
// pressure. Caller holds the lock.
func (a *Arena) ageFulls() {
	if a.cfg.Compression == model.CompressNone || a.cfg.HotWindow <= 0 {
		return
	}
	for a.lruFull.Len() > a.cfg.HotWindow {
		if !a.demote(a.lruFull.Back().Value) {
			return // the coldest leaf cannot shrink; the rest are newer
		}
	}
}

// reclaim brings the resident size back under budget: demote the coldest
// full leaf when that frees bytes (preferred — the state stays acquirable),
// evict it when it cannot shrink, and evict the coldest compact nodes once
// no full leaf remains. Each step is O(1); demotion may cascade a parent
// into the full list, but every node demotes at most once and evictions
// only shrink the node set, so the loop terminates. Caller holds the lock.
func (a *Arena) reclaim() {
	for a.resident > a.cfg.BudgetBytes {
		if a.cfg.Compression != model.CompressNone {
			if e := a.lruFull.Back(); e != nil {
				if !a.demote(e.Value) {
					a.evictNode(e.Value)
				}
				continue
			}
			if e := a.lruCompact.Back(); e != nil {
				a.evictNode(e.Value)
				continue
			}
			return // everything left is pinned or has live children
		}
		e := a.lruFull.Back()
		if e == nil {
			return
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
	if n.compact {
		a.compressedNodes--
		a.compressedBytes -= n.bytes
	}
	if p := n.parent; p != nil {
		p.children--
		if p.children == 0 && p.refs == 0 {
			a.lruFull.PushBack(&p.el)
		}
	}
}

// Stats is a snapshot of arena activity.
type Stats struct {
	// Hits and Misses count Acquire outcomes; a miss costs the caller one
	// Prefill recompute.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Commits counts states inserted; Evictions counts states dropped to
	// stay under budget.
	Commits   int64 `json:"commits"`
	Evictions int64 `json:"evictions"`
	// ResidentBytes is the current exclusive-byte total; Budget the limit.
	ResidentBytes int64 `json:"resident_bytes"`
	Budget        int64 `json:"budget_bytes"`
	// Nodes is the current entry count; Handles counts unreleased handles.
	Nodes   int `json:"nodes"`
	Handles int `json:"handles"`
	// CompressedNodes/CompressedBytes describe the demoted tier right now;
	// Demotions and Promotions count tier transitions over the arena's life.
	CompressedNodes int   `json:"compressed_nodes"`
	CompressedBytes int64 `json:"compressed_bytes"`
	Demotions       int64 `json:"demotions"`
	Promotions      int64 `json:"promotions"`
}

// Stats snapshots the counters.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{
		Hits:            a.hits,
		Misses:          a.misses,
		Commits:         a.commits,
		Evictions:       a.evictions,
		ResidentBytes:   a.resident,
		Budget:          a.cfg.BudgetBytes,
		Nodes:           len(a.nodes),
		Handles:         a.handles,
		CompressedNodes: a.compressedNodes,
		CompressedBytes: a.compressedBytes,
		Demotions:       a.demotions,
		Promotions:      a.promotions,
	}
}
