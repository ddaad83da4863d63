// Package automaton implements finite-state automata over integer symbol
// alphabets, together with the algebraic operations ReLM relies on:
// Thompson-style NFA construction, subset determinization, Hopcroft
// minimization, product intersection, complement, difference,
// concatenation, language enumeration, exact walk counting, and uniform path
// sampling. An NFA is built edge by edge; a DFA is built once, through a
// Builder, and only read afterwards.
//
// The same machinery is used at two alphabets: bytes (0..255) for the
// "Natural Language Automaton" compiled from a regex, and LLM token IDs for
// the "LLM Automaton" produced by the graph compiler.
package automaton

import (
	"fmt"
	"math/bits"
	"slices"
)

// Symbol is a transition label. For character automata it is a byte value in
// [0,256); for token automata it is a token ID. Epsilon is reserved.
type Symbol = int

// Epsilon labels NFA transitions that consume no input.
const Epsilon Symbol = -1

// StateID indexes a state within an automaton.
type StateID = int

// Edge is a labeled transition to a destination state.
type Edge struct {
	Sym Symbol
	To  StateID
}

// NFA is a nondeterministic finite automaton with epsilon transitions.
// States are dense integers [0, NumStates). Transitions are kept as one flat
// list in insertion order — building an NFA costs a few slice growths, not
// an edge list per state — and Determinize indexes them by source.
type NFA struct {
	from, sym, to []int32
	start         StateID
	accept        []bool
}

// NewNFA returns an empty NFA with no states. Callers add states and edges,
// then set the start state.
func NewNFA() *NFA {
	return &NFA{}
}

// AddState appends a fresh state and returns its ID.
func (n *NFA) AddState(accepting bool) StateID {
	n.accept = append(n.accept, accepting)
	return len(n.accept) - 1
}

// AddEdge inserts a transition. Sym may be Epsilon.
func (n *NFA) AddEdge(from StateID, sym Symbol, to StateID) {
	n.from = append(n.from, int32(from))
	n.sym = append(n.sym, int32(sym))
	n.to = append(n.to, int32(to))
}

// SetStart designates the initial state.
func (n *NFA) SetStart(s StateID) { n.start = s }

// Start returns the initial state.
func (n *NFA) Start() StateID { return n.start }

// NumStates reports the number of states.
func (n *NFA) NumStates() int { return len(n.accept) }

// Accepting reports whether state s is accepting.
func (n *NFA) Accepting(s StateID) bool { return n.accept[s] }

// SetAccepting marks or unmarks s as accepting.
func (n *NFA) SetAccepting(s StateID, v bool) { n.accept[s] = v }

// DFA is a deterministic finite automaton, immutable once built. Other
// packages make one only through a Builder, and so do Determinize, Minimize,
// Trim, Intersect and Complete; Complement reuses a completed DFA's edges.
// The edges lie in one flat array, state by state, each state's run sorted
// by symbol and reached through a capped view, so Edges is an
// allocation-free slice and Step a binary search over one contiguous range.
// No method writes to a DFA, so any number of goroutines may traverse one
// concurrently, and a compiled plan may share it across queries.
type DFA struct {
	flat   []Edge   // every state's edges back to back, in state order
	edges  [][]Edge // edges[s] is state s's run of flat, capped, sorted by Sym
	start  StateID
	accept []bool
	// minimal records that Minimize produced this automaton: Minimize then
	// returns the receiver. It is a fact fixed at build, since nothing can
	// change a DFA afterwards.
	minimal bool
}

// Frozen is DFA, and Freeze returns its receiver: the performance ledger
// (bench/relmperf) still times a freeze step under these names. Both are kept
// only until the ledger's own change drops that step (ROADMAP 1(g)); new code
// uses *DFA.
type Frozen = DFA

// Freeze returns d. See Frozen.
func (d *DFA) Freeze() *Frozen { return d }

// Start returns the initial state.
func (d *DFA) Start() StateID { return d.start }

// NumStates reports the number of states.
func (d *DFA) NumStates() int { return len(d.edges) }

// Accepting reports whether state s accepts.
func (d *DFA) Accepting(s StateID) bool { return d.accept[s] }

// Step follows the transition labeled sym out of state s, by binary search
// over the state's edges. ok is false when no such transition exists.
func (d *DFA) Step(s StateID, sym Symbol) (to StateID, ok bool) {
	es := d.edges[s]
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].Sym < sym {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(es) && es[lo].Sym == sym {
		return es[lo].To, true
	}
	return 0, false
}

// Edges returns the outgoing edges of s, sorted by symbol. The slice is owned
// by the DFA and must not be mutated.
func (d *DFA) Edges(s StateID) []Edge { return d.edges[s] }

// NumEdges reports the total number of transitions.
func (d *DFA) NumEdges() int { return len(d.flat) }

// MatchBytes reports whether the DFA (over the byte alphabet) accepts s.
func (d *DFA) MatchBytes(s []byte) bool {
	st := d.start
	for _, b := range s {
		next, ok := d.Step(st, int(b))
		if !ok {
			return false
		}
		st = next
	}
	return d.accept[st]
}

// MatchString reports whether the DFA accepts the bytes of s.
func (d *DFA) MatchString(s string) bool { return d.MatchBytes([]byte(s)) }

// MatchSymbols reports whether the DFA accepts the symbol sequence seq.
func (d *DFA) MatchSymbols(seq []Symbol) bool {
	st := d.start
	for _, sym := range seq {
		next, ok := d.Step(st, sym)
		if !ok {
			return false
		}
		st = next
	}
	return d.accept[st]
}

// maxSymbol returns the largest symbol on any edge, -1 when there is none.
func (d *DFA) maxSymbol() Symbol {
	top := -1
	for _, es := range d.edges {
		if n := len(es); n > 0 && es[n-1].Sym > top {
			top = es[n-1].Sym
		}
	}
	return top
}

// Alphabet returns the sorted set of symbols appearing on any edge, in a
// fresh slice: one pass over the edges per call.
func (d *DFA) Alphabet() []Symbol {
	used := make([]bool, d.maxSymbol()+1)
	n := 0
	for _, e := range d.flat {
		if !used[e.Sym] {
			used[e.Sym] = true
			n++
		}
	}
	out := make([]Symbol, 0, n)
	for sym, u := range used {
		if u {
			out = append(out, sym)
		}
	}
	return out
}

// Builder assembles a DFA whose edge lists arrive already sorted: states are
// finished in ID order, each one's edges added in ascending symbol order, and
// all lists share one backing array. It is the only way other packages have
// to make a DFA.
type Builder struct {
	edges  []Edge
	off    []int // off[s] is where state s's edges start; the last entry opens the state being built
	accept []bool
}

// NewBuilder returns a builder with room for the given numbers of states and
// edges (hints, not limits).
func NewBuilder(states, edges int) *Builder {
	return &Builder{
		edges:  make([]Edge, 0, edges),
		off:    make([]int, 1, states+1),
		accept: make([]bool, 0, states),
	}
}

// Edge adds a transition out of the state being built. Symbols must strictly
// ascend within a state — that is both the sort order and determinism — and
// anything else panics.
func (b *Builder) Edge(sym Symbol, to StateID) {
	if sym == Epsilon {
		panic("automaton: epsilon edge in DFA")
	}
	if n := len(b.edges); n > b.off[len(b.off)-1] && b.edges[n-1].Sym >= sym {
		panic(fmt.Sprintf("automaton: edge on %d after %d in state %d", sym, b.edges[n-1].Sym, len(b.accept)))
	}
	b.edges = append(b.edges, Edge{Sym: sym, To: to})
}

// EndState finishes the state being built and opens the next one.
func (b *Builder) EndState(accepting bool) {
	b.off = append(b.off, len(b.edges))
	b.accept = append(b.accept, accepting)
}

// Build returns the DFA of the finished states, which keeps the builder's
// edge array: the builder must not be used afterwards, and one that is not
// sized exactly pins its spare room for the DFA's lifetime.
func (b *Builder) Build(start StateID) *DFA {
	d := &DFA{flat: b.edges, edges: make([][]Edge, len(b.accept)), start: start, accept: b.accept}
	for s := range d.edges {
		lo, hi := b.off[s], b.off[s+1]
		d.edges[s] = b.edges[lo:hi:hi]
	}
	return d
}

// bucket is a stable counting sort of the indexes of keys, whose values lie
// in [0, n): the indexes holding key k are order[first[k]:first[k+1]].
func bucket(keys []int32, n int) (first, order []int32) {
	first = make([]int32, n+1)
	for _, k := range keys {
		first[k]++
	}
	for k := 0; k < n; k++ {
		first[k+1] += first[k]
	}
	// first[k] is now the end of k's range; filling backwards walks it down to
	// the start.
	order = make([]int32, len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		first[keys[i]]--
		order[first[keys[i]]] = int32(i)
	}
	return first, order
}

// Subsets numbers the sets a subset construction discovers, in order of
// discovery. The sets are kept back to back in one arena and interned by open
// addressing over it, so a new set costs no key of its own. A table lives for
// one construction and is not pooled: the allocations of a compile must be
// the same from run to run.
type Subsets struct {
	arena []int32 // members of every interned set, back to back
	off   []int32 // set i is arena[off[i]:off[i+1]]
	// slots is a linear-probing table over the sets: a slot holds a set's
	// number + 1, 0 when empty. Its length is a power of two, at least twice
	// the number of sets.
	slots []int32
}

// NewSubsets returns an empty table sized for sets over the given number of
// elements (a hint, not a limit).
func NewSubsets(elements int) *Subsets {
	return &Subsets{off: []int32{0}, slots: make([]int32, max(16, 2<<bits.Len(uint(elements))))}
}

// Len reports how many sets are numbered.
func (t *Subsets) Len() int { return len(t.off) - 1 }

// Set returns the members of set id. The slice is the table's and must not be
// mutated; it stays valid after later Interns.
func (t *Subsets) Set(id StateID) []int32 { return t.arena[t.off[id]:t.off[id+1]] }

// Intern returns the number of set, which must be sorted, numbering it if it
// is new. A probe compares set with the arena spans of the sets it meets, so
// only a new set writes anything: its members, its offset and its slot. The
// table keeps no reference to set.
func (t *Subsets) Intern(set []int32) StateID {
	mask := len(t.slots) - 1
	i := subsetHash(set) & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if id := int(t.slots[i] - 1); slices.Equal(t.Set(id), set) {
			return id
		}
	}
	id := t.Len()
	t.arena = append(t.arena, set...)
	t.off = append(t.off, int32(len(t.arena)))
	t.slots[i] = int32(id + 1)
	if 2*(id+1) > len(t.slots) {
		t.slots = make([]int32, 2*len(t.slots))
		for s := range id + 1 {
			j := subsetHash(t.Set(s)) & (len(t.slots) - 1)
			for t.slots[j] != 0 {
				j = (j + 1) & (len(t.slots) - 1)
			}
			t.slots[j] = int32(s + 1)
		}
	}
	return id
}

// subsetHash mixes the members of a sorted subset into a slot index (FNV-1a
// over the members, then a multiplicative finish for the low bits).
func subsetHash(set []int32) int {
	h := uint64(14695981039346656037)
	for _, s := range set {
		h = (h ^ uint64(uint32(s))) * 1099511628211
	}
	return int((h ^ h>>29) * 0xbf58476d1ce4e5b9 >> 32)
}

// determinizer is the scratch of one Determinize call.
type determinizer struct {
	n *NFA
	// The transitions of state s, by index into n's lists: epsilon ones are
	// order[first[2s]:first[2s+1]], the rest order[first[2s+1]:first[2s+2]].
	first, order []int32
	// live marks states that accept or have a symbol transition. The others
	// are left out of every subset: they cannot affect acceptance or future
	// moves, and keeping them would make two behaviourally identical subsets
	// compare unequal.
	live []bool

	stamp []uint32 // stamp[s] == gen: s is in the closure being built
	gen   uint32
	stack []int32
	set   []int32 // the closure just built, sorted, live members only
	sets  *Subsets
}

// closure leaves in c.set the epsilon closure of seeds.
func (c *determinizer) closure(seeds []int32) {
	c.gen++
	c.set = c.set[:0]
	stack := c.stack[:0]
	for _, s := range seeds {
		if c.stamp[s] != c.gen {
			c.stamp[s] = c.gen
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if c.live[s] {
			c.set = append(c.set, s)
		}
		for _, t := range c.order[c.first[2*s]:c.first[2*s+1]] {
			if to := c.n.to[t]; c.stamp[to] != c.gen {
				c.stamp[to] = c.gen
				stack = append(stack, to)
			}
		}
	}
	c.stack = stack
	slices.Sort(c.set)
}

// Determinize converts the NFA to an equivalent DFA via subset construction.
// Only reachable subsets are materialized; states are numbered in order of
// discovery, breadth first from the start by ascending symbol.
func (n *NFA) Determinize() *DFA {
	states := len(n.accept)
	keys := make([]int32, len(n.from))
	live := slices.Clone(n.accept)
	nsyms := 0
	for t, sym := range n.sym {
		keys[t] = 2 * n.from[t]
		if sym != int32(Epsilon) {
			keys[t]++
			live[n.from[t]] = true
			nsyms = max(nsyms, int(sym)+1)
		}
	}
	c := &determinizer{n: n, live: live, stamp: make([]uint32, states), sets: NewSubsets(states)}
	c.first, c.order = bucket(keys, 2*states)

	// Moves out of one subset are grouped by a counting sort over the symbols
	// it actually uses: count[sym] counts, then becomes the write cursor into
	// targets.
	count := make([]int32, nsyms)
	var present, targets []int32

	c.closure([]int32{int32(n.start)})
	c.sets.Intern(c.set)
	b := NewBuilder(states, len(n.from))
	for from := 0; from < c.sets.Len(); from++ {
		members := c.sets.Set(from)
		present = present[:0]
		total, accepting := 0, false
		for _, s := range members {
			accepting = accepting || n.accept[s]
			for _, t := range c.order[c.first[2*s+1]:c.first[2*s+2]] {
				if count[n.sym[t]] == 0 {
					present = append(present, n.sym[t])
				}
				count[n.sym[t]]++
				total++
			}
		}
		slices.Sort(present)
		at := int32(0)
		for _, sym := range present {
			at, count[sym] = at+count[sym], at
		}
		targets = slices.Grow(targets[:0], total)[:total]
		for _, s := range members {
			for _, t := range c.order[c.first[2*s+1]:c.first[2*s+2]] {
				targets[count[n.sym[t]]] = n.to[t]
				count[n.sym[t]]++
			}
		}
		lo := int32(0)
		for _, sym := range present {
			hi := count[sym]
			count[sym] = 0
			c.closure(targets[lo:hi])
			b.Edge(Symbol(sym), c.sets.Intern(c.set))
			lo = hi
		}
		b.EndState(accepting)
	}
	return b.Build(0)
}

// ToNFA returns an NFA view of the DFA (a copy).
func (d *DFA) ToNFA() *NFA {
	n := NewNFA()
	for i := 0; i < d.NumStates(); i++ {
		n.AddState(d.accept[i])
	}
	for from, es := range d.edges {
		for _, e := range es {
			n.AddEdge(from, e.Sym, e.To)
		}
	}
	n.SetStart(d.start)
	return n
}
