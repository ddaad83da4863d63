// Package automaton implements finite-state automata over integer symbol
// alphabets, together with the algebraic operations ReLM relies on:
// Thompson-style NFA construction, subset determinization, Hopcroft
// minimization, product intersection, union, complement, difference,
// language enumeration, exact walk counting, and uniform path sampling.
//
// The same machinery is used at two alphabets: bytes (0..255) for the
// "Natural Language Automaton" compiled from a regex, and LLM token IDs for
// the "LLM Automaton" produced by the graph compiler.
package automaton

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
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

// Grow reserves room for states more states and edges more transitions, so
// a construction that knows its size adds them without reallocating.
func (n *NFA) Grow(states, edges int) {
	n.accept = slices.Grow(n.accept, states)
	n.from = slices.Grow(n.from, edges)
	n.sym = slices.Grow(n.sym, edges)
	n.to = slices.Grow(n.to, edges)
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

// DFA is a deterministic finite automaton. Transitions are stored as sorted
// edge lists per state, supporting both dense byte alphabets and sparse token
// alphabets.
//
// Edge lists are kept sorted at insertion time, so every read path (Step,
// Edges, Match*) is strictly read-only: a fully constructed DFA may be
// traversed from any number of goroutines concurrently. (An earlier design
// sorted lazily on first access, which made Step a hidden writer — a latent
// data race once engines shared automata across parallel workers.) Freeze
// converts a finished DFA into the even leaner immutable Frozen form.
type DFA struct {
	edges  [][]Edge // sorted by Sym; at most one edge per (state, symbol)
	start  StateID
	accept []bool
	// minimal records that Minimize produced this automaton (or a Clone of
	// one) and nothing has changed it since: Minimize then returns the
	// receiver. Every mutator clears it.
	minimal bool
	// alphabet memoizes Alphabet(); AddEdge invalidates it. Stored through an
	// atomic pointer so concurrent readers of a shared, fully built DFA can
	// fill the memo without racing (both writers store equal values).
	alphabet atomic.Pointer[[]Symbol]
}

// NewDFA returns an empty DFA.
func NewDFA() *DFA { return &DFA{} }

// AddState appends a fresh state and returns its ID.
func (d *DFA) AddState(accepting bool) StateID {
	d.edges = append(d.edges, nil)
	d.accept = append(d.accept, accepting)
	d.minimal = false
	return len(d.edges) - 1
}

// AddEdge inserts the unique transition (from, sym) -> to, keeping the
// state's edge list sorted by symbol. Adding a second edge with the same
// (from, sym) pair panics: determinism is an invariant.
func (d *DFA) AddEdge(from StateID, sym Symbol, to StateID) {
	if sym == Epsilon {
		panic("automaton: epsilon edge in DFA")
	}
	es := d.edges[from]
	i := sort.Search(len(es), func(i int) bool { return es[i].Sym >= sym })
	if i < len(es) && es[i].Sym == sym {
		panic(fmt.Sprintf("automaton: duplicate edge (%d, %d)", from, sym))
	}
	es = append(es, Edge{})
	copy(es[i+1:], es[i:])
	es[i] = Edge{Sym: sym, To: to}
	d.edges[from] = es
	d.minimal = false
	d.alphabet.Store(nil)
}

// SetStart designates the initial state.
func (d *DFA) SetStart(s StateID) { d.start, d.minimal = s, false }

// Start returns the initial state.
func (d *DFA) Start() StateID { return d.start }

// NumStates reports the number of states.
func (d *DFA) NumStates() int { return len(d.edges) }

// Accepting reports whether state s accepts.
func (d *DFA) Accepting(s StateID) bool { return d.accept[s] }

// SetAccepting marks or unmarks s as accepting.
func (d *DFA) SetAccepting(s StateID, v bool) { d.accept[s], d.minimal = v, false }

// Step follows the transition labeled sym out of state s. ok is false when no
// such transition exists. Step is read-only and safe for concurrent use on a
// fully constructed DFA.
func (d *DFA) Step(s StateID, sym Symbol) (to StateID, ok bool) {
	es := d.edges[s]
	i := sort.Search(len(es), func(i int) bool { return es[i].Sym >= sym })
	if i < len(es) && es[i].Sym == sym {
		return es[i].To, true
	}
	return 0, false
}

// Edges returns the outgoing edges of s, sorted by symbol. The slice is owned
// by the DFA and must not be mutated. Edges is read-only and safe for
// concurrent use on a fully constructed DFA.
func (d *DFA) Edges(s StateID) []Edge {
	return d.edges[s]
}

// NumEdges reports the total number of transitions.
func (d *DFA) NumEdges() int {
	n := 0
	for _, es := range d.edges {
		n += len(es)
	}
	return n
}

// MatchBytes reports whether the DFA (over the byte alphabet) accepts s.
func (d *DFA) MatchBytes(s []byte) bool { return matchBytes(d, s) }

// MatchString reports whether the DFA accepts the bytes of s.
func (d *DFA) MatchString(s string) bool { return d.MatchBytes([]byte(s)) }

// MatchSymbols reports whether the DFA accepts the symbol sequence seq.
func (d *DFA) MatchSymbols(seq []Symbol) bool { return matchSymbols(d, seq) }

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

// Alphabet returns the sorted set of symbols appearing on any edge. The
// result is memoized — Freeze, rewriting, and Equivalent all call
// it — and recomputed only after AddEdge. The returned slice is shared;
// callers must not mutate it.
func (d *DFA) Alphabet() []Symbol {
	if p := d.alphabet.Load(); p != nil {
		return *p
	}
	used := make([]bool, d.maxSymbol()+1)
	n := 0
	for _, es := range d.edges {
		for _, e := range es {
			if !used[e.Sym] {
				used[e.Sym] = true
				n++
			}
		}
	}
	out := make([]Symbol, 0, n)
	for sym, u := range used {
		if u {
			out = append(out, sym)
		}
	}
	d.alphabet.Store(&out)
	return out
}

// Builder assembles a DFA whose edge lists arrive already sorted: states are
// finished in ID order, each one's edges added in ascending symbol order, and
// all lists share one backing array. It is how every construction that knows
// its output order (Determinize, Minimize, Trim, Clone, the graph compiler)
// avoids AddEdge's search-and-insert and its allocation per state.
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

// Build returns the DFA of the finished states. The builder must not be used
// afterwards. Each edge list is capped at its length, so a later AddEdge
// copies the list out instead of writing over its neighbour.
func (b *Builder) Build(start StateID) *DFA {
	d := &DFA{edges: make([][]Edge, len(b.accept)), start: start, accept: b.accept}
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

// determinizer is the scratch of one subset construction. It lives for one
// Determinize call and is not pooled: the allocations of a compile must be
// the same from run to run. Subsets are interned by open addressing over the
// arena that holds them, so a new DFA state costs no key of its own.
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

	arena []int32 // members of every interned subset, back to back
	off   []int32 // subset of DFA state i is arena[off[i]:off[i+1]]
	// slots is a linear-probing table over the subsets: a slot holds a DFA
	// state + 1, 0 when empty. Its length is a power of two, at least twice
	// the number of states.
	slots []int32
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

// intern returns the DFA state of the subset in c.set, numbering it if new.
// A probe compares c.set with the arena spans of the states it meets, so
// only a new subset writes anything: its members, its offset and its slot.
func (c *determinizer) intern() StateID {
	mask := len(c.slots) - 1
	i := subsetHash(c.set) & mask
	for ; c.slots[i] != 0; i = (i + 1) & mask {
		if id := c.slots[i] - 1; slices.Equal(c.arena[c.off[id]:c.off[id+1]], c.set) {
			return int(id)
		}
	}
	id := len(c.off) - 1
	c.arena = append(c.arena, c.set...)
	c.off = append(c.off, int32(len(c.arena)))
	c.slots[i] = int32(id + 1)
	if 2*(id+1) > len(c.slots) {
		c.slots = make([]int32, 2*len(c.slots))
		for s := range id + 1 {
			j := subsetHash(c.arena[c.off[s]:c.off[s+1]]) & (len(c.slots) - 1)
			for c.slots[j] != 0 {
				j = (j + 1) & (len(c.slots) - 1)
			}
			c.slots[j] = int32(s + 1)
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
	c := &determinizer{n: n, live: live, stamp: make([]uint32, states), off: []int32{0}}
	c.slots = make([]int32, max(16, 2<<bits.Len(uint(states))))
	c.first, c.order = bucket(keys, 2*states)

	// Moves out of one subset are grouped by a counting sort over the symbols
	// it actually uses: count[sym] counts, then becomes the write cursor into
	// targets.
	count := make([]int32, nsyms)
	var present, targets []int32

	c.closure([]int32{int32(n.start)})
	c.intern()
	b := NewBuilder(states, len(n.from))
	for from := 0; from+1 < len(c.off); from++ {
		members := c.arena[c.off[from]:c.off[from+1]]
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
			b.Edge(Symbol(sym), c.intern())
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
	for from := range d.edges {
		for _, e := range d.Edges(from) {
			n.AddEdge(from, e.Sym, e.To)
		}
	}
	n.SetStart(d.start)
	return n
}

// Clone returns a deep copy of the DFA.
func (d *DFA) Clone() *DFA {
	b := NewBuilder(d.NumStates(), d.NumEdges())
	for s, es := range d.edges {
		b.edges = append(b.edges, es...)
		b.EndState(d.accept[s])
	}
	c := b.Build(d.start)
	c.minimal = d.minimal
	return c
}
