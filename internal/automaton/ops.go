package automaton

import "sort"

// live numbers, in ID order, the states that are both reachable from the
// start and co-reachable (can reach an accepting state); every other state
// gets -1. count is how many were numbered: 0 exactly when the language is
// empty.
func (d *DFA) live() (id []int32, count int) {
	n := d.NumStates()
	id = make([]int32, n)
	if n == 0 {
		return id, 0
	}
	// Forward pass: id[s] = 1 for reachable states, and the in-degree of every
	// state counted over edges that leave a reachable one.
	first := make([]int32, n+1)
	stack := make([]int32, 1, n)
	stack[0], id[d.start] = int32(d.start), 1
	edges := 0
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range d.edges[s] {
			first[e.To]++
			edges++
			if id[e.To] == 0 {
				id[e.To] = 1
				stack = append(stack, int32(e.To))
			}
		}
	}
	// Inverse edges in CSR form (filled backwards, as in bucket): the sources
	// of the edges into s are src[first[s]:first[s+1]].
	for s := 0; s < n; s++ {
		first[s+1] += first[s]
	}
	src := make([]int32, edges)
	for s := n - 1; s >= 0; s-- {
		if id[s] == 1 {
			for _, e := range d.edges[s] {
				first[e.To]--
				src[first[e.To]] = int32(s)
			}
		}
	}
	// Backward pass from the reachable accepting states: id[s] = 2.
	for s := 0; s < n; s++ {
		if id[s] == 1 && d.accept[s] {
			id[s] = 2
			stack = append(stack, int32(s))
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range src[first[s]:first[s+1]] {
			if id[p] == 1 {
				id[p] = 2
				stack = append(stack, p)
			}
		}
	}
	for s := range id {
		if id[s] == 2 {
			id[s] = int32(count)
			count++
		} else {
			id[s] = -1
		}
	}
	return id, count
}

// emptyDFA is the canonical automaton of the empty language: a single
// non-accepting start state with no edges.
func emptyDFA() *DFA {
	return &DFA{edges: make([][]Edge, 1), accept: make([]bool, 1), minimal: true}
}

// Trim returns an equivalent DFA containing only states that are both
// reachable from the start and co-reachable (can reach an accepting state),
// in their original order. If the language is empty, the result is a single
// non-accepting start state with no edges.
func (d *DFA) Trim() *DFA {
	id, count := d.live()
	if count == 0 {
		return emptyDFA()
	}
	b := NewBuilder(count, d.NumEdges())
	for s, es := range d.edges {
		if id[s] < 0 {
			continue
		}
		for _, e := range es {
			if id[e.To] >= 0 {
				b.Edge(e.Sym, int(id[e.To]))
			}
		}
		b.EndState(d.accept[s])
	}
	return b.Build(int(id[d.start]))
}

// Intersect returns a DFA accepting L(a) ∩ L(b) via the product construction.
// Only reachable product states are materialized.
func Intersect(a, b *DFA) *DFA {
	type pair struct{ x, y StateID }
	out := NewDFA()
	ids := map[pair]StateID{}
	var queue []pair
	p0 := pair{a.start, b.start}
	s0 := out.AddState(a.accept[a.start] && b.accept[b.start])
	ids[p0] = s0
	out.SetStart(s0)
	queue = append(queue, p0)
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		from := ids[p]
		ea, eb := a.Edges(p.x), b.Edges(p.y)
		// Merge-join the two sorted edge lists on symbol.
		i, j := 0, 0
		for i < len(ea) && j < len(eb) {
			switch {
			case ea[i].Sym < eb[j].Sym:
				i++
			case ea[i].Sym > eb[j].Sym:
				j++
			default:
				np := pair{ea[i].To, eb[j].To}
				to, ok := ids[np]
				if !ok {
					to = out.AddState(a.accept[np.x] && b.accept[np.y])
					ids[np] = to
					queue = append(queue, np)
				}
				out.AddEdge(from, ea[i].Sym, to)
				i++
				j++
			}
		}
	}
	return out.Trim()
}

// Union returns a DFA accepting L(a) ∪ L(b).
func Union(a, b *DFA) *DFA {
	n := NewNFA()
	offA := make([]StateID, a.NumStates())
	for i := 0; i < a.NumStates(); i++ {
		offA[i] = n.AddState(a.accept[i])
	}
	offB := make([]StateID, b.NumStates())
	for i := 0; i < b.NumStates(); i++ {
		offB[i] = n.AddState(b.accept[i])
	}
	for from := 0; from < a.NumStates(); from++ {
		for _, e := range a.Edges(from) {
			n.AddEdge(offA[from], e.Sym, offA[e.To])
		}
	}
	for from := 0; from < b.NumStates(); from++ {
		for _, e := range b.Edges(from) {
			n.AddEdge(offB[from], e.Sym, offB[e.To])
		}
	}
	start := n.AddState(false)
	n.SetStart(start)
	n.AddEdge(start, Epsilon, offA[a.start])
	n.AddEdge(start, Epsilon, offB[b.start])
	return n.Determinize().Trim()
}

// Complete returns a DFA with a total transition function over alphabet:
// missing transitions are routed to a (possibly new) dead state. The second
// return value is the dead state's ID (-1 if none was needed).
func (d *DFA) Complete(alphabet []Symbol) (*DFA, StateID) {
	c := d.Clone()
	dead := StateID(-1)
	for s := 0; s < d.NumStates(); s++ {
		for _, sym := range alphabet {
			if _, ok := c.Step(s, sym); !ok {
				if dead == -1 {
					dead = c.AddState(false)
					for _, sym2 := range alphabet {
						c.AddEdge(dead, sym2, dead)
					}
				}
				c.AddEdge(s, sym, dead)
			}
		}
	}
	return c, dead
}

// Complement returns a DFA accepting alphabet* \ L(d). The alphabet must be
// supplied because DFAs store only the symbols they use.
func (d *DFA) Complement(alphabet []Symbol) *DFA {
	c, _ := d.Complete(alphabet)
	for s := 0; s < c.NumStates(); s++ {
		c.SetAccepting(s, !c.accept[s])
	}
	return c
}

// Difference returns a DFA accepting L(a) \ L(b) over the given alphabet.
func Difference(a, b *DFA, alphabet []Symbol) *DFA {
	return Intersect(a, b.Complement(alphabet)).Trim()
}

// IsEmpty reports whether the language is empty (no accepting state is
// reachable).
func (d *DFA) IsEmpty() bool { return isEmpty(d) }

// HasCycle reports whether any cycle is reachable from the start state. A
// cyclic automaton denotes an infinite language.
func (d *DFA) HasCycle() bool { return d.LongestWord() < 0 }

// LongestWord returns the length of the longest string d accepts (0 when it
// accepts none), or -1 when a cycle is reachable from the start state. On a
// trimmed DFA, such as Minimize returns, -1 means the language is infinite.
func (d *DFA) LongestWord() int {
	const unseen, onPath, dead = -3, -2, -1
	depth := make([]int, d.NumStates()) // longest accepted suffix from a state
	for i := range depth {
		depth[i] = unseen
	}
	var visit func(s StateID) bool // false once a cycle is found
	visit = func(s StateID) bool {
		depth[s] = onPath
		best := dead
		if d.accept[s] {
			best = 0
		}
		for _, e := range d.Edges(s) {
			if depth[e.To] == onPath || depth[e.To] == unseen && !visit(e.To) {
				return false
			}
			if depth[e.To] >= 0 {
				best = max(best, depth[e.To]+1)
			}
		}
		depth[s] = best
		return true
	}
	if !visit(d.start) {
		return -1
	}
	return max(depth[d.start], 0)
}

// Equivalent reports whether a and b accept the same language, by checking
// that the symmetric difference is empty.
func Equivalent(a, b *DFA) bool {
	alpha := map[Symbol]bool{}
	for _, s := range a.Alphabet() {
		alpha[s] = true
	}
	for _, s := range b.Alphabet() {
		alpha[s] = true
	}
	syms := make([]Symbol, 0, len(alpha))
	for s := range alpha {
		syms = append(syms, s)
	}
	sort.Ints(syms)
	return Difference(a, b, syms).IsEmpty() && Difference(b, a, syms).IsEmpty()
}

// Concat returns a DFA accepting L(a)·L(b).
func Concat(a, b *DFA) *DFA {
	n := NewNFA()
	offA := make([]StateID, a.NumStates())
	for i := 0; i < a.NumStates(); i++ {
		offA[i] = n.AddState(false)
	}
	offB := make([]StateID, b.NumStates())
	for i := 0; i < b.NumStates(); i++ {
		offB[i] = n.AddState(b.accept[i])
	}
	for from := 0; from < a.NumStates(); from++ {
		for _, e := range a.Edges(from) {
			n.AddEdge(offA[from], e.Sym, offA[e.To])
		}
	}
	for from := 0; from < b.NumStates(); from++ {
		for _, e := range b.Edges(from) {
			n.AddEdge(offB[from], e.Sym, offB[e.To])
		}
	}
	for i := 0; i < a.NumStates(); i++ {
		if a.accept[i] {
			n.AddEdge(offA[i], Epsilon, offB[b.start])
		}
	}
	n.SetStart(offA[a.start])
	return n.Determinize().Trim()
}
