package automaton

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// The reference implementations the production Determinize and Minimize are
// tested against: the map-based subset construction and Brzozowski's double
// reversal that served as the production paths before the flat-table rewrite.
// They share no code with their replacements.

// edgesRef lists the NFA's transitions per source state.
func (n *NFA) edgesRef() [][]Edge {
	out := make([][]Edge, n.NumStates())
	for t := range n.from {
		out[n.from[t]] = append(out[n.from[t]], Edge{Sym: Symbol(n.sym[t]), To: StateID(n.to[t])})
	}
	return out
}

// epsClosureRef expands a set of states with everything reachable via epsilon
// transitions, sorted and deduped.
func epsClosureRef(edges [][]Edge, set []StateID) []StateID {
	seen := make(map[StateID]bool, len(set))
	stack := make([]StateID, 0, len(set))
	for _, s := range set {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range edges[s] {
			if e.Sym == Epsilon && !seen[e.To] {
				seen[e.To] = true
				stack = append(stack, e.To)
			}
		}
	}
	out := make([]StateID, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// determinizeRef is the subset construction over map-backed closures, a
// string-keyed subset table and per-symbol move maps, adding edges one at a
// time.
func (n *NFA) determinizeRef() *DFA {
	edges := n.edgesRef()
	d := NewDFA()
	enc := func(set []StateID) string {
		b := make([]byte, 0, len(set)*4)
		for _, s := range set {
			b = append(b, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
		}
		return string(b)
	}
	anyAccept := func(set []StateID) bool {
		for _, s := range set {
			if n.accept[s] {
				return true
			}
		}
		return false
	}
	// prune drops non-accepting members with no symbol edge (see
	// determinizer.live).
	prune := func(set []StateID) []StateID {
		out := set[:0]
		for _, s := range set {
			live := n.accept[s]
			for _, e := range edges[s] {
				live = live || e.Sym != Epsilon
			}
			if live {
				out = append(out, s)
			}
		}
		return out
	}
	startSet := prune(epsClosureRef(edges, []StateID{n.start}))
	ids := map[string]StateID{}
	s0 := d.AddState(anyAccept(startSet))
	d.SetStart(s0)
	ids[enc(startSet)] = s0
	queue := [][]StateID{startSet}
	for len(queue) > 0 {
		set := queue[0]
		queue = queue[1:]
		from := ids[enc(set)]
		moves := map[Symbol][]StateID{}
		for _, s := range set {
			for _, e := range edges[s] {
				if e.Sym != Epsilon {
					moves[e.Sym] = append(moves[e.Sym], e.To)
				}
			}
		}
		syms := make([]Symbol, 0, len(moves))
		for sym := range moves {
			syms = append(syms, sym)
		}
		sort.Ints(syms)
		for _, sym := range syms {
			next := prune(epsClosureRef(edges, moves[sym]))
			k := enc(next)
			to, ok := ids[k]
			if !ok {
				to = d.AddState(anyAccept(next))
				ids[k] = to
				queue = append(queue, next)
			}
			d.AddEdge(from, sym, to)
		}
	}
	return d
}

// reverseRef returns an NFA accepting the reversal of the DFA's language.
func (d *DFA) reverseRef() *NFA {
	n := NewNFA()
	for i := 0; i < d.NumStates(); i++ {
		n.AddState(i == d.start)
	}
	for from := range d.edges {
		for _, e := range d.Edges(from) {
			n.AddEdge(e.To, e.Sym, from)
		}
	}
	start := n.AddState(false)
	n.SetStart(start)
	for i := 0; i < d.NumStates(); i++ {
		if d.accept[i] {
			n.AddEdge(start, Epsilon, i)
		}
	}
	return n
}

// minimizeBrzozowski is the double-reversal minimizer: reverse, determinize,
// trim, reverse, determinize. The middle Trim is load-bearing — the theorem
// needs the intermediate automaton co-accessible, and subset construction can
// leave dead subset-states behind. Its reverse determinization is exponential
// in the worst case (TestMinimizeNoReverseBlowup), which is why it is an
// oracle and not a production path. The final subset construction numbers
// states breadth first by ascending symbol, the order Minimize emits.
func (d *DFA) minimizeBrzozowski() *DFA {
	return d.Trim().reverseRef().determinizeRef().Trim().reverseRef().determinizeRef().Trim()
}

// equalDFA reports the first structural difference between two DFAs: start,
// numbering, acceptance, edges.
func equalDFA(a, b *DFA) error {
	if a.NumStates() != b.NumStates() || a.Start() != b.Start() {
		return fmt.Errorf("%v vs %v", a, b)
	}
	for s := 0; s < a.NumStates(); s++ {
		if a.Accepting(s) != b.Accepting(s) || !slices.Equal(a.Edges(s), b.Edges(s)) {
			return fmt.Errorf("state %d: accepting %v edges %v vs accepting %v edges %v",
				s, a.Accepting(s), a.Edges(s), b.Accepting(s), b.Edges(s))
		}
	}
	return nil
}

// randomNFA draws an NFA with epsilon edges, unreachable states and states
// that reach no accepting state.
func randomNFA(rng *rand.Rand) *NFA {
	n := NewNFA()
	states := 1 + rng.Intn(12)
	for i := 0; i < states; i++ {
		n.AddState(rng.Intn(4) == 0)
	}
	n.SetStart(rng.Intn(states))
	syms := 1 + rng.Intn(4)
	for e := rng.Intn(4 * states); e > 0; e-- {
		sym := Symbol('a' + rng.Intn(syms))
		if rng.Intn(4) == 0 {
			sym = Epsilon
		}
		n.AddEdge(rng.Intn(states), sym, rng.Intn(states))
	}
	return n
}

// randomRegexNFA draws a pattern from the grammar of the regex package's fuzz
// corpus — literals, classes, groups, alternation, ?, *, + and counted
// repetition — and lowers it by the same Thompson construction (one entry,
// one exit, fragments joined by epsilon edges). The regex package cannot be
// imported from here, and its tests cannot reach the oracles.
func randomRegexNFA(rng *rand.Rand) *NFA {
	n := NewNFA()
	var build func(depth int) (StateID, StateID)
	repeat := func(depth, min, max int) (StateID, StateID) { // max < 0: unbounded
		start := n.AddState(false)
		cur := start
		for i := 0; i < min; i++ {
			s, e := build(depth)
			n.AddEdge(cur, Epsilon, s)
			cur = e
		}
		end := n.AddState(false)
		n.AddEdge(cur, Epsilon, end)
		if max < 0 {
			s, e := build(depth)
			n.AddEdge(cur, Epsilon, s)
			n.AddEdge(e, Epsilon, cur)
		}
		for i := min; i < max; i++ {
			s, e := build(depth)
			n.AddEdge(cur, Epsilon, s)
			n.AddEdge(e, Epsilon, end)
			cur = e
		}
		return start, end
	}
	build = func(depth int) (StateID, StateID) {
		kind := rng.Intn(7)
		if depth == 0 {
			kind = rng.Intn(2)
		}
		switch kind {
		case 0: // literal
			s, e := n.AddState(false), n.AddState(false)
			n.AddEdge(s, Symbol('a'+rng.Intn(4)), e)
			return s, e
		case 1: // class
			s, e := n.AddState(false), n.AddState(false)
			for b := 0; b < 6; b++ {
				if rng.Intn(2) == 0 {
					n.AddEdge(s, Symbol('a'+b), e)
				}
			}
			return s, e
		case 2, 3: // concatenation
			s, e := build(depth - 1)
			for i := rng.Intn(3); i >= 0; i-- {
				ps, pe := build(depth - 1)
				n.AddEdge(e, Epsilon, ps)
				e = pe
			}
			return s, e
		case 4: // alternation
			s, e := n.AddState(false), n.AddState(false)
			for i := rng.Intn(3) + 1; i >= 0; i-- {
				os, oe := build(depth - 1)
				n.AddEdge(s, Epsilon, os)
				n.AddEdge(oe, Epsilon, e)
			}
			return s, e
		case 5: // ?, *, +
			return repeat(depth-1, rng.Intn(2), []int{1, -1}[rng.Intn(2)])
		default: // {m,n}
			min := rng.Intn(3)
			return repeat(depth-1, min, min+rng.Intn(3))
		}
	}
	start, end := build(3)
	n.SetStart(start)
	n.SetAccepting(end, true)
	return n
}

// TestDeterminizeMinimizeEqualReference: on seeded random NFAs of both kinds
// the flat-table Determinize and Minimize return exactly what the reference
// implementations return — same numbering, same edges, same accepting states.
func TestDeterminizeMinimizeEqualReference(t *testing.T) {
	for _, gen := range []struct {
		name string
		draw func(*rand.Rand) *NFA
	}{{"regex", randomRegexNFA}, {"epsilon-nfa", randomNFA}} {
		rng := rand.New(rand.NewSource(15))
		for trial := 0; trial < 400; trial++ {
			n := gen.draw(rng)
			d, ref := n.Determinize(), n.determinizeRef()
			if err := equalDFA(d, ref); err != nil {
				t.Fatalf("%s %d: Determinize differs from the reference: %v", gen.name, trial, err)
			}
			m := d.Minimize()
			if err := equalDFA(m, ref.minimizeBrzozowski()); err != nil {
				t.Fatalf("%s %d: Minimize differs from Brzozowski: %v", gen.name, trial, err)
			}
			if m.Minimize() != m {
				t.Fatalf("%s %d: minimizing a minimal DFA did not return it", gen.name, trial)
			}
			// Thaw rebuilds edge by edge, so the copy carries no minimal mark.
			if err := equalDFA(m.Freeze().Thaw().Minimize(), m); err != nil {
				t.Fatalf("%s %d: Minimize is not idempotent: %v", gen.name, trial, err)
			}
		}
	}
}

// TestMinimalMarkClearedByMutators: Minimize returns a minimal receiver as it
// is, so every way of changing a DFA must drop the mark.
func TestMinimalMarkClearedByMutators(t *testing.T) {
	for name, mutate := range map[string]func(*DFA){
		"AddState":     func(d *DFA) { d.AddState(true) },
		"AddEdge":      func(d *DFA) { d.AddEdge(d.Start(), 'z', d.Start()) },
		"SetStart":     func(d *DFA) { d.SetStart(1) },
		"SetAccepting": func(d *DFA) { d.SetAccepting(d.Start(), true) },
	} {
		d := FromStrings([]string{"ab", "cb"}).Clone()
		if d.Minimize() != d {
			t.Fatalf("%s: the clone of a minimal DFA should be minimal", name)
		}
		mutate(d)
		m := d.Minimize()
		if m == d {
			t.Errorf("%s: Minimize returned the mutated receiver", name)
		}
		if err := equalDFA(m, d.minimizeBrzozowski()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	c := FromStrings([]string{"a"}).Complement([]Symbol{'a'})
	if err := equalDFA(c.Minimize(), c.minimizeBrzozowski()); err != nil {
		t.Errorf("Complement: %v", err)
	}
}

// TestBuilderRejectsUnsortedEdges: the builder keeps AddEdge's invariants.
func TestBuilderRejectsUnsortedEdges(t *testing.T) {
	for name, add := range map[string]func(*Builder){
		"duplicate":  func(b *Builder) { b.Edge('a', 0); b.Edge('a', 0) },
		"descending": func(b *Builder) { b.Edge('b', 0); b.Edge('a', 0) },
		"epsilon":    func(b *Builder) { b.Edge(Epsilon, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected a panic", name)
				}
			}()
			add(NewBuilder(1, 2))
		}()
	}
	b := NewBuilder(2, 2)
	b.Edge('b', 1)
	b.EndState(false)
	b.Edge('a', 0) // a new state starts a new order
	b.EndState(true)
	d := b.Build(0)
	d.AddEdge(0, 'c', 0) // must not write over state 1's list
	if to, ok := d.Step(1, 'a'); !ok || to != 0 || !d.MatchString("bab") {
		t.Error("AddEdge after Build disturbed a neighbouring edge list")
	}
}

// BenchmarkAblationMinimization (DESIGN.md decision 7, §4): production
// partition refinement against the Brzozowski oracle, on the subset
// construction of 2 000 random words — a trie whose minimal form shares
// suffixes — and on the pattern whose reversal blows up.
func BenchmarkAblationMinimization(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	words := NewNFA()
	start := words.AddState(false)
	words.SetStart(start)
	for w := 0; w < 2000; w++ {
		cur := start
		for i := 3 + rng.Intn(6); i > 0; i-- {
			next := words.AddState(i == 1)
			words.AddEdge(cur, Symbol('a'+rng.Intn(6)), next)
			cur = next
		}
	}
	nth := NewNFA() // [ab]{12}a[ab]*
	cur := nth.AddState(false)
	nth.SetStart(cur)
	for i := 0; i < 13; i++ {
		next := nth.AddState(i == 12)
		nth.AddEdge(cur, 'a', next)
		if i < 12 {
			nth.AddEdge(cur, 'b', next)
		}
		cur = next
	}
	nth.AddEdge(cur, 'a', cur)
	nth.AddEdge(cur, 'b', cur)
	for _, arm := range []struct {
		name string
		d    *DFA
	}{{"words", words.Determinize()}, {"nth-symbol", nth.Determinize()}} {
		b.Run(arm.name+"/refinement", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.d.Minimize()
			}
		})
		b.Run(arm.name+"/brzozowski", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.d.minimizeBrzozowski()
			}
		})
	}
}
