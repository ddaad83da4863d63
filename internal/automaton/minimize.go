package automaton

// partition is a refinable partition of {0..n-1} (Valmari & Lehtinen): the
// elements are listed set by set in elems, elements are marked one at a time
// by swapping them to the front of their set, and split then cuts every set
// that holds both marked and unmarked elements in two — the smaller half
// becoming the new set — in time proportional to the number of marks.
type partition struct {
	sets        int
	elems       []int32 // the elements, set by set
	loc         []int32 // loc[e] is e's index in elems
	set         []int32 // set[e] is the set e belongs to
	first, past []int32 // set s is elems[first[s]:past[s]]
	marked      []int32 // marked[s] of s's elements, at its front, are marked
	touched     []int32 // the sets with marks
}

func newPartition(n int) *partition {
	buf := make([]int32, 7*n)
	p := &partition{elems: buf[:n], loc: buf[n : 2*n], set: buf[2*n : 3*n], first: buf[3*n : 4*n],
		past: buf[4*n : 5*n], marked: buf[5*n : 6*n], touched: buf[6*n : 6*n : 7*n]}
	for i := range p.elems {
		p.elems[i], p.loc[i] = int32(i), int32(i)
	}
	if n > 0 {
		p.sets, p.past[0] = 1, int32(n)
	}
	return p
}

// mark marks e, which must not be marked already.
func (p *partition) mark(e int32) {
	s, i := p.set[e], p.loc[e]
	j := p.first[s] + p.marked[s]
	p.elems[i] = p.elems[j]
	p.loc[p.elems[i]] = i
	p.elems[j], p.loc[e] = e, j
	if p.marked[s] == 0 {
		p.touched = append(p.touched, s)
	}
	p.marked[s]++
}

// split separates the marked from the unmarked elements of every touched set
// and clears the marks.
func (p *partition) split() {
	for _, s := range p.touched {
		j := p.first[s] + p.marked[s]
		p.marked[s] = 0
		if j == p.past[s] {
			continue
		}
		z := int32(p.sets)
		p.sets++
		if j-p.first[s] <= p.past[s]-j {
			p.first[z], p.past[z], p.first[s] = p.first[s], j, j
		} else {
			p.first[z], p.past[z], p.past[s] = j, p.past[s], j
		}
		for _, e := range p.elems[p.first[z]:p.past[z]] {
			p.set[e] = z
		}
	}
	p.touched = p.touched[:0]
}

// Minimize returns the unique minimal DFA for the language, trimmed, with
// states numbered in the canonical order — breadth first from the start, by
// ascending symbol — so two minimal DFAs of one language are equal state for
// state and edge for edge, whichever construction produced their inputs. The
// result is marked minimal: minimizing it again returns it as it is.
//
// The algorithm is Hopcroft's partition refinement in Valmari and Lehtinen's
// formulation for partial DFAs, O(m log m) in the m transitions between live
// states. Blocks partition the states, cords the transitions; a cord (at
// first, all transitions on one symbol) splits every block into the states
// that have a transition in it and those that do not, which is how a missing
// transition tells two states apart without a dead state to route it to; a
// block splits every cord into the transitions that lead into it and the
// rest. Only the smaller half of a split is queued again.
func (d *DFA) Minimize() *DFA {
	if d.minimal {
		return d
	}
	id, n := d.live()
	if n == 0 {
		return emptyDFA()
	}
	// The transitions between live states, in (state, symbol) order: those
	// out of live state i are numbered out[i] to out[i+1].
	m := d.NumEdges()
	buf := make([]int32, 3*m+2*n+1)
	tail, label, head := buf[:m], buf[m:2*m], buf[2*m:3*m]
	out, orig := buf[3*m:3*m+n+1], buf[3*m+n+1:]
	blocks := newPartition(n)
	m = 0
	for s, es := range d.edges {
		i := id[s]
		if i < 0 {
			continue
		}
		out[i], orig[i] = int32(m), int32(s)
		if d.accept[s] {
			blocks.mark(i)
		}
		for _, e := range es {
			if to := id[e.To]; to >= 0 {
				tail[m], label[m], head[m] = i, int32(e.Sym), to
				m++
			}
		}
	}
	out[n] = int32(m)
	tail, label, head = tail[:m], label[:m], head[:m]
	blocks.split()

	cords := newPartition(m)
	byLabel, order := bucket(label, d.maxSymbol()+1)
	cords.sets, cords.elems = 0, order
	for k := 0; k+1 < len(byLabel); k++ {
		lo, hi := byLabel[k], byLabel[k+1]
		if lo == hi {
			continue
		}
		z := int32(cords.sets)
		cords.sets++
		cords.first[z], cords.past[z] = lo, hi
		for i := lo; i < hi; i++ {
			cords.loc[cords.elems[i]], cords.set[cords.elems[i]] = i, z
		}
	}

	into, in := bucket(head, n) // the transitions into state i are in[into[i]:into[i+1]]
	for b, c := 1, 0; c < cords.sets; c++ {
		for _, t := range cords.elems[cords.first[c]:cords.past[c]] {
			blocks.mark(tail[t])
		}
		blocks.split()
		for ; b < blocks.sets; b++ {
			for _, s := range blocks.elems[blocks.first[b]:blocks.past[b]] {
				for _, t := range in[into[s]:into[s+1]] {
					cords.mark(t)
				}
			}
			cords.split()
		}
	}

	// The quotient, read off one representative per block in canonical order.
	num := make([]int32, 2*blocks.sets) // num[b]: block b's number plus one, 0 until discovered
	queue := num[blocks.sets:blocks.sets]
	rep := func(b int32) int32 { return blocks.elems[blocks.first[b]] }
	edges := 0
	for b := 0; b < blocks.sets; b++ {
		edges += int(out[rep(int32(b))+1] - out[rep(int32(b))])
	}
	queue = append(queue, blocks.set[id[d.start]])
	num[queue[0]] = 1
	q := NewBuilder(blocks.sets, edges)
	for i := 0; i < len(queue); i++ {
		r := rep(queue[i])
		for t := out[r]; t < out[r+1]; t++ {
			to := blocks.set[head[t]]
			if num[to] == 0 {
				queue = append(queue, to)
				num[to] = int32(len(queue))
			}
			q.Edge(Symbol(label[t]), StateID(num[to]-1))
		}
		q.EndState(d.accept[orig[r]])
	}
	res := q.Build(0)
	res.minimal = true
	return res
}

// MinimizeHopcroft is Minimize. It keeps the name under which the performance
// ledger (bench/relmperf) times the compile chain's minimization step, until
// the ledger's own change renames that step (ROADMAP 1(g)); new code calls
// Minimize.
func (d *DFA) MinimizeHopcroft() *DFA { return d.Minimize() }
