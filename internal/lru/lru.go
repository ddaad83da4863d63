// Package lru is the repo's one recency list, the bounded map on top of it,
// and the one single-flight table (DESIGN.md decision 4), shared by the
// logit cache, the plan cache and the KV arena. Nothing here locks: the
// caller's mutex guards every call but Flight.Wait and Group.Run, so a batch
// of lookups, joins and starts can share one critical section. The map's
// eviction rule is windowed TinyLFU; the KV arena's lists stay plain LRU.
package lru

import (
	"fmt"
	"math/bits"
	"sync"
)

// Elem is one entry of a List. The caller allocates it — typically embedded
// in its own node, with Value pointing back at the node — so linking and
// unlinking allocate nothing.
type Elem[V any] struct {
	prev, next *Elem[V]
	list       *List[V]
	Value      V
}

// Listed reports whether e is in a list.
func (e *Elem[V]) Listed() bool { return e.list != nil }

// Remove takes e out of its list; it is a no-op when e is in none.
func (e *Elem[V]) Remove() {
	l := e.list
	if l == nil {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.front = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.back = e.prev
	}
	e.prev, e.next, e.list = nil, nil, nil
	l.n--
}

// List is an intrusive doubly linked list in recency order: the front is the
// most recently used end, the back the next to evict. An Elem is in at most
// one List. The zero value is an empty list.
type List[V any] struct {
	front, back *Elem[V]
	n           int
}

// Len reports the number of elements in l.
func (l *List[V]) Len() int { return l.n }

// Back returns the least recently used element, or nil when l is empty.
func (l *List[V]) Back() *Elem[V] { return l.back }

// PushFront inserts e, which must be in no list, as the most recently used.
func (l *List[V]) PushFront(e *Elem[V]) {
	e.prev, e.next, e.list = nil, l.front, l
	if l.front != nil {
		l.front.prev = e
	} else {
		l.back = e
	}
	l.front = e
	l.n++
}

// PushBack inserts e, which must be in no list, as the least recently used.
func (l *List[V]) PushBack(e *Elem[V]) {
	e.prev, e.next, e.list = l.back, nil, l
	if l.back != nil {
		l.back.next = e
	} else {
		l.front = e
	}
	l.back = e
	l.n++
}

// Map is a string-keyed map of at most a fixed number of entries under
// windowed TinyLFU (DESIGN.md decision 4): a new entry enters a small LRU
// window, and the one the window pushes out replaces the main LRU's victim
// only if a sketch counts it requested more often. Lookups take the key as
// bytes and allocate nothing.
type Map[V any] struct {
	cap, winCap  int
	items        map[string]*Elem[entry[V]]
	window, main List[entry[V]]
	freq         sketch
}

type entry[V any] struct {
	key string
	val V
}

// NewMap returns an empty map holding at most capacity entries, one percent
// of them (at least one) in the window. The Go map grows as it fills.
func NewMap[V any](capacity int) *Map[V] {
	m := &Map[V]{cap: capacity, winCap: max(1, capacity/100), freq: newSketch(capacity)}
	m.items = make(map[string]*Elem[entry[V]])
	return m
}

// Get returns the value under key, counts the hit and bumps it in its list.
func (m *Map[V]) Get(key []byte) (V, bool) {
	e, ok := m.items[string(key)]
	if !ok {
		var zero V
		return zero, false
	}
	m.freq.add(hash(key))
	if l := e.list; l.front != e {
		e.Remove()
		l.PushFront(e)
	}
	return e.Value.val, true
}

// Has reports whether key is present; it neither counts nor bumps it.
func (m *Map[V]) Has(key []byte) bool {
	_, ok := m.items[string(key)]
	return ok
}

// Add counts a request for key and inserts v under it at the window's front,
// allocating one element, unless key is present: the incumbent keeps its
// value and place.
func (m *Map[V]) Add(key string, v V) {
	m.freq.add(hash(key))
	if _, ok := m.items[key]; ok {
		return
	}
	e := &Elem[entry[V]]{Value: entry[V]{key: key, val: v}}
	m.items[key] = e
	m.window.PushFront(e)
	if m.window.n <= m.winCap {
		return
	}
	cand := m.window.back
	cand.Remove()
	if victim := m.main.back; m.main.n >= m.cap-m.winCap {
		if victim == nil || m.freq.estimate(hash(cand.Value.key)) <= m.freq.estimate(hash(victim.Value.key)) {
			delete(m.items, cand.Value.key)
			return
		}
		victim.Remove()
		delete(m.items, victim.Value.key)
	}
	m.main.PushFront(cand)
}

// Len reports the number of entries.
func (m *Map[V]) Len() int { return m.window.n + m.main.n }

// Frequency reports the sketch's estimate of how often key was requested.
func (m *Map[V]) Frequency(key []byte) int { return m.freq.estimate(hash(key)) }

// sketch is a count-min sketch: four rows of 4-bit counters, sixteen to a
// word, each row the next power of two ≥ capacity (and ≥ 16) wide. Halving
// them all every 10 × capacity increments lets a new hot set displace an old.
type sketch struct {
	words     []uint64
	shift     uint // 64 - log2(row width): a row index is a hash's top bits
	n, period int
}

func newSketch(capacity int) sketch {
	w := max(16, 1<<bits.Len(uint(capacity-1)))
	return sketch{words: make([]uint64, w/4), shift: uint(64 - bits.Len(uint(w-1))), period: 10 * capacity}
}

// rowSeeds are odd multipliers that spread one hash into four row indexes.
var rowSeeds = [4]uint64{0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93}

// counter returns the word and bit offset of row i's counter for h.
func (s *sketch) counter(h uint64, i int) (int, uint) {
	c := i<<(64-s.shift) | int(h*rowSeeds[i]>>s.shift)
	return c / 16, uint(c%16) * 4
}

func (s *sketch) add(h uint64) {
	for i := range rowSeeds {
		if w, b := s.counter(h, i); s.words[w]>>b&15 < 15 {
			s.words[w] += 1 << b
		}
	}
	if s.n++; s.n >= s.period {
		s.n = 0
		for i, w := range s.words {
			s.words[i] = w >> 1 & 0x7777777777777777
		}
	}
}

func (s *sketch) estimate(h uint64) int {
	est := 15
	for i := range rowSeeds {
		w, b := s.counter(h, i)
		est = min(est, int(s.words[w]>>b&15))
	}
	return est
}

// hash is FNV-1a with a fixed seed and a final mix: it allocates nothing, and
// one access sequence always gives the same cache contents.
func hash[K string | []byte](k K) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h = (h ^ uint64(k[i])) * 1099511628211
	}
	return (h ^ h>>33) * 0xff51afd7ed558ccd
}

// Group is a single-flight table: the first caller to miss a key Starts a
// Flight and computes it; callers missing the same key meanwhile Join it
// and Wait. The zero value is an empty table.
type Group[V any] struct {
	m map[string]*Flight[V]
}

// Flight is one computation in progress.
type Flight[V any] struct {
	key  string
	done sync.WaitGroup
	val  V
	err  error
}

// Join returns the flight computing key, or nil when none is.
func (g *Group[V]) Join(key []byte) *Flight[V] { return g.m[string(key)] }

// Start registers a flight for key, which must have none. The caller owns
// it: it computes under Run and ends the flight with Finish.
func (g *Group[V]) Start(key string) *Flight[V] {
	if g.m == nil {
		g.m = make(map[string]*Flight[V])
	}
	f := &Flight[V]{key: key}
	f.done.Add(1)
	g.m[key] = f
	return f
}

// Finish ends f with v and err: the key leaves the table and f's waiters
// wake to the result.
func (g *Group[V]) Finish(f *Flight[V], v V, err error) {
	delete(g.m, f.key)
	f.val, f.err = v, err
	f.done.Done()
}

// Run calls compute, the work of the flights fs the caller owns, without the
// caller's lock. The owner failing is handled here, once: if compute panics,
// Run finishes every flight in fs with an *OwnerPanic under mu — the keys
// leave the table, so the next request computes afresh, and every waiter
// wakes to the failure — and re-raises the original panic value.
func (g *Group[V]) Run(mu sync.Locker, fs []*Flight[V], compute func()) {
	defer func() {
		if p := recover(); p != nil {
			var zero V
			mu.Lock()
			for _, f := range fs {
				g.Finish(f, zero, &OwnerPanic{Value: p})
			}
			mu.Unlock()
			panic(p)
		}
	}()
	compute()
}

// Key returns the key f computes.
func (f *Flight[V]) Key() string { return f.key }

// Wait blocks until the owner finishes f and returns its result.
func (f *Flight[V]) Wait() (V, error) {
	f.done.Wait()
	return f.val, f.err
}

// OwnerPanic is the error a waiter gets when its flight's owner panicked.
type OwnerPanic struct{ Value any }

func (e *OwnerPanic) Error() string {
	return fmt.Sprintf("lru: in-flight computation panicked on its owner: %v", e.Value)
}
